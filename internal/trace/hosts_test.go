package trace

import (
	"testing"
	"time"

	"groundhog/internal/faults"
	"groundhog/internal/isolation"
	"groundhog/internal/kernel"
	"groundhog/internal/sim"
)

// hostLoads is testLoads with bursty (CV 3) arrivals, so scale-ups spill
// across hosts.
func hostLoads(t *testing.T, rate float64) []FunctionLoad {
	t.Helper()
	loads := testLoads(t, rate)
	for i := range loads {
		loads[i].Burstiness = 3
	}
	return loads
}

// hostConfig is a four-host GH fleet with clone scale-out on, so every
// start path — full pipeline, local clone, pull then clone — is reachable.
func hostConfig() Config {
	return Config{
		Cost:                     kernel.Default(),
		Mode:                     isolation.ModeGH,
		Seed:                     3,
		Hosts:                    4,
		MaxContainersPerFunction: 4,
		KeepAlive:                600 * time.Millisecond,
		ScaleToZeroAfter:         1800 * time.Millisecond,
		Window:                   3 * time.Second,
		CloneScaleOut:            true,
	}
}

// hostFaults arms every recovery-relevant site at a low rate, plus one
// scheduled transfer abort so the pull fallback path runs deterministically.
func hostFaults(seed uint64) faults.Plan {
	return faults.Plan{
		Seed: seed,
		Rates: map[faults.Site]float64{
			faults.SiteCloneSpawn:   0.01,
			faults.SiteColdStart:    0.01,
			faults.SiteRestore:      0.005,
			faults.SiteRequestCrash: 0.005,
		},
		Schedule: map[faults.Site][]uint64{
			faults.SiteImageTransfer: {1},
		},
	}
}

// runHosts runs hostLoads at the given rate; checkNoLostWork then asserts
// the multi-host invariants too — host failures re-dispatch requests, never
// drop them, and teardown returns every frame on every host.
func runHosts(t *testing.T, cfg Config, rate float64) (*Fleet, *Result) {
	t.Helper()
	f, err := NewFleet(cfg, hostLoads(t, rate))
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	return f, res
}

// TestPlacersSurviveFailureAndDrain is the tentpole invariant test: each
// built-in placer runs a faulty cluster through a mid-run host failure and
// a drain, and must lose no requests and leak no frames.
func TestPlacersSurviveFailureAndDrain(t *testing.T) {
	for _, placer := range Placers() {
		t.Run(placer.Name(), func(t *testing.T) {
			cfg := hostConfig()
			cfg.Placer = placer
			cfg.Faults = hostFaults(11)
			cfg.Events = []Event{
				{At: sim.Duration(cfg.Window) * 2 / 5, Kind: EventHostFail, Host: 2},
				{At: sim.Duration(cfg.Window) * 7 / 10, Kind: EventHostDrain, Host: 1},
			}
			f, res := runHosts(t, cfg, 20)
			checkNoLostWork(t, f, res)
			if !res.PerHost[2].Failed || res.PerHost[1].Failed {
				t.Fatalf("host flags wrong: %+v", res.PerHost)
			}
			if !res.PerHost[1].Drained {
				t.Fatal("drained host not flagged")
			}
			// A downed host's memory is released when it leaves: its pools
			// were emptied and its images evicted at the event.
			for _, id := range []int{1, 2} {
				if n := res.PerHost[id].EndFrames; n != 0 {
					t.Fatalf("host %d still holds %d frames after leaving the cluster", id, n)
				}
			}
		})
	}
}

// TestPackFirstPacks: with every host eligible, pack-first never leaves
// host 0.
func TestPackFirstPacks(t *testing.T) {
	cfg := hostConfig()
	cfg.Placer = PackFirst{}
	f, res := runHosts(t, cfg, 20)
	for _, hs := range res.PerHost[1:] {
		if hs.Placements != 0 {
			t.Fatalf("pack-first placed %d containers on host %d", hs.Placements, hs.ID)
		}
	}
	if res.PerHost[0].Placements == 0 {
		t.Fatal("no placements recorded on host 0")
	}
	if res.Registry.Transfers != 0 {
		t.Fatalf("pack-first on one host paid %d transfers", res.Registry.Transfers)
	}
	checkNoLostWork(t, f, res)
}

// TestPackFirstSpillsAtCapacity: a 1-container host cap forces pack-first
// off host 0 once it is full.
func TestPackFirstSpillsAtCapacity(t *testing.T) {
	cfg := hostConfig()
	cfg.Placer = PackFirst{}
	cfg.HostCapacity = 2
	f, res := runHosts(t, cfg, 30)
	spilled := 0
	for _, hs := range res.PerHost[1:] {
		spilled += hs.Placements
	}
	if spilled == 0 {
		t.Fatal("capacity cap never forced a spill off host 0")
	}
	checkNoLostWork(t, f, res)
}

// TestRoundRobinSpreadsAndPaysTransfers: cycling placements touch every
// host, so the deployment's image must be pulled across hosts.
func TestRoundRobinSpreadsAndPaysTransfers(t *testing.T) {
	cfg := hostConfig()
	cfg.Placer = &RoundRobin{}
	f, res := runHosts(t, cfg, 30)
	for _, hs := range res.PerHost {
		if hs.Placements == 0 {
			t.Fatalf("round-robin never placed on host %d", hs.ID)
		}
	}
	if res.Registry.Transfers == 0 {
		t.Fatal("round-robin crossed hosts without any image transfer")
	}
	transferStarts := 0
	for _, fs := range res.PerFunction {
		transferStarts += fs.TransferColdStarts
		if fs.TransferColdStarts > 0 && fs.TransferCost == 0 {
			t.Fatalf("%s: transfer cold starts with zero transfer cost", fs.Name)
		}
	}
	if transferStarts == 0 {
		t.Fatal("no transfer cold starts recorded")
	}
	checkNoLostWork(t, f, res)
}

// TestLocalityAvoidsTransfers: with no failures, locality-aware placement
// keeps each deployment on its image-warm host and never pays a transfer,
// while round-robin on the same workload does.
func TestLocalityAvoidsTransfers(t *testing.T) {
	loc := hostConfig()
	loc.Placer = LocalityAware{}
	fLoc, resLoc := runHosts(t, loc, 30)
	if resLoc.Registry.Transfers != 0 {
		t.Fatalf("locality-aware paid %d transfers with every host healthy", resLoc.Registry.Transfers)
	}
	rr := hostConfig()
	rr.Placer = &RoundRobin{}
	_, resRR := runHosts(t, rr, 30)
	if resRR.Registry.Transfers <= resLoc.Registry.Transfers {
		t.Fatalf("round-robin transfers (%d) not above locality's (%d)",
			resRR.Registry.Transfers, resLoc.Registry.Transfers)
	}
	checkNoLostWork(t, fLoc, resLoc)
}

// TestClusterDeterministic: the same seed reproduces the same run,
// transfers, placements and latencies included.
func TestClusterDeterministic(t *testing.T) {
	run := func() *Result {
		cfg := hostConfig()
		cfg.Placer = LocalityAware{}
		cfg.Faults = hostFaults(11)
		cfg.Events = []Event{{At: sim.Duration(cfg.Window) / 2, Kind: EventHostFail, Host: 0}}
		_, res := runHosts(t, cfg, 20)
		return res
	}
	a, b := run(), run()
	for i := range a.PerFunction {
		fa, fb := a.PerFunction[i], b.PerFunction[i]
		if fa.Requests != fb.Requests || fa.ColdStarts != fb.ColdStarts ||
			fa.Transfers != fb.Transfers || fa.ColdStartCost != fb.ColdStartCost ||
			fa.E2E.N() != fb.E2E.N() || fa.E2E.Mean() != fb.E2E.Mean() {
			t.Fatalf("run diverged for %s:\n%+v\nvs\n%+v", fa.Name, fa, fb)
		}
	}
	if a.PeakFrames != b.PeakFrames || a.EndFrames != b.EndFrames || a.Registry != b.Registry {
		t.Fatalf("cluster-wide results diverged: %+v vs %+v", a, b)
	}
}

// TestHostFailureRedispatches: failing the only image-warm host mid-window
// moves the work to the survivor with nothing lost; the failed host takes
// no further placements.
func TestHostFailureRedispatches(t *testing.T) {
	cfg := hostConfig()
	cfg.Hosts = 2
	cfg.Placer = PackFirst{} // everything lands on host 0 until it dies
	cfg.Events = []Event{{At: sim.Duration(cfg.Window) / 2, Kind: EventHostFail, Host: 0}}
	f, res := runHosts(t, cfg, 20)
	checkNoLostWork(t, f, res)
	crashes := 0
	for _, fs := range res.PerFunction {
		crashes += fs.EventCrashes
	}
	if crashes == 0 {
		t.Fatal("host failure removed no containers")
	}
	if res.PerHost[1].Placements == 0 {
		t.Fatal("survivor host took no placements after the failure")
	}
}

// TestValidateRejectsTotalOutage: an event schedule that downs every host
// is rejected up front — the queues could never drain.
func TestValidateRejectsTotalOutage(t *testing.T) {
	cfg := hostConfig()
	cfg.Hosts = 2
	cfg.Events = []Event{
		{At: sim.Duration(time.Second), Kind: EventHostFail, Host: 0},
		{At: sim.Duration(2 * time.Second), Kind: EventHostDrain, Host: 1},
	}
	if _, err := NewFleet(cfg, hostLoads(t, 10)); err == nil {
		t.Fatal("config downing every host was accepted")
	}
}

// TestScaleToZeroReleasesClusterMemory: after traffic stops, scale-to-zero
// under FixedTTL evicts images everywhere; a post-drain cluster holds no
// frames even before Teardown.
func TestScaleToZeroReleasesClusterMemory(t *testing.T) {
	cfg := hostConfig()
	cfg.Placer = &RoundRobin{} // force images onto several hosts
	cfg.Window = 6 * time.Second
	// Sparse Poisson arrivals leave gaps long enough for the two-tier
	// reaper to take pools to zero mid-window.
	f, err := NewFleet(cfg, testLoads(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	scaledToZero := 0
	for _, fs := range res.PerFunction {
		scaledToZero += fs.ScaledToZero
	}
	if scaledToZero == 0 {
		t.Skip("no pool scaled to zero at this operating point")
	}
	if leaked := f.Teardown(); leaked != 0 {
		t.Fatalf("teardown left %d frames", leaked)
	}
}

// TestPlacementViewsAllocFree: placement views are built in the fleet's
// reused scratch slice, so a scale-up's placement allocates nothing once
// the slice has grown — on one host and on several.
func TestPlacementViewsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, hosts := range []int{1, 4} {
		cfg := hostConfig()
		cfg.Hosts = hosts
		f, err := NewFleet(cfg, hostLoads(t, 10))
		if err != nil {
			t.Fatal(err)
		}
		fs := f.fns[0]
		sig := f.signals(fs, 0)
		allocs := testing.AllocsPerRun(100, func() {
			views := f.eligibleHosts(fs, 0)
			_ = f.placer.Place(sig, views)
		})
		if allocs != 0 {
			t.Fatalf("%d hosts: placement allocated %.1f times per scale-up", hosts, allocs)
		}
	}
}

// TestFindSourceSkipsDestination: a pull source is always another live
// host. On one host nothing can source a transfer, even with the image
// resident; on two, the image-holding host sources the other — and never
// itself.
func TestFindSourceSkipsDestination(t *testing.T) {
	for _, hosts := range []int{1, 2} {
		cfg := hostConfig()
		cfg.Hosts = hosts
		cfg.Placer = PackFirst{}
		f, err := NewFleet(cfg, hostLoads(t, 10)[:1])
		if err != nil {
			t.Fatal(err)
		}
		fs := f.fns[0]
		if _, _, err := fs.pools[0].EnsureExportedImage(sim.NewMeter()); err != nil {
			t.Fatal(err)
		}
		if src := f.findSource(fs, 0); src != nil {
			t.Fatalf("%d hosts: host 0 was offered itself as a pull source", hosts)
		}
		if hosts > 1 {
			if src := f.findSource(fs, 1); src != fs.pools[0] {
				t.Fatalf("host 1's pull source = %p, want host 0's pool %p", src, fs.pools[0])
			}
		}
		if leaked := f.Teardown(); leaked != 0 {
			t.Fatalf("%d hosts: teardown left %d frames", hosts, leaked)
		}
	}
}
