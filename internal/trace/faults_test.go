package trace

import (
	"reflect"
	"testing"
	"time"

	"groundhog/internal/core"
	"groundhog/internal/faults"
	"groundhog/internal/isolation"
	"groundhog/internal/sim"
)

// faultyConfig is a GH fleet with clone scale-out on — every failure site
// (export, clone spawn, pipeline, restore, request) is reachable.
func faultyConfig() Config {
	cfg := testConfig(isolation.ModeGH)
	cfg.CloneScaleOut = true
	return cfg
}

func runFleet(t *testing.T, cfg Config, rate float64) (*Fleet, *Result) {
	t.Helper()
	f, err := NewFleet(cfg, testLoads(t, rate))
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	return f, res
}

// checkNoLostWork asserts the PR's two fleet-wide invariants: every arrived
// request was served (faults delay, never drop), and teardown returns every
// frame to the kernel (no partial operation leaked).
func checkNoLostWork(t *testing.T, f *Fleet, res *Result) {
	t.Helper()
	for _, fs := range res.PerFunction {
		if fs.Arrived != fs.Requests {
			t.Fatalf("%s: arrived %d != served %d (lost requests)", fs.Name, fs.Arrived, fs.Requests)
		}
	}
	if leaked := f.Teardown(); leaked != 0 {
		t.Fatalf("teardown left %d frames in use", leaked)
	}
}

// TestDisarmedFleetMatchesBaseline pins the determinism contract: a config
// carrying an explicit zero fault plan produces a Result deeply equal to the
// same config without the field. The seams must be invisible when disarmed.
func TestDisarmedFleetMatchesBaseline(t *testing.T) {
	base := faultyConfig()
	armed := faultyConfig()
	armed.Faults = faults.Plan{} // explicit zero plan — still disarmed

	_, want := runFleet(t, base, 10)
	_, got := runFleet(t, armed, 10)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("zero fault plan changed the run:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestFaultyFleetDeterministic pins seed-reproducibility: two runs of the
// same fault plan are deeply equal.
func TestFaultyFleetDeterministic(t *testing.T) {
	cfg := faultyConfig()
	cfg.Faults = faults.Plan{
		Seed: 7,
		Rates: map[faults.Site]float64{
			faults.SiteCloneSpawn:   0.05,
			faults.SiteColdStart:    0.05,
			faults.SiteRequestCrash: 0.02,
			faults.SiteRestore:      0.01,
		},
	}
	_, a := runFleet(t, cfg, 10)
	_, b := runFleet(t, cfg, 10)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same plan, different results:\n%+v\n%+v", a, b)
	}
}

// TestCrashedRequestsRetryNotDrop injects mid-request crashes and checks the
// peek-then-pop dispatcher: crashed requests stay queued and are re-served,
// so none are lost, crashes are counted, and teardown is balanced.
func TestCrashedRequestsRetryNotDrop(t *testing.T) {
	cfg := faultyConfig()
	cfg.Faults = faults.Plan{
		Seed:  11,
		Rates: map[faults.Site]float64{faults.SiteRequestCrash: 0.05},
	}
	f, res := runFleet(t, cfg, 10)
	crashes := 0
	for _, fs := range res.PerFunction {
		crashes += fs.Crashes
	}
	if crashes == 0 {
		t.Fatal("5% crash rate produced no crashes")
	}
	checkNoLostWork(t, f, res)
}

// TestColdStartFaultsRecover injects clone-spawn and pipeline faults and
// checks the recovery ladder: clone failures fall back to the full pipeline,
// pipeline failures retry with backoff, and no request or frame is lost.
func TestColdStartFaultsRecover(t *testing.T) {
	cfg := faultyConfig()
	cfg.Faults = faults.Plan{
		Seed: 13,
		Rates: map[faults.Site]float64{
			faults.SiteCloneSpawn: 0.3,
			faults.SiteColdStart:  0.2,
		},
	}
	f, res := runFleet(t, cfg, 12)
	fallbacks, retries := 0, 0
	for _, fs := range res.PerFunction {
		fallbacks += fs.CloneFallbacks
		retries += fs.ColdStartRetries
	}
	if fallbacks == 0 {
		t.Fatal("30% clone-spawn fault rate produced no fallbacks")
	}
	if retries == 0 {
		t.Fatal("20% pipeline fault rate produced no retries")
	}
	checkNoLostWork(t, f, res)
}

// TestCrashWaveEventRecovers kills every container mid-window; the fleet
// must rebuild the pools and finish the workload without losing requests.
func TestCrashWaveEventRecovers(t *testing.T) {
	cfg := faultyConfig()
	cfg.Events = []Event{{At: cfg.Window / 2, Kind: EventCrashWave}}
	f, res := runFleet(t, cfg, 10)
	for _, fs := range res.PerFunction {
		if fs.EventCrashes == 0 {
			t.Fatalf("%s: crash wave removed no containers", fs.Name)
		}
	}
	checkNoLostWork(t, f, res)
}

// TestCorruptImageEventFallsBack corrupts the exported images mid-window on
// a disarmed fleet: the flag-only corruption path must still be detected at
// the next clone, evict the image, and fall back to the full pipeline. The
// first crash wave forces clone scale-ups (so the images are exported before
// the corruption lands); the second forces post-corruption scale-ups that
// must detect it.
func TestCorruptImageEventFallsBack(t *testing.T) {
	cfg := faultyConfig()
	cfg.MaxContainersPerFunction = 4
	cfg.Events = []Event{
		{At: cfg.Window / 4, Kind: EventCrashWave},
		{At: cfg.Window * 19 / 40, Kind: EventCorruptImage},
		{At: cfg.Window * 21 / 40, Kind: EventCrashWave},
	}
	f, res := runFleet(t, cfg, 25)
	for _, fs := range res.PerFunction {
		if fs.ImageIntegrityFailures == 0 {
			t.Fatalf("%s: corruption never detected", fs.Name)
		}
		if fs.CloneFallbacks == 0 {
			t.Fatalf("%s: corrupted image produced no clone fallback", fs.Name)
		}
	}
	checkNoLostWork(t, f, res)
}

// TestDrainEventRebuilds drains every pool (and evicts the images)
// mid-window; the fleet must rebuild on demand without losing requests.
func TestDrainEventRecovers(t *testing.T) {
	cfg := faultyConfig()
	cfg.Events = []Event{{At: cfg.Window / 2, Kind: EventDrain, Function: "md2html (p)"}}
	f, res := runFleet(t, cfg, 10)
	fn, ok := res.Function("md2html (p)")
	if !ok {
		t.Fatal("md2html missing from results")
	}
	if fn.Drained == 0 {
		t.Fatal("drain removed no containers")
	}
	checkNoLostWork(t, f, res)
}

// TestEventValidation rejects out-of-window offsets, unknown kinds, and
// unknown target functions.
func TestEventValidation(t *testing.T) {
	cfg := faultyConfig()
	cfg.Events = []Event{{At: cfg.Window, Kind: EventCrashWave}}
	if _, err := NewFleet(cfg, testLoads(t, 10)); err == nil {
		t.Fatal("event at the window boundary accepted")
	}
	cfg.Events = []Event{{At: 0, Kind: "meteor-strike"}}
	if _, err := NewFleet(cfg, testLoads(t, 10)); err == nil {
		t.Fatal("unknown event kind accepted")
	}
	cfg.Events = []Event{{At: 0, Kind: EventDrain, Function: "no-such-fn"}}
	if _, err := NewFleet(cfg, testLoads(t, 10)); err == nil {
		t.Fatal("unknown event target accepted")
	}
	cfg.Events = nil
	cfg.Faults = faults.Plan{Seed: 1, Rates: map[faults.Site]float64{faults.SiteRestore: 1.5}}
	if _, err := NewFleet(cfg, testLoads(t, 10)); err == nil {
		t.Fatal("invalid fault plan accepted")
	}
}

// TestFramesBalanceUnderRandomFaultSchedules is the randomized property
// test: for arbitrary seeded fault schedules — random per-site rates drawn
// from a seeded generator, both state stores, one and three hosts, events
// included — every request arrives, and teardown returns every host's frame
// pool to baseline. On three hosts, round-robin placement spreads the
// pools (so image pulls and transfer faults run too) and one host fails
// mid-window. The schedules are derived from sim.Rand, so a failure
// reproduces from its logged seed.
func TestFramesBalanceUnderRandomFaultSchedules(t *testing.T) {
	stores := []core.StoreKind{core.StoreCopy, core.StoreCoW}
	for _, hosts := range []int{1, 3} {
		for _, store := range stores {
			for seed := uint64(1); seed <= 6; seed++ {
				gen := sim.NewRand(seed * 0x9E3779B97F4A7C15)
				plan := faults.Plan{Seed: gen.Uint64(), Rates: map[faults.Site]float64{}}
				for _, site := range faults.Sites {
					if gen.Float64() < 0.5 {
						plan.Rates[site] = gen.Float64() * 0.1
					}
				}
				cfg := faultyConfig()
				cfg.Store = store
				cfg.Seed = seed
				cfg.Window = 2 * time.Second
				cfg.Faults = plan
				cfg.Events = []Event{
					{At: cfg.Window / 3, Kind: EventCrashWave},
					{At: cfg.Window / 2, Kind: EventCorruptImage},
				}
				if hosts > 1 {
					cfg.Hosts = hosts
					cfg.Placer = &RoundRobin{}
					cfg.Events = append(cfg.Events, Event{At: cfg.Window * 3 / 5, Kind: EventHostFail, Host: 2})
				}
				f, res := runFleet(t, cfg, 12)
				for _, fs := range res.PerFunction {
					if fs.Arrived != fs.Requests {
						t.Fatalf("hosts %d store %v seed %d: %s arrived %d != served %d (plan %+v)",
							hosts, store, seed, fs.Name, fs.Arrived, fs.Requests, plan)
					}
				}
				if leaked := f.Teardown(); leaked != 0 {
					t.Fatalf("hosts %d store %v seed %d: teardown left %d frames (plan %+v)",
						hosts, store, seed, leaked, plan)
				}
			}
		}
	}
}
