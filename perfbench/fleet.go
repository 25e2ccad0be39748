package main

import (
	"bytes"
	"math"
	"runtime"
	"time"

	"groundhog/internal/catalog"
	"groundhog/internal/isolation"
	"groundhog/internal/kernel"
	"groundhog/internal/metrics"
	"groundhog/internal/runtimes"
	"groundhog/internal/sim"
	"groundhog/internal/trace"
)

// fleetMember is one deployment of the fleet-xl mix: a catalog function
// (name) or a synthetic microservice profile (micro), with its arrival
// shape.
type fleetMember struct {
	name   string
	micro  runtimes.Profile
	rate   float64
	burst  float64
	amp    float64
	period time.Duration
	phase  float64
}

// microProfile mirrors experiments.microProfile: a tiny C function with a
// stable layout, so its restores take the steady-state fast path.
func microProfile(name string, totalPages, dirtyPages int, execMS float64) runtimes.Profile {
	return runtimes.Profile{
		Name:         name,
		Lang:         runtimes.LangC,
		Exec:         sim.Duration(execMS * float64(time.Millisecond)),
		TotalPages:   totalPages,
		DirtyPages:   dirtyPages,
		UniformDirty: true,
	}
}

// fleetXLMix is the 26-function mix behind experiments.FleetXLBench
// (unexported there), copied entry for entry; TestFleetMixMatchesFleetXLBench
// pins the copy against the original.
var fleetXLMix = []fleetMember{
	{micro: microProfile("u-auth", 192, 5, 0.9), rate: 6000, burst: 4},
	{micro: microProfile("u-router", 160, 4, 0.7), rate: 5000, burst: 3},
	{micro: microProfile("u-thumb", 256, 8, 1.6), rate: 4000, burst: 4},
	{micro: microProfile("u-notify", 192, 6, 1.1), rate: 3000, burst: 2},
	{micro: microProfile("u-feed", 224, 7, 1.3), rate: 2500, amp: 0.8, period: 20 * time.Second},
	{micro: microProfile("u-cart", 192, 5, 1.0), rate: 2000, amp: 0.8, period: 20 * time.Second, phase: math.Pi / 2},
	{micro: microProfile("u-quote", 160, 4, 0.8), rate: 1500, amp: 0.7, period: 30 * time.Second, phase: math.Pi},
	{micro: microProfile("u-geo", 128, 4, 0.6), rate: 1000, amp: 0.6, period: 15 * time.Second, phase: 3 * math.Pi / 2},
	{name: "jacobi-1d (c)", rate: 600, burst: 4},
	{name: "durbin (c)", rate: 500, burst: 3},
	{name: "trisolv (c)", rate: 300, burst: 3},
	{name: "atax (c)", rate: 250, amp: 0.8, period: 20 * time.Second},
	{name: "bicg (c)", rate: 200, amp: 0.8, period: 20 * time.Second, phase: math.Pi / 2},
	{name: "mvt (c)", rate: 100, amp: 0.7, period: 20 * time.Second, phase: math.Pi},
	{name: "get-time (p)", rate: 40, burst: 3},
	{name: "version (p)", rate: 30, burst: 2},
	{name: "unpack_seq (p)", rate: 20},
	{name: "json (p)", rate: 15, amp: 0.5, period: 15 * time.Second},
	{name: "deltablue (p)", rate: 10, amp: 0.5, period: 20 * time.Second, phase: math.Pi},
	{name: "float (p)", rate: 8, amp: 0.6, period: 30 * time.Second},
	{name: "telco (p)", rate: 6, burst: 2, amp: 0.4, period: 30 * time.Second, phase: math.Pi / 2},
	{name: "pickle (p)", rate: 4, burst: 2},
	{name: "logging (p)", rate: 3, burst: 1},
	{name: "richards (p)", rate: 2},
	{name: "get-time (n)", rate: 2, burst: 1},
	{name: "json (n)", rate: 1},
}

// fleetLoads resolves the mix into trace loads.
func fleetLoads() ([]trace.FunctionLoad, error) {
	var loads []trace.FunctionLoad
	for _, m := range fleetXLMix {
		e := catalog.Entry{Prof: m.micro}
		if m.name != "" {
			var err error
			if e, err = catalog.Lookup(m.name); err != nil {
				return nil, err
			}
		}
		loads = append(loads, trace.FunctionLoad{
			Entry:            e,
			RatePerSec:       m.rate,
			Burstiness:       m.burst,
			DiurnalAmplitude: m.amp,
			DiurnalPeriod:    sim.Duration(m.period),
			DiurnalPhase:     m.phase,
		})
	}
	return loads, nil
}

// fleetConfig is FleetXLBench's fleet configuration over the given window.
func fleetConfig(seed uint64, window time.Duration) trace.Config {
	return trace.Config{
		Cost:                     kernel.Default(),
		Mode:                     isolation.ModeGH,
		Seed:                     seed,
		MaxContainersPerFunction: 64,
		KeepAlive:                trace.DefaultKeepAlive,
		ScaleToZeroAfter:         trace.DefaultScaleToZeroAfter,
		Window:                   sim.Duration(window),
		CloneScaleOut:            true,
		SketchStats:              true,
	}
}

// fleetWindow is each fleet-xl job's simulated window: long enough for
// the mix to scale out by cloning and for keep-alive reaping (0.6 s) to
// happen, short enough that a run holds over 20 jobs, so that the 95th
// percentile job time is not simply the slowest job.
const fleetWindow = 1500 * time.Millisecond

// fleetJobSeconds is about one job's wall time (set-up, Fleet.Run and the
// heap checkpoint) on a 2-core VM; a run holds seconds/fleetJobSeconds
// jobs, so the amount of work depends only on --seconds, never on the
// machine's speed.
const fleetJobSeconds = 1.0

func fleetJobs(seconds int) int {
	return max(2, int(math.Round(float64(seconds)/fleetJobSeconds)))
}

// fleetSeed is job j's fleet seed: its arrival draws.
func fleetSeed(seed uint64, j int) uint64 { return seed*1000 + uint64(j) }

// fleetJob is one NewFleet + Run over the mix.
type fleetJob struct {
	setup, run time.Duration
	res        *trace.Result
	requests   int
	arrived    int
	leaked     int
	heapMB     float64 // live heap when Run returns, fleet still alive
	// retained is the heap objects Run left allocated (GC-settled, fleet
	// still alive), measured only for profiled jobs.
	retained int64
}

// runFleetJob runs one job, measuring the live heap between Run and
// Teardown. With profile set, Run runs under a CPU profile and the job
// measures the heap objects Run retains, as experiments.FleetXLBench does.
func runFleetJob(loads []trace.FunctionLoad, seed uint64, profile *bytes.Buffer) (fleetJob, error) {
	var j fleetJob
	t0 := time.Now()
	fl, err := trace.NewFleet(fleetConfig(seed, fleetWindow), loads)
	if err != nil {
		return j, err
	}
	j.setup = time.Since(t0)
	var before, after runtime.MemStats
	if profile != nil {
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := startProfile(profile); err != nil {
			return j, err
		}
	}
	t1 := time.Now()
	j.res, err = fl.Run()
	j.run = time.Since(t1)
	if profile != nil {
		stopProfile()
	}
	if err != nil {
		return j, err
	}
	if profile != nil {
		runtime.GC()
		runtime.ReadMemStats(&after)
		j.retained = int64(after.HeapObjects) - int64(before.HeapObjects)
	}
	for _, f := range j.res.PerFunction {
		j.requests += f.Requests
		j.arrived += f.Arrived
	}
	j.heapMB = liveHeapMB()
	j.leaked = fl.Teardown()
	return j, nil
}

// recordFleet reports the jobs' end-to-end figures and checks. On fleet-xl
// a request is a simulated request, throughput is simulated requests per
// wall second of Fleet.Run, and the latency figures time whole jobs.
// heap_peak_mb is the median over the jobs of the live heap a job holds
// when Run returns: each job draws its own arrivals, and the largest
// would report whichever job's draws scaled out furthest (over ten seeds
// the largest of 30 jobs spread 0.078 of its median).
func recordFleet(rep *report, jobs []fleetJob) {
	var setup, runMs, heaps []float64
	var runWall time.Duration
	requests, arrived, leaked := 0, 0, 0
	var e2e []metrics.Recorder
	for _, j := range jobs {
		setup = append(setup, j.setup.Seconds())
		runMs = append(runMs, ms(j.run))
		heaps = append(heaps, j.heapMB)
		runWall += j.run
		requests += j.requests
		arrived += j.arrived
		leaked += j.leaked
		for _, f := range j.res.PerFunction {
			e2e = append(e2e, f.E2E)
		}
	}
	lost := arrived - requests
	rps := float64(requests) / runWall.Seconds()
	pooled := metrics.Pool(e2e...)
	rep.attempted += arrived
	rep.failed += lost
	rep.e2e["throughput_rps"] = value{v: rps, n: requests}
	rep.e2e["sim_requests_per_s"] = value{v: rps, n: requests}
	rep.e2e["latency_p50_ms"] = value{v: median(runMs), n: len(runMs)}
	rep.e2e["latency_p95_ms"] = value{v: percentile(runMs, 95), n: len(runMs)}
	rep.e2e["latency_p99_ms"] = value{v: percentile(runMs, 99), n: len(runMs)}
	rep.e2e["setup_s"] = value{v: median(setup), n: len(setup)}
	rep.e2e["heap_peak_mb"] = value{v: median(heaps), n: len(heaps)}
	rep.e2e["error_rate"] = value{v: float64(lost) / float64(max(arrived, 1)), n: arrived}
	rep.e2e["model_e2e_p50_ms"] = value{v: pooled.Percentile(50), n: requests}
	rep.e2e["model_e2e_p99_ms"] = value{v: pooled.P99(), n: requests}
	rep.note("%d jobs of a %v simulated window; latency_* time whole Fleet.Run jobs", len(jobs), fleetWindow)
	rep.check("fleet_serves_every_arrival", lost == 0, "%d of %d arrived requests never served", lost, arrived)
	rep.check("fleet_teardown_zero_frames", leaked == 0, "Fleet.Teardown left %d frames", leaked)
}

// runFleet is the fleet-xl workload.
func runFleet(cfg runConfig) (*report, error) {
	loads, err := fleetLoads()
	if err != nil {
		return nil, err
	}
	rep := newReport()
	if cfg.trace == 1 {
		return rep, traceFleet(loads, cfg, rep)
	}
	var jobs []fleetJob
	for j := 0; j < fleetJobs(cfg.seconds); j++ {
		job, err := runFleetJob(loads, fleetSeed(cfg.seed, j), nil)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, job)
	}
	recordFleet(rep, jobs)
	return rep, nil
}

// fleetLadderRequests is how many requests the traced run replays through
// the bottom rungs, drawn from the mix in proportion to the mean rates.
const fleetLadderRequests = 4000

// traceFleet is fleet-xl's traced run: job 0 untraced, job 0 again under a
// CPU profile, then a rate-weighted sample of the mix down the bottom rungs
// of the ladder (the fleet has no transport, gateway or server layer).
func traceFleet(loads []trace.FunctionLoad, cfg runConfig, rep *report) error {
	seed := fleetSeed(cfg.seed, 0)
	plain, err := runFleetJob(loads, seed, nil)
	if err != nil {
		return err
	}
	recordFleet(rep, []fleetJob{plain})

	var prof bytes.Buffer
	rt0 := readRuntime()
	traced, err := runFleetJob(loads, seed, &prof)
	if err != nil {
		return err
	}
	rt1 := readRuntime()
	rep.attempted += traced.arrived
	rep.failed += traced.arrived - traced.requests
	rep.check("traced_fleet_serves_every_arrival", traced.arrived == traced.requests,
		"%d of %d arrived requests never served", traced.arrived-traced.requests, traced.arrived)
	rep.check("traced_fleet_teardown_zero_frames", traced.leaked == 0, "Fleet.Teardown left %d frames", traced.leaked)
	if err := recordProfile(rep, prof.Bytes(), cfg, "fleet"); err != nil {
		return err
	}

	var full, clone, reaped, s2z, evicted int
	var e2e []metrics.Recorder
	for _, f := range plain.res.PerFunction {
		full += f.FullColdStarts
		clone += f.CloneColdStarts
		reaped += f.Reaped
		s2z += f.ScaledToZero
		evicted += f.ImagesEvicted
		e2e = append(e2e, f.E2E)
	}
	n := plain.requests
	pooled := metrics.Pool(e2e...)
	rep.layer["trace.run_s"] = value{v: plain.run.Seconds(), n: n}
	rep.layer["trace.new_fleet_s"] = value{v: plain.setup.Seconds(), n: 1}
	rep.layer["trace.requests"] = value{v: float64(n), n: n}
	rep.layer["trace.full_cold_starts"] = value{v: float64(full), n: n}
	rep.layer["trace.clone_cold_starts"] = value{v: float64(clone), n: n}
	rep.layer["trace.reaped"] = value{v: float64(reaped), n: n}
	rep.layer["trace.scaled_to_zero"] = value{v: float64(s2z), n: n}
	rep.layer["trace.images_evicted"] = value{v: float64(evicted), n: n}
	rep.layer["trace.retained_allocs_per_req"] = value{v: math.Max(float64(traced.retained), 0) / float64(max(traced.requests, 1)), n: traced.requests}
	rep.layer["go.allocs_per_req"] = value{v: float64(rt1.allocs-rt0.allocs) / float64(max(traced.requests, 1)), n: traced.requests}
	rep.layer["go.gc_cpu_fraction"] = value{v: (rt1.gcCPU - rt0.gcCPU) / math.Max(rt1.totalCPU-rt0.totalCPU, 1e-9), n: traced.requests}
	rep.layer["model.e2e_p50_ms"] = value{v: pooled.Percentile(50), n: n}
	rep.layer["model.e2e_p99_ms"] = value{v: pooled.P99(), n: n}
	rpsPlain := float64(plain.requests) / plain.run.Seconds()
	rpsTraced := float64(traced.requests) / traced.run.Seconds()
	rep.layer["ladder.overhead_pct"] = value{v: 100 * (rpsPlain - rpsTraced) / rpsPlain, n: 2}

	var targets []*benchTarget
	var weights []float64
	for _, l := range loads {
		b, err := newBenchTarget(l.Entry.Prof)
		if err != nil {
			return err
		}
		targets = append(targets, b)
		weights = append(weights, l.RatePerSec)
	}
	bot := &bottom{}
	allocs := newAllocCounter()
	reqs := weightedDraws(weights, fleetLadderRequests, cfg.seed)
	for start := 0; start < len(reqs); start += ladderBlock {
		end := min(start+ladderBlock, len(reqs))
		for i := start; i < end; i++ {
			if err := bot.faasStep(targets, i, reqs[i]); err != nil {
				return err
			}
		}
		for i := start; i < end; i++ {
			if err := bot.isoStep(targets, i, reqs[i], allocs); err != nil {
				return err
			}
		}
	}
	bot.record(rep, targets)
	if err := writeSpans(cfg, bot.spans); err != nil {
		return err
	}
	leaked := 0
	for _, b := range targets {
		leaked += b.teardown()
	}
	rep.check("bench_teardown_zero_frames", leaked == 0, "%d frames left on bench-owned kernels", leaked)
	return nil
}

// weightedDraws draws n indices with probability proportional to weights.
func weightedDraws(weights []float64, n int, seed uint64) []int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	r := splitmix{state: seed ^ 0xf1ee7}
	out := make([]int, n)
	for i := range out {
		x := r.float() * total
		k := 0
		for ; k < len(weights)-1 && x >= weights[k]; k++ {
			x -= weights[k]
		}
		out[i] = k
	}
	return out
}
