package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// setupRounds is how many times a run sets the serving stack up; setup_s
// is their median and the last stack serves the measured window.
const setupRounds = 25

// runServing returns the run function of a serving workload. The client
// and the stack share one process, and a serving run keeps them on one
// scheduler thread (GOMAXPROCS 1): with one request in flight, the client
// and server goroutines hand the request back and forth on that thread.
// With two, most handoffs woke a parked thread on the other core, and the
// latency tail measured those wake-ups (and other tenants' use of that
// core) more than the program: on a shared 2-core VM one connection with
// GOMAXPROCS 2 gave native-http a p95 of 0.12-0.15 ms over a p50 of 0.065
// ms, and GOMAXPROCS 1 a p95 of 0.068-0.080 ms over thirty seeds.
func runServing(spec servingSpec) func(runConfig) (*report, error) {
	return func(cfg runConfig) (*report, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		seq := newSequence(spec, cfg.seed)
		rep := newReport()
		st, err := setupStacks(spec, seq, rep, setupRounds)
		if err != nil {
			return nil, err
		}
		if cfg.trace == 1 {
			return rep, traceServing(spec, seq, st, cfg, rep)
		}
		if err := measure(rep, spec, seq, st, cfg.budget(1)); err != nil {
			st.close()
			return nil, err
		}
		rep.heapCheckpoint()
		leaked := st.close()
		rep.check("shutdown_leaks_zero_frames", leaked == 0, "%d frames left after Server.Shutdown", leaked)
		return rep, nil
	}
}

// measure runs the workload's timed window and reports it. The window's
// latency samples are garbage once it returns, so a heap checkpoint taken
// afterwards sees only what the program retains.
func measure(rep *report, spec servingSpec, seq *sequence, st *stack, d time.Duration) error {
	res, err := drive(spec, seq, st, d, false)
	if err != nil {
		return err
	}
	recordDrive(rep, &res)
	return nil
}

// setupStacks sets the stack up rounds times, reports the median as
// setup_s, shuts all but the last down (checking for leaked frames), warms
// the last one up and returns it.
func setupStacks(spec servingSpec, seq *sequence, rep *report, rounds int) (*stack, error) {
	var secs []float64
	var st *stack
	leaked := 0
	for k := 0; k < rounds; k++ {
		s, d, err := setupServing(spec, seq, rep)
		if err != nil {
			return nil, err
		}
		secs = append(secs, d.Seconds())
		rep.heapCheckpoint()
		if k < rounds-1 {
			leaked += s.close()
		} else {
			st = s
		}
	}
	rep.e2e["setup_s"] = value{v: median(secs), n: len(secs)}
	rep.check("setup_shutdown_leaks_zero", leaked == 0, "%d frames left after %d set-up shutdowns", leaked, rounds-1)
	if err := warmUp(spec, seq, st, rep); err != nil {
		st.close()
		return nil, err
	}
	rep.heapCheckpoint()
	return st, nil
}

// setupServing starts a stack and deploys the function by serving its
// first request through the workload's own transport; it returns the
// stack and the time both took.
func setupServing(spec servingSpec, seq *sequence, rep *report) (*stack, time.Duration, error) {
	start := time.Now()
	st, err := startStack()
	if err != nil {
		return nil, 0, err
	}
	if err := serveOneByOne(spec, seq, st, rep, 1); err != nil {
		st.close()
		return nil, 0, fmt.Errorf("first request: %w", err)
	}
	return st, time.Since(start), nil
}

// warmUp serves the spec's warm-up requests over one connection, outside
// every timed window and outside setup_s: it brings the Go runtime, the
// connection and the deployment to the steady state the window measures.
func warmUp(spec servingSpec, seq *sequence, st *stack, rep *report) error {
	if err := serveOneByOne(spec, seq, st, rep, spec.warmup); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// serveOneByOne sends the first n requests of the sequence over one new
// connection, one at a time, and fails unless every one is verified.
func serveOneByOne(spec servingSpec, seq *sequence, st *stack, rep *report, n int) error {
	c, err := dial(spec, st)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	defer c.close()
	var t tally
	for i := 0; i < n; i++ {
		t.attempted++
		_, o, err := c.do(seq.at(i))
		t.add(o, 0, 0, 0, err)
	}
	rep.attempted += t.attempted
	rep.failed += t.failed()
	if t.ok != t.attempted {
		return fmt.Errorf("%d of %d requests failed (first: %s)", t.failed(), t.attempted, t.firstErr)
	}
	return nil
}

// recordDrive reports a measured window's end-to-end figures and checks.
func recordDrive(rep *report, res *windowResult) {
	accountDrive(rep, res, "")
	n := len(res.lat)
	rep.e2e["throughput_rps"] = value{v: float64(res.ok) / res.wall.Seconds(), n: res.ok}
	rep.e2e["latency_p50_ms"] = value{v: secondPercentile(res.lat, res.sec, 50), n: n}
	rep.e2e["latency_p95_ms"] = value{v: secondPercentile(res.lat, res.sec, 95), n: n}
	rep.e2e["latency_p99_ms"] = value{v: secondPercentile(res.lat, res.sec, 99), n: n}
	sort.Float64s(res.model)
	rep.e2e["error_rate"] = value{v: float64(res.failed()) / float64(max(res.attempted, 1)), n: res.attempted}
	rep.e2e["model_e2e_p50_ms"] = value{v: sortedPercentile(res.model, 50), n: len(res.model)}
	rep.e2e["model_e2e_p99_ms"] = value{v: sortedPercentile(res.model, 99), n: len(res.model)}
	if res.firstErr != "" {
		rep.note("first request error: %s", res.firstErr)
	}
	rep.note("outcomes: ok %d, rejected %d, transient %d, errors %d, bad echo %d",
		res.ok, res.rejected, res.transient, res.errors, res.badEcho)
	rep.check("some_requests_served", res.ok > 0, "%d verified responses", res.ok)
}

// accountDrive folds a window into the run's counts and echo and
// lost-request checks, their names prefixed by prefix.
func accountDrive(rep *report, res *windowResult, prefix string) {
	rep.attempted += res.attempted
	rep.failed += res.failed()
	rep.check(prefix+"echo_byte_for_byte", res.badEcho == 0, "%d responses echoed a different body", res.badEcho)
	rep.check(prefix+"no_lost_requests", res.lost() == 0, "%d requests attempted but never answered", res.lost())
}
