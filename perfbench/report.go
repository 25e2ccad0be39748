package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
)

// value is one reported figure with the number of samples behind it.
type value struct {
	v float64
	n int
}

// check is one output check; a failed check fails the run.
type check struct {
	name   string
	ok     bool
	detail string
}

// report is what a workload run produces.
type report struct {
	attempted int
	failed    int
	checks    []check
	// e2e holds the end-to-end figures by name: the five in endToEnd plus
	// error_rate, sim_requests_per_s, latency_p99_ms and the two modeled
	// latencies. layer holds the per-layer figures of a traced run.
	e2e   map[string]value
	layer map[string]value
	notes []string
}

func newReport() *report {
	return &report{e2e: map[string]value{}, layer: map[string]value{}}
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

// liveHeapMB forces a garbage collection and returns the live Go heap it
// leaves, in MB. Live heap after a forced collection measures what the
// program retains, without the swing of collection timing that a sampled
// in-use peak has.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// heapCheckpoint records the live heap; on the serving workloads
// heap_peak_mb is the largest over the run's checkpoints (after every
// set-up and after every measured window, outside all timing).
func (r *report) heapCheckpoint() {
	v := r.e2e["heap_peak_mb"]
	r.e2e["heap_peak_mb"] = value{v: max(v.v, liveHeapMB()), n: v.n + 1}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// e2eTable is the order and units of the end-to-end figures in the
// human-readable table: the nine the benchmark defines plus the 99th
// percentile latency, printed for reference.
var e2eTable = []struct{ name, unit string }{
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"error_rate", "ratio"},
	{"sim_requests_per_s", "1/s"},
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
	{"model_e2e_p50_ms", "virtual_ms"},
	{"model_e2e_p99_ms", "virtual_ms"},
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable table (every figure with unit and sample
// count, the checks and notes) followed by the one-line JSON result.
func (r *report) print(w io.Writer, wl workload, cfg runConfig) error {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", wl.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "  why:   %s\n  moves: %s\n  flat:  %s\n", wl.why, wl.moves, wl.flat)
	fmt.Fprintf(w, "end-to-end:\n")
	for _, m := range e2eTable {
		printRow(w, m.name, m.unit, r.e2e)
	}
	if cfg.trace == 1 {
		fmt.Fprintf(w, "per-layer:\n")
		for _, m := range perLayer {
			printRow(w, m.name, m.unit, r.layer)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, c := range r.checks {
		verdict := "ok"
		if !c.ok {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "check %-28s %-6s %s\n", c.name, verdict, c.detail)
	}

	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	defs, src := endToEnd, r.e2e
	if cfg.trace == 1 {
		defs, src = perLayer, r.layer
	}
	for _, d := range defs {
		v, ok := src[d.name]
		if !ok || math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			v.v = 0
		}
		res.Metrics[d.name] = jsonMetric{Value: v.v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func printRow(w io.Writer, name, unit string, vals map[string]value) {
	v, ok := vals[name]
	if !ok {
		fmt.Fprintf(w, "  %-44s %14s %-10s\n", name, "n/a", unit)
		return
	}
	fmt.Fprintf(w, "  %-44s %14.6g %-10s n=%d\n", name, v.v, unit, v.n)
}
