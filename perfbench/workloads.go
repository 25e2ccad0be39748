package main

import (
	"strings"

	"groundhog/internal/core"
)

// workload is one traffic mix the benchmark runs, with the provenance a
// later performance change is judged against: why the workload exists,
// which layer metrics it should move and which it should leave flat.
// BENCHMARK.json carries the one-line why; TestProvenanceMatchesBenchmarkJSON
// keeps the two in step.
type workload struct {
	name  string
	why   string
	moves string
	flat  string
	run   func(cfg runConfig) (*report, error)
}

// workloads lists every workload in BENCHMARK.json order.
var workloads = []workload{
	{
		name:  "native-http",
		why:   "bicg (c), 1 HTTP keep-alive conn, closed loop: ~1K pages, restore fast path; transport+gateway ~70% of a ~65us request. Moves transport/gateway; core.restore flat",
		moves: "transport.self_us, gateway.self_us, gateway.allocs_per_req, go.allocs_per_req -> throughput_rps, latency_*",
		flat:  "core.restore_us, runtimes.invoke_on_us, faas.self_us (restore takes the O(dirty) fast path)",
		run:   runServing(nativeHTTP),
	},
	{
		name:  "node-binary",
		why:   "get-time (n), 1 binary conn, closed loop: 157K mapped pages + layout churn force the exact restore walk (~72%). Moves core.restore/runtimes; transport/gateway flat",
		moves: "core.restore_us, core.restore_ns_per_mapped_page, runtimes.invoke_on_us, server.invoke_us -> throughput_rps",
		flat:  "transport.self_us, gateway.self_us, gateway.allocs_per_req (transport is under 2% of the request)",
		run:   runServing(nodeBinary),
	},
	{
		name:  "fleet-xl",
		why:   "26-function fleet-xl mix via trace.NewFleet and Fleet.Run, no network: dispatcher, sim engine, image export, clone scale-out, reaping. Moves trace/faas and setup; slow-path restore flat",
		moves: "trace.run_s, trace.new_fleet_s, faas.clone_ms, cpu_share.trace/sim/faas -> throughput_rps (simulated requests per wall second), setup_s",
		flat:  "core.restore_ns_per_mapped_page (99.5% of restores take the fast path), transport/gateway/server (absent)",
		run:   runFleet,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef is one metric BENCHMARK.json declares.
type metricDef struct {
	name   string
	unit   string
	better string
	// moves and flat record, for a layer metric, which end-to-end metric it
	// should move on which workload and where it should stay flat.
	moves string
	flat  string
}

// endToEnd lists the end-to-end metrics printed (with --trace 0) on every
// workload. On the serving workloads each latency percentile is the median
// over the window's seconds of that second's percentile (secondPercentile).
// On fleet-xl a "request" is a simulated request and the latency figures
// time whole Fleet.Run jobs; see runFleet. The tail is the 95th
// percentile: on a shared 2-core VM the 99th swings with scheduler and GC
// hiccups (in three ten-seed sets its spread, IQR over median, reached
// 0.167 on native-http and 0.161 on node-binary, the 95th's 0.110 and
// 0.073), and over a fleet-xl run's 30 jobs it is the slowest job.
var endToEnd = []metricDef{
	{name: "throughput_rps", unit: "1/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_p95_ms", unit: "ms", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "heap_peak_mb", unit: "MB", better: "lower"},
}

// phaseMetric names the per-layer metric for one core.Phases entry, e.g.
// "restoring memory" -> "core.phase.restoring_memory_virtual_us".
func phaseMetric(phase string) string {
	var b strings.Builder
	for _, r := range phase {
		switch {
		case r == ' ':
			b.WriteByte('_')
		case r == '-' || r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		}
	}
	return "core.phase." + b.String() + "_virtual_us"
}

// cpuBuckets are the cpu_share.* buckets, in report order.
var cpuBuckets = []string{
	"trace", "sim", "faas", "core", "vm", "mem", "runtimes",
	"server", "gateway", "net", "gc_runtime", "other",
}

// perLayer lists the per-layer metrics printed with --trace 1. A metric a
// workload has no layer for (transport on fleet-xl, trace.* on the serving
// workloads) is reported as 0.
var perLayer = func() []metricDef {
	ms := []metricDef{
		{name: "transport.self_us", unit: "us", moves: "throughput_rps, latency_* on native-http", flat: "node-binary"},
		{name: "gateway.self_us", unit: "us", moves: "throughput_rps, latency_* on native-http", flat: "node-binary"},
		{name: "gateway.allocs_per_req", unit: "count", moves: "native-http", flat: "node-binary"},
		{name: "gateway.admitted", unit: "count", moves: "throughput_rps on native-http (requests the traced run's windows admitted)", flat: "node-binary"},
		{name: "gateway.rejected", unit: "count", moves: "error_rate (0 while one connection stays under the queue depth)", flat: "node-binary"},
		{name: "gateway.transient", unit: "count", moves: "error_rate (0 unless the platform fails requests)", flat: "node-binary"},
		{name: "gateway.shed_ratio", unit: "ratio", moves: "error_rate (0 while one connection stays under the queue depth)", flat: "node-binary"},
		{name: "server.invoke_us", unit: "us", moves: "throughput_rps on node-binary", flat: "fleet-xl"},
		{name: "server.invoke_p99_us", unit: "us", moves: "latency_p95_ms on node-binary", flat: "fleet-xl"},
		{name: "server.self_us", unit: "us", moves: "throughput_rps on node-binary", flat: "fleet-xl"},
		{name: "faas.invoke_us", unit: "us", moves: "throughput_rps on all", flat: "native-http"},
		{name: "faas.self_us", unit: "us", moves: "throughput_rps on fleet-xl", flat: "native-http"},
		{name: "faas.cold_start_ms", unit: "ms", moves: "setup_s on all", flat: "native-http"},
		{name: "faas.clone_ms", unit: "ms", moves: "throughput_rps on fleet-xl", flat: "native-http"},
		{name: "isolation.begin_us", unit: "us", moves: "throughput_rps on node-binary", flat: "native-http"},
		{name: "isolation.self_us", unit: "us", moves: "throughput_rps on node-binary", flat: "native-http"},
		{name: "runtimes.invoke_on_us", unit: "us", moves: "throughput_rps on node-binary, fleet-xl", flat: "native-http"},
		{name: "core.restore_us", unit: "us", moves: "throughput_rps on node-binary", flat: "native-http, fleet-xl (fast path already taken)"},
		{name: "core.restore_p99_us", unit: "us", moves: "latency_p95_ms on node-binary", flat: "native-http, fleet-xl"},
		{name: "core.restore_ns_per_mapped_page", unit: "ns", moves: "throughput_rps on node-binary", flat: "native-http, fleet-xl"},
		{name: "core.restore_ns_per_restored_page", unit: "ns", moves: "throughput_rps on node-binary", flat: "native-http, fleet-xl"},
		{name: "core.allocs_per_restore", unit: "count", moves: "throughput_rps on node-binary", flat: "native-http, fleet-xl"},
		{name: "core.mapped_pages", unit: "count", moves: "model_e2e_* only when the model changes", flat: "every wall metric"},
		{name: "core.dirty_pages", unit: "count", moves: "model_e2e_* only when the model changes", flat: "every wall metric"},
		{name: "core.restored_pages", unit: "count", moves: "model_e2e_* only when the model changes", flat: "every wall metric"},
		{name: "core.dropped_pages", unit: "count", moves: "model_e2e_* only when the model changes", flat: "every wall metric"},
		{name: "core.layout_ops", unit: "count", moves: "model_e2e_* only when the model changes", flat: "every wall metric"},
		{name: "core.restore_virtual_us", unit: "virtual_us", moves: "model_e2e_* only when the model changes", flat: "every wall metric"},
	}
	for _, ph := range core.Phases {
		ms = append(ms, metricDef{name: phaseMetric(ph), unit: "virtual_us",
			moves: "model_e2e_* only when the model changes", flat: "every wall metric"})
	}
	ms = append(ms, []metricDef{
		{name: "core.snapshot_ms", unit: "ms", moves: "setup_s", flat: "every serving wall metric"},
		{name: "trace.run_s", unit: "s", moves: "throughput_rps on fleet-xl", flat: "serving workloads (absent)"},
		{name: "trace.new_fleet_s", unit: "s", moves: "setup_s on fleet-xl", flat: "serving workloads (absent)"},
		{name: "trace.requests", unit: "count", moves: "throughput_rps on fleet-xl (work per job)", flat: "serving workloads (absent)"},
		{name: "trace.full_cold_starts", unit: "count", moves: "throughput_rps on fleet-xl", flat: "serving workloads (absent)"},
		{name: "trace.clone_cold_starts", unit: "count", moves: "throughput_rps on fleet-xl", flat: "serving workloads (absent)"},
		{name: "trace.reaped", unit: "count", moves: "throughput_rps on fleet-xl", flat: "serving workloads (absent)"},
		{name: "trace.scaled_to_zero", unit: "count", moves: "throughput_rps on fleet-xl", flat: "serving workloads (absent)"},
		{name: "trace.images_evicted", unit: "count", moves: "throughput_rps on fleet-xl", flat: "serving workloads (absent)"},
		{name: "trace.retained_allocs_per_req", unit: "count", moves: "heap_peak_mb on fleet-xl", flat: "serving workloads (absent)"},
	}...)
	for _, b := range cpuBuckets {
		ms = append(ms, metricDef{name: "cpu_share." + b, unit: "%",
			moves: "locates self time the span ladder cannot reach (fleet-xl)", flat: "n/a"})
	}
	ms = append(ms, []metricDef{
		{name: "go.allocs_per_req", unit: "count", moves: "all workloads, most on native-http", flat: "n/a"},
		{name: "go.gc_cpu_fraction", unit: "ratio", moves: "all workloads, most on native-http", flat: "n/a"},
		{name: "model.e2e_p50_ms", unit: "virtual_ms", moves: "only a change that means to move the model", flat: "every wall metric"},
		{name: "model.e2e_p99_ms", unit: "virtual_ms", moves: "only a change that means to move the model", flat: "every wall metric"},
		{name: "ladder.unaccounted_pct", unit: "%", moves: "run validity: the composed ladder vs an untraced one-connection p50, within 10", flat: "n/a"},
		{name: "ladder.overhead_pct", unit: "%", moves: "run validity: tracing overhead", flat: "n/a"},
	}...)
	for i := range ms {
		switch ms[i].name {
		case "gateway.admitted", "trace.requests":
			ms[i].better = "higher" // work done, not cost
		default:
			ms[i].better = "lower"
		}
	}
	return ms
}()
