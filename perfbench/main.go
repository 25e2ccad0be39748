// Command perfbench is the repository's benchmark: it drives the real
// serving stack and fleet simulator on the workloads BENCHMARK.json lists
// (native-http, node-binary, fleet-xl), prints every end-to-end metric
// with its unit and sample count, checks every output, and (with --trace 1) replays
// the workload down a ladder of public entry points to attribute the time
// to layers.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload native-http --seed 1 --seconds 30 --trace 0
//
// Its own tests run with "go test ./..." inside perfbench/, a module of its
// own that reaches the program's internal packages through a replace
// directive.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is nonzero when
// any output check fails. BENCHMARK.json at the repository root lists the
// workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	out      string // directory for span dumps and CPU profiles
}

// budget returns the given share of the run's measuring time.
func (c runConfig) budget(share float64) time.Duration {
	return time.Duration(share * float64(c.seconds) * float64(time.Second))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 1, "workload seed: arrival draws, function choices and payload bytes")
	seconds := fs.Int("seconds", 10, "measuring time in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced ladder and prints per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for span dumps and CPU profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of native-http, node-binary, fleet-xl), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	cfg := runConfig{workload: wl.name, seed: *seed, seconds: *seconds, trace: *traced, out: *out}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	rep, err := wl.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	if err := rep.print(stdout, wl, cfg); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}
