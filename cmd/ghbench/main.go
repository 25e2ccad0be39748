// Command ghbench regenerates the paper's tables and figures from the
// simulated testbed. Each experiment prints a text table whose rows/series
// mirror the corresponding figure; the experiments' shape criteria are
// pinned by the tests in internal/experiments.
//
// Usage:
//
//	ghbench -e fig3-left            # one experiment
//	ghbench -e all -quick           # everything, reduced scale
//	ghbench -e bench-restore        # restore hot-path microbenchmark (+JSON)
//	ghbench -list                   # enumerate experiments
//
// Every bench-* experiment also writes its summary to -json-dir as
// BENCH_<name>.json, the experiment name minus "bench-" with dashes turned
// to underscores: bench-fleet-xl writes BENCH_fleet_xl.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"groundhog/internal/catalog"
	"groundhog/internal/experiments"
	"groundhog/internal/metrics"
)

// experimentNames lists the runnable experiments in presentation order.
var experimentNames = []string{
	"fig1", "fig3-left", "fig3-right", "fig4", "fig5", "fig6", "fig7", "fig8",
	"table1", "table2", "table3", "headline",
	"ablation-uffd", "ablation-coalesce", "ablation-trust", "ablation-statestore",
	"ablation-timevirt", "loadsweep", "related-work", "fleet", "bench-restore",
	"bench-coldstart", "bench-fleet", "bench-policy", "bench-faults",
	"bench-fleet-xl", "bench-cluster", "bench-scenarios",
}

func main() {
	var (
		exp   = flag.String("e", "", "experiment to run (see -list), or 'all'")
		quick = flag.Bool("quick", false, "reduced scale (fast)")
		max   = flag.Int("benchmarks", 0, "limit number of catalog benchmarks (0 = all 58)")
		seed  = flag.Uint64("seed", 1, "simulation seed")
		list  = flag.Bool("list", false, "list experiments and exit")
		dir   = flag.String("json-dir", ".", "directory bench-* experiments write BENCH_<name>.json to (empty disables)")
	)
	flag.Parse()

	if *list {
		for _, n := range experimentNames {
			fmt.Println(n)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "ghbench: -e <experiment> required; try -list")
		os.Exit(2)
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
		cfg.MaxBenchmarks = 0 // -benchmarks controls truncation explicitly
	}
	cfg.Seed = *seed
	if *max > 0 {
		cfg.MaxBenchmarks = *max
	}

	names := []string{*exp}
	if *exp == "all" {
		names = experimentNames
	}
	if err := run(cfg, names, *quick, *dir); err != nil {
		fmt.Fprintf(os.Stderr, "ghbench: %v\n", err)
		os.Exit(1)
	}
}

// run executes the named experiments, computing the shared 58-benchmark
// dataset at most once and writing each benchmark's JSON summary to
// jsonDir.
func run(cfg experiments.Config, names []string, quick bool, jsonDir string) error {
	var ds *experiments.Dataset
	dataset := func() (*experiments.Dataset, error) {
		if ds != nil {
			return ds, nil
		}
		fmt.Fprintln(os.Stderr, "ghbench: measuring all benchmarks under all configurations (one-time)...")
		var err error
		ds, err = experiments.RunFull(cfg)
		return ds, err
	}

	for _, name := range names {
		var (
			tb  *metrics.Table
			err error
		)
		switch strings.ToLower(name) {
		case "fig1":
			e, lerr := catalog.Lookup("get-time (p)")
			if lerr != nil {
				return lerr
			}
			tb, err = experiments.Fig1ColdStart(cfg, e.Prof)
		case "fig3-left":
			tb, err = experiments.Fig3Left(cfg)
		case "fig3-right":
			tb, err = experiments.Fig3Right(cfg)
		case "fig4":
			d, derr := dataset()
			if derr != nil {
				return derr
			}
			fmt.Println(experiments.Fig4E2E(d).Render())
			tb = experiments.Fig4Invoker(d)
		case "fig5":
			d, derr := dataset()
			if derr != nil {
				return derr
			}
			tb = experiments.Fig5(d)
		case "fig6":
			tb, err = experiments.Fig6(cfg)
		case "fig7":
			tb, err = experiments.Fig7(cfg)
		case "fig8":
			tb, err = experiments.Fig8(cfg)
		case "table1":
			d, derr := dataset()
			if derr != nil {
				return derr
			}
			tb = experiments.Table1(d)
		case "table2":
			d, derr := dataset()
			if derr != nil {
				return derr
			}
			tb = experiments.Table2(d)
		case "table3":
			d, derr := dataset()
			if derr != nil {
				return derr
			}
			tb = experiments.Table3(d)
		case "headline":
			d, derr := dataset()
			if derr != nil {
				return derr
			}
			tb = experiments.Headline(d)
		case "ablation-uffd":
			tb, err = experiments.AblationUFFD(cfg)
		case "ablation-coalesce":
			tb, err = experiments.AblationCoalesce(cfg)
		case "ablation-trust":
			tb, err = experiments.AblationTrust(cfg)
		case "loadsweep":
			tb, err = experiments.LoadSweep(cfg)
		case "ablation-statestore":
			tb, err = experiments.AblationStateStore(cfg)
		case "related-work":
			tb, err = experiments.RelatedWork(cfg)
		case "fleet":
			tb, err = experiments.Fleet(cfg)
		case "ablation-timevirt":
			tb, err = experiments.AblationTimeVirt(cfg)
		default:
			key := strings.ToLower(name)
			bench, ok := benches[key]
			if !ok {
				return fmt.Errorf("unknown experiment %q (try -list)", name)
			}
			var summary any
			if tb, summary, err = bench(cfg, quick); err == nil {
				err = writeBenchJSON(jsonDir, key, summary)
			}
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Println(tb.Render())
	}
	return nil
}

// writeBenchJSON marshals the summary of benchmark name (bench-fleet-xl) to
// dir as BENCH_fleet_xl.json (empty dir disables), logging the write; every
// bench-* experiment shares it so the artifact format cannot diverge.
func writeBenchJSON(dir, name string, v any) error {
	if dir == "" {
		return nil
	}
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+strings.ReplaceAll(strings.TrimPrefix(name, "bench-"), "-", "_")+".json")
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ghbench: wrote %s\n", path)
	return nil
}

// bench runs one benchmark experiment, returning its console table and the
// summary writeBenchJSON commits.
type bench func(cfg experiments.Config, quick bool) (*metrics.Table, any, error)

// benches holds the bench-* experiments. bench/README.md documents each
// summary's schema; the committed baselines pin it.
var benches = map[string]bench{
	// The steady-state restore microbenchmark, one entry per write tracker
	// (soft-dirty, UFFD): wall time and allocation rate of both hot paths.
	"bench-restore": func(cfg experiments.Config, quick bool) (*metrics.Table, any, error) {
		heapPages, iters := 4096, 2000
		if quick {
			heapPages, iters = 1024, 500
		}
		res, err := experiments.RestoreBenchVariants(cfg, heapPages, 128, iters)
		if err != nil {
			return nil, nil, err
		}
		return experiments.RestoreBenchTable(res...), res, nil
	},
	// Full Fig. 1 cold start vs. snapshot clone under both StateStore kinds
	// (§5.5), one entry per store. Deterministic virtual time, so quick
	// mode needs no reduction.
	"bench-coldstart": func(cfg experiments.Config, _ bool) (*metrics.Table, any, error) {
		tb, res, err := experiments.ColdStartScaleOut(cfg)
		return tb, res, err
	},
	// The bursty multi-function fleet with keep-alive-only scaling vs.
	// clone scale-out plus scale-to-zero image eviction.
	"bench-fleet": single(experiments.FleetBench, experiments.FleetBenchTable),
	// The same fleet once per scheduling policy: the cost/latency frontier.
	"bench-policy": single(experiments.PolicyBench, experiments.PolicyBenchTable),
	// The fleet with every fault seam armed: the recovery invariants.
	"bench-faults": single(experiments.FaultsBench, experiments.FaultsBenchTable),
	// The million-request engine benchmark; the committed baseline uses the
	// full window, quick shrinks it for local smoke runs.
	"bench-fleet-xl": single(experiments.FleetXLBench, experiments.FleetXLBenchTable),
	// Multi-host placement, one entry per placer, through a host failure,
	// a drain and a fault plan.
	"bench-cluster": func(cfg experiments.Config, quick bool) (*metrics.Table, any, error) {
		res, err := experiments.ClusterBench(cfg, quick)
		if err != nil {
			return nil, nil, err
		}
		return experiments.ClusterBenchTable(res), res, nil
	},
	// Chains with fan-out, stateful functions and runtime overlays.
	"bench-scenarios": single(experiments.ScenariosBench, experiments.ScenariosBenchTable),
}

// single adapts a benchmark with one result; its summary is a one-element
// array, the shape the baselines pin.
func single[R any](run func(experiments.Config, bool) (R, error), table func(R) *metrics.Table) bench {
	return func(cfg experiments.Config, quick bool) (*metrics.Table, any, error) {
		res, err := run(cfg, quick)
		if err != nil {
			return nil, nil, err
		}
		return table(res), []R{res}, nil
	}
}
