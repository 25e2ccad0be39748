// The ladder's two bottom rungs run against bench-owned copies of each
// function: a faas.Platform (rung faas.invoke_once) and a bare warm process
// under the GH strategy (rungs isolation.begin, runtimes.invoke_on and
// core.restore), never against the server under load.

package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"groundhog/internal/core"
	"groundhog/internal/faas"
	"groundhog/internal/isolation"
	"groundhog/internal/kernel"
	"groundhog/internal/runtimes"
	"groundhog/internal/sim"
)

// serverSeed is the deployment seed server.New uses; bench-owned platforms
// use it too so they model the same containers.
const serverSeed = 1

// verifyEvery samples core.Manager.Verify on the bottom rung: the first
// restore and every verifyEvery-th after it are checked byte for byte.
const verifyEvery = 16

// benchTarget is one function's bench-owned platform and process: the
// ladder's two bottom rungs run against these, never against the server.
type benchTarget struct {
	prof  runtimes.Profile
	pl    *faas.Platform
	kern  *kernel.Kernel
	inst  *runtimes.Instance
	strat isolation.Strategy
	mgr   *core.Manager
	meter *sim.Meter

	coldMs, cloneMs, snapshotMs float64
	cloneLeaked                 int
}

// timeClones times three snapshot-clone scale-ups on a throwaway platform
// (cloning leaves an exported image behind, which the ladder's platform
// must not carry) and returns their median, plus the frames the torn-down
// platform left. The first clone also exports the image, so the median is
// a steady clone.
func timeClones(prof runtimes.Profile) (float64, int, error) {
	pl, err := faas.NewPlatform(kernel.Default(), prof, isolation.ModeGH, 1, serverSeed)
	if err != nil {
		return 0, 0, err
	}
	pl.CloneScaleOut = true
	var times []float64
	for k := 0; k < 3; k++ {
		t := time.Now()
		if _, err := pl.AddContainer(); err != nil {
			return 0, 0, fmt.Errorf("clone %s: %w", prof.DisplayName(), err)
		}
		times = append(times, ms(time.Since(t)))
	}
	for len(pl.Containers()) > 0 {
		pl.RemoveContainer(pl.Containers()[0])
	}
	pl.EvictImage()
	return median(times), pl.Kern.Phys.InUse(), nil
}

// newBenchTarget deploys prof twice: as a faas.Platform (timing a full
// cold start and steady clones) and as a bare warm process under the GH
// strategy (timing the snapshot).
func newBenchTarget(prof runtimes.Profile) (*benchTarget, error) {
	b := &benchTarget{prof: prof, meter: sim.NewMeter()}
	t0 := time.Now()
	pl, err := faas.NewPlatform(kernel.Default(), prof, isolation.ModeGH, 1, serverSeed)
	if err != nil {
		return nil, err
	}
	b.coldMs = ms(time.Since(t0))
	b.pl = pl
	if b.cloneMs, b.cloneLeaked, err = timeClones(prof); err != nil {
		return nil, err
	}

	b.kern = kernel.New(kernel.Default())
	if b.inst, err = runtimes.NewInstance(b.kern, prof, serverSeed); err != nil {
		return nil, err
	}
	b.inst.WarmUp(sim.NewMeter())
	if b.strat, err = isolation.New(isolation.ModeGH, b.kern, b.inst.Proc); err != nil {
		return nil, err
	}
	t1 := time.Now()
	if _, err := b.strat.Init(); err != nil {
		return nil, err
	}
	b.snapshotMs = ms(time.Since(t1))
	mh, ok := b.strat.(interface{ Manager() *core.Manager })
	if !ok {
		return nil, fmt.Errorf("GH strategy exposes no core.Manager")
	}
	b.mgr = mh.Manager()
	return b, nil
}

// teardown releases both deployments and returns the frames left on their
// kernels (0 unless memory leaked).
func (b *benchTarget) teardown() int {
	for len(b.pl.Containers()) > 0 {
		b.pl.RemoveContainer(b.pl.Containers()[0])
	}
	b.pl.EvictImage()
	b.kern.Exit(b.inst.Proc)
	if r, ok := b.strat.(isolation.Releaser); ok {
		r.Release()
	}
	return b.pl.Kern.Phys.InUse() + b.kern.Phys.InUse() + b.cloneLeaked
}

// bottom accumulates the two bottom rungs' outputs.
type bottom struct {
	faas, isoReq, begin, invokeOn, restore   []float64 // µs, indexed by request
	restoreNsPerMapped, restoreNsPerRestored []float64
	allocs                                   uint64
	stats                                    []core.RestoreStats
	verified, verifyFailures                 int
	firstVerifyErr                           string
	spans                                    []span
}

// allocCounter reads the process's cumulative heap allocation count.
type allocCounter []metrics.Sample

func newAllocCounter() allocCounter {
	return allocCounter{{Name: "/gc/heap/allocs:objects"}}
}

func (a allocCounter) read() uint64 {
	metrics.Read(a)
	return a[0].Value.Uint64()
}

// faasStep sends request i (function fn) through faas.InvokeOnce on the
// bench-owned platform.
func (bt *bottom) faasStep(targets []*benchTarget, i, fn int) error {
	t0 := time.Now()
	if _, err := targets[fn].pl.InvokeOnce(""); err != nil {
		return fmt.Errorf("faas rung, request %d: %w", i, err)
	}
	t1 := time.Now()
	bt.faas = append(bt.faas, us(t1.Sub(t0)))
	bt.spans = append(bt.spans, span{Name: spanFaas, Req: i, Start: t0, End: t1})
	return nil
}

// isoStep sends request i (function fn) through Begin/InvokeOn/End on the
// bench-owned process, verifying sampled restores.
func (bt *bottom) isoStep(targets []*benchTarget, i, fn int, allocs allocCounter) error {
	b := targets[fn]
	b.meter.Reset()
	t0 := time.Now()
	proc, err := b.strat.BeginRequest(b.meter)
	if err != nil {
		return fmt.Errorf("isolation rung, request %d: %w", i, err)
	}
	t1 := time.Now()
	b.inst.InvokeOn(proc, runtimes.Request{ID: uint64(i + 1), SizeKB: b.prof.InputKB}, b.meter)
	t2 := time.Now()
	a0 := allocs.read()
	t3 := time.Now()
	cl, err := b.strat.EndRequest()
	t4 := time.Now()
	bt.allocs += allocs.read() - a0
	if err != nil {
		return fmt.Errorf("restore, request %d: %w", i, err)
	}
	if cl.Restored {
		b.inst.NotifyRestored()
	}
	t5 := time.Now()
	bt.isoReq = append(bt.isoReq, us(t5.Sub(t0)))
	bt.begin = append(bt.begin, us(t1.Sub(t0)))
	bt.invokeOn = append(bt.invokeOn, us(t2.Sub(t1)))
	bt.restore = append(bt.restore, us(t4.Sub(t3)))
	bt.spans = append(bt.spans,
		span{Name: spanIsoReq, Req: i, Start: t0, End: t5},
		span{Name: spanIsoBegin, Parent: spanIsoReq, Req: i, Start: t0, End: t1},
		span{Name: spanInvokeOn, Parent: spanIsoReq, Req: i, Start: t1, End: t2},
		span{Name: spanRestore, Parent: spanIsoReq, Req: i, Start: t3, End: t4})
	st := cl.Restore
	bt.stats = append(bt.stats, st)
	restoreNs := float64(t4.Sub(t3))
	if st.MappedPages > 0 {
		bt.restoreNsPerMapped = append(bt.restoreNsPerMapped, restoreNs/float64(st.MappedPages))
	}
	if st.RestoredPages > 0 {
		bt.restoreNsPerRestored = append(bt.restoreNsPerRestored, restoreNs/float64(st.RestoredPages))
	}
	if len(bt.stats)%verifyEvery == 1 {
		bt.verified++
		if err := b.mgr.Verify(); err != nil {
			bt.verifyFailures++
			if bt.firstVerifyErr == "" {
				bt.firstVerifyErr = err.Error()
			}
		}
	}
	return nil
}

// record reports the bottom rungs' per-layer figures and checks.
func (bt *bottom) record(rep *report, targets []*benchTarget) {
	n := len(bt.faas)
	rep.layer["faas.invoke_us"] = value{v: median(bt.faas), n: n}
	rep.layer["faas.self_us"] = value{v: median(diff(bt.faas, bt.isoReq)), n: n}
	rep.layer["isolation.begin_us"] = value{v: median(bt.begin), n: n}
	rep.layer["isolation.self_us"] = value{v: median(isoSelf(bt)), n: n}
	rep.layer["runtimes.invoke_on_us"] = value{v: median(bt.invokeOn), n: n}
	rep.layer["core.restore_us"] = value{v: median(bt.restore), n: n}
	rep.layer["core.restore_p99_us"] = value{v: percentile(bt.restore, 99), n: n}
	rep.layer["core.restore_ns_per_mapped_page"] = value{v: median(bt.restoreNsPerMapped), n: len(bt.restoreNsPerMapped)}
	rep.layer["core.restore_ns_per_restored_page"] = value{v: median(bt.restoreNsPerRestored), n: len(bt.restoreNsPerRestored)}
	rep.layer["core.allocs_per_restore"] = value{v: float64(bt.allocs) / float64(max(n, 1)), n: n}

	var mapped, dirty, restored, dropped, ops, virt float64
	var phases core.PhaseBreakdown
	for _, st := range bt.stats {
		mapped += float64(st.MappedPages)
		dirty += float64(st.DirtyPages)
		restored += float64(st.RestoredPages)
		dropped += float64(st.DroppedPages)
		ops += float64(st.LayoutOps)
		virt += float64(st.Total)
		for k := range phases {
			phases[k] += st.PhaseDurations[k]
		}
	}
	per := func(x float64) float64 { return x / float64(max(len(bt.stats), 1)) }
	rep.layer["core.mapped_pages"] = value{v: per(mapped), n: len(bt.stats)}
	rep.layer["core.dirty_pages"] = value{v: per(dirty), n: len(bt.stats)}
	rep.layer["core.restored_pages"] = value{v: per(restored), n: len(bt.stats)}
	rep.layer["core.dropped_pages"] = value{v: per(dropped), n: len(bt.stats)}
	rep.layer["core.layout_ops"] = value{v: per(ops), n: len(bt.stats)}
	rep.layer["core.restore_virtual_us"] = value{v: per(virt) / 1e3, n: len(bt.stats)}
	for k, ph := range core.Phases {
		rep.layer[phaseMetric(ph)] = value{v: per(float64(phases[k])) / 1e3, n: len(bt.stats)}
	}

	var cold, clone, snap []float64
	for _, b := range targets {
		cold = append(cold, b.coldMs)
		clone = append(clone, b.cloneMs)
		snap = append(snap, b.snapshotMs)
	}
	rep.layer["faas.cold_start_ms"] = value{v: median(cold), n: len(cold)}
	rep.layer["faas.clone_ms"] = value{v: median(clone), n: 3 * len(clone)}
	rep.layer["core.snapshot_ms"] = value{v: median(snap), n: len(snap)}

	rep.check("restore_verify_isolation", bt.verifyFailures == 0 && bt.verified > 0,
		"%d of %d sampled restores failed core.Manager.Verify %s", bt.verifyFailures, bt.verified, bt.firstVerifyErr)
}

// isoSelf is the bottom rung's own time: the request span minus its three
// child spans.
func isoSelf(bt *bottom) []float64 {
	out := make([]float64, len(bt.isoReq))
	for i := range out {
		out[i] = bt.isoReq[i] - bt.begin[i] - bt.invokeOn[i] - bt.restore[i]
	}
	return out
}
