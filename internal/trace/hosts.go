package trace

import (
	"errors"
	"fmt"

	"groundhog/internal/faas"
	"groundhog/internal/faults"
	"groundhog/internal/kernel"
	"groundhog/internal/sim"
)

// HostView is one host's placement-relevant state as the fleet sees it at a
// scale-up decision: image locality (a host with the image clones in ~1 ms,
// one without it pays a transfer or the full pipeline), pool occupancy, and
// memory pressure. The fleet builds one HostView per eligible host (failed,
// draining and full hosts are filtered out before placement) and hands the
// slice to a Placer.
type HostView struct {
	// Host is the host's ID.
	Host int
	// HasImage reports whether the function's snapshot image is resident
	// on this host (its platform holds a live exported image).
	HasImage bool
	// CloneReady reports whether a scale-up on this host would take the
	// clone fast path right now — an image is resident or an eligible donor
	// is pooled (faas.Platform.CloneSourceReady).
	CloneReady bool
	// Pool is the function's container count on this host; Busy is how
	// many of those are mid-request, Free = Pool − Busy.
	Pool int
	Busy int
	Free int
	// Containers is the host's total container count across all
	// functions — the packing signal.
	Containers int
	// FramesInUse is the host's physical-memory occupancy in frames.
	FramesInUse int
	// PullInFlight reports whether an image transfer to this host is
	// already underway for this function; placing here joins that pull
	// (dedup) instead of starting a second one.
	PullInFlight bool
}

// Placer decides where a scale-up lands. Place returns an index into
// hosts — which is never empty and contains only eligible hosts — and must
// be deterministic given its inputs plus the placer's own state (a
// round-robin cursor is state; a clock or RNG is not), so fleet runs
// reproduce byte-identically. The slice is only valid during the call.
type Placer interface {
	// Name identifies the placer in results and benchmark output.
	Name() string
	// Place picks hosts[i] for the next container of the function
	// described by sig.
	Place(sig Signals, hosts []HostView) int
}

// LocalityAware places scale-ups by start-cost class: a host that can
// clone right now (image resident or donor pooled) beats a host whose pull
// is still in flight (joining it costs only the remaining wait), which
// beats a host that must pay a fresh transfer or the full Fig. 1 pipeline.
// Ties break to the host with the fewest busy containers for this
// function, then to the lowest host ID.
type LocalityAware struct{}

// Name implements Placer.
func (LocalityAware) Name() string { return "locality" }

// Place implements Placer.
func (LocalityAware) Place(_ Signals, hosts []HostView) int {
	best, bestClass, bestBusy := 0, placementClass(hosts[0]), hosts[0].Busy
	for i := 1; i < len(hosts); i++ {
		c := placementClass(hosts[i])
		if c < bestClass || (c == bestClass && hosts[i].Busy < bestBusy) {
			best, bestClass, bestBusy = i, c, hosts[i].Busy
		}
	}
	return best
}

// placementClass ranks a host by what the next container costs there:
// 0 = clone now, 1 = join an in-flight pull, 2 = transfer or full pipeline.
func placementClass(h HostView) int {
	switch {
	case h.CloneReady:
		return 0
	case h.PullInFlight:
		return 1
	default:
		return 2
	}
}

// RoundRobin cycles placements across the eligible hosts regardless of
// image locality — the spread-maximizing strawman. After a pull lands on
// every host it behaves like locality (everyone clones), so its cost is
// front-loaded into N transfers.
type RoundRobin struct {
	next int
}

// Name implements Placer.
func (*RoundRobin) Name() string { return "round-robin" }

// Place implements Placer.
func (rr *RoundRobin) Place(_ Signals, hosts []HostView) int {
	i := rr.next % len(hosts)
	rr.next++
	return i
}

// PackFirst fills the lowest-ID eligible host before spilling to the next —
// the consolidation-maximizing policy (fewest hosts touched, so the fewest
// images materialized, at the price of no spare warm capacity elsewhere
// when that host fails). Eligibility filtering has already applied the
// per-host capacity cap, so index 0 is always the fullest allowed choice.
type PackFirst struct{}

// Name implements Placer.
func (PackFirst) Name() string { return "pack-first" }

// Place implements Placer.
func (PackFirst) Place(Signals, []HostView) int { return 0 }

// Placers returns fresh instances of the three built-in placers, in the
// order the cluster benchmark compares them.
func Placers() []Placer {
	return []Placer{LocalityAware{}, &RoundRobin{}, PackFirst{}}
}

// HostStats is one host's view of the run.
type HostStats struct {
	ID      int
	Failed  bool
	Drained bool
	// Placements counts containers placed on this host across all
	// functions, warm floors included.
	Placements int
	// PeakFrames and EndFrames are this host's physical-memory high-water
	// mark and post-drain residue (exact, from its own PhysMem).
	PeakFrames int
	EndFrames  int
	// ImagesHeld counts functions whose snapshot image is resident on this
	// host at the end of the run.
	ImagesHeld int
}

// host is one simulated machine: its own physical memory and kernel (and so
// its own fault-injection streams), plus its running stats.
type host struct {
	kern  *kernel.Kernel
	stats HostStats
}

// alive reports whether the host takes placements: failed and drained
// hosts leave the rotation for good.
func (h *host) alive() bool { return !h.stats.Failed && !h.stats.Drained }

// pool returns (creating on first use) the function's platform on a host.
func (f *Fleet) pool(fs *fnState, id int) (*faas.Platform, error) {
	if pl := fs.pools[id]; pl != nil {
		return pl, nil
	}
	// The deployed profile is the measured one through the runtime overlay
	// — a zero overlay returns it unchanged, byte for byte. Zero
	// constructor containers so the store kind can be set first.
	prof := fs.load.Runtime.Apply(fs.load.Entry.Prof)
	pl, err := faas.NewPlatformOn(f.engine, f.hosts[id].kern, prof, f.cfg.Mode, 0, fs.seed+uint64(id)*104729)
	if err != nil {
		return nil, err
	}
	pl.Store = f.cfg.Store
	pl.CloneScaleOut = f.cfg.CloneScaleOut
	fs.pools[id] = pl
	return pl, nil
}

// eligibleHosts builds the placement views for one function in the reused
// scratch slice: live hosts with capacity headroom, in host-ID order.
func (f *Fleet) eligibleHosts(fs *fnState, now sim.Time) []HostView {
	f.views = f.views[:0]
	for id, h := range f.hosts {
		if !h.alive() {
			continue
		}
		v := HostView{Host: id, FramesInUse: h.kern.Phys.InUse()}
		for _, other := range f.fns {
			if pl := other.pools[id]; pl != nil {
				v.Containers += len(pl.Containers())
			}
		}
		if f.cfg.HostCapacity > 0 && v.Containers >= f.cfg.HostCapacity {
			continue
		}
		_, v.PullInFlight = f.registry.PendingPull(fs.stats.Name, id, now)
		if pl := fs.pools[id]; pl != nil {
			v.Pool = len(pl.Containers())
			for _, c := range pl.Containers() {
				if c.Ready() > now {
					v.Busy++
				}
			}
			v.Free = v.Pool - v.Busy
			if !v.PullInFlight {
				_, _, v.HasImage = pl.ExportedImage()
				v.CloneReady = pl.CloneSourceReady()
			}
		}
		f.views = append(f.views, v)
	}
	return f.views
}

// addWarmContainer places the function's pre-warmed floor container, which
// runs the full pipeline off the clock, as in the faas constructor path.
func (f *Fleet) addWarmContainer(fs *fnState) error {
	views := f.eligibleHosts(fs, f.engine.Now())
	if len(views) == 0 {
		return fmt.Errorf("trace: no eligible host for %s's warm floor", fs.stats.Name)
	}
	id := views[f.placer.Place(f.signals(fs, f.engine.Now()), views)].Host
	pl, err := f.pool(fs, id)
	if err != nil {
		return err
	}
	if _, err := pl.AddWarmContainer(); err != nil {
		return err
	}
	fs.stats.PlacementsPerHost[id]++
	f.hosts[id].stats.Placements++
	return nil
}

// addContainer places one scale-up and starts it on the cheapest path its
// host allows: join a pull already in flight to the host, clone locally,
// pull the image from another host and clone, or run the full pipeline. It
// reports whether the container was added; on false a retry is scheduled
// or the fleet failed.
func (f *Fleet) addContainer(fs *fnState, sig Signals, now sim.Time) bool {
	views := f.eligibleHosts(fs, now)
	if len(views) == 0 {
		f.retry(fs) // every live host is full: back off until one frees up
		return false
	}
	id := views[f.placer.Place(sig, views)].Host
	pl, err := f.pool(fs, id)
	if err != nil {
		f.fail(err)
		return false
	}

	// A pending pull means its template was already adopted: the new
	// container clones from it and waits out the transfer's remainder, with
	// no second charge. A faulted pull's spent time is charged to the full
	// pipeline that replaces it.
	var delay sim.Duration
	transfer, dedup := false, false
	if done, pending := f.registry.PendingPull(fs.stats.Name, id, now); pending {
		delay, dedup = done.Sub(now), true
	} else if !pl.CloneSourceReady() {
		if src := f.findSource(fs, id); src != nil {
			delay, err = f.registry.Pull(fs.stats.Name, id, src, pl, f.hosts[id].kern, now)
			switch {
			case err == nil:
				fs.stats.Transfers++
				transfer = true
			case errors.Is(err, faults.ErrInjected):
				fs.stats.TransferFaults++
			default:
				f.fail(err)
				return false
			}
		}
	}

	c, err := pl.AddContainer()
	if err != nil {
		if faas.IsTransient(err) {
			// The platform's own retry budget is already spent.
			f.retry(fs)
			return false
		}
		f.fail(err)
		return false
	}
	fs.coldFailStreak = 0
	pl.ChargeColdStartDelay(c, delay, transfer)

	cold := c.ColdStart()
	st := fs.stats
	st.ColdStarts++
	st.ColdStartCost += cold.Total
	st.PlacementsPerHost[id]++
	f.hosts[id].stats.Placements++
	if cold.ClonedFrom < 0 {
		st.FullColdStarts++
		st.FullColdLatency.AddDuration(cold.Total)
	} else {
		st.CloneColdStarts++
		st.CloneLatency.AddDuration(cold.Total)
		switch {
		case transfer:
			st.TransferColdStarts++
			st.TransferCost += cold.Transfer
		case dedup:
			st.TransferDedups++
			f.registry.NoteDedup()
		}
	}
	f.engine.At(c.Ready(), fs.redispatch)
	return true
}

// findSource returns another live host's platform that can source a
// transfer of the function's image to host dst: one already holding the
// exported image, or — failing that — one with a pooled clone donor, whose
// export Registry.Pull charges into the first pull (exactly as the clone
// path amortizes it into the first local clone). Nil when no other host
// can source; never dst's own platform.
func (f *Fleet) findSource(fs *fnState, dst int) *faas.Platform {
	var donor *faas.Platform
	for id, h := range f.hosts {
		pl := fs.pools[id]
		if id == dst || pl == nil || !h.alive() {
			continue
		}
		if _, _, ok := pl.ExportedImage(); ok {
			return pl
		}
		if donor == nil && pl.CloneSourceReady() {
			donor = pl
		}
	}
	return donor
}
