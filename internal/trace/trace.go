// Package trace simulates a multi-function FaaS fleet: several deployed
// functions spread over one or more invoker hosts, each function with its
// own arrival process, dynamically scaled container pools with keep-alive
// expiry, cold starts on demand, and FIFO queueing when the pool is
// saturated.
//
// The paper motivates Groundhog with exactly this setting (§1-§2:
// multiplexed tenants, Azure-style short functions [39], idle capacity
// between requests); the fleet simulation quantifies what request isolation
// costs a *provider* — latency distributions, cold-start rates, restore
// counts, and memory — rather than a single benchmark container.
//
// With Config.Hosts above one, every host owns its own physical memory and
// kernel, a Placer picks the host for each scale-up, and a Registry moves
// snapshot images between hosts: a host holding a function's image clones
// a container in about a millisecond, a host without it first pays a
// per-frame transfer (kernel.CostModel.ImageTransferBase/PerFrame), and a
// cold host runs the full Fig. 1 pipeline. Host failure and drain events
// take hosts out of the rotation mid-run.
package trace

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"groundhog/internal/catalog"
	"groundhog/internal/core"
	"groundhog/internal/faas"
	"groundhog/internal/faults"
	"groundhog/internal/isolation"
	"groundhog/internal/kernel"
	"groundhog/internal/metrics"
	"groundhog/internal/runtimes"
	"groundhog/internal/sim"
)

// FunctionLoad describes one deployed function's workload.
type FunctionLoad struct {
	Entry catalog.Entry
	// RatePerSec is the mean arrival rate. It may be zero only for a
	// function referenced by a Config.Chains stage: such a function serves
	// chain invocations and has no open-loop arrival process of its own.
	RatePerSec float64
	// Burstiness is the coefficient of variation of interarrival times:
	// 1 is Poisson; >1 produces bursts via a hyperexponential mixture
	// (Azure traces show highly bursty per-function arrivals [39]).
	Burstiness float64
	// SLOTargetMs overrides Config.SLOTargetMs for this function (0 uses
	// the fleet-wide target). SLO-aware policies read it via
	// Signals.SLOTargetMs.
	SLOTargetMs float64

	// DiurnalAmplitude and DiurnalPeriod modulate the arrival rate
	// sinusoidally around RatePerSec, as production FaaS traffic swings
	// between peak and trough hours: the instantaneous rate at offset t into
	// the window is RatePerSec * (1 + A*sin(2*pi*t/P + Phase)). Amplitude
	// must lie in [0, 1) — the rate stays positive — and modulation is armed
	// only when both amplitude and period are positive, so the zero value
	// leaves the arrival process exactly as before (stationary, and
	// bit-identical to loads predating these fields). DiurnalPhase shifts
	// the cycle (radians) so a mix of functions can peak at different times.
	DiurnalAmplitude float64
	DiurnalPeriod    sim.Duration
	DiurnalPhase     float64

	// Runtime is an optional packaging overlay (tinyFaaS's binary/python/
	// node split): the function's measured profile is deployed through
	// runtimes.RuntimeProfile.Apply, scaling its footprint and dirty rate
	// and lengthening its warm-up. The zero value applies nothing — the
	// deployed profile is byte-identical to Entry.Prof.
	Runtime runtimes.RuntimeProfile

	// Policy overrides the fleet's scaling policy for this function (nil
	// uses Config.Policy). A chain's stages can then hold warm capacity
	// selectively — e.g. an SLO-aware policy on the latency-critical stage
	// while the rest of the fleet scales to zero on fixed TTLs.
	Policy Policy
}

// Config parameterizes a fleet run.
type Config struct {
	Cost kernel.CostModel
	Mode isolation.Mode
	Seed uint64

	// Hosts is the number of simulated hosts, each with its own physical
	// memory, kernel, fault-injection streams and per-function pools. Zero
	// or one is a single shared host.
	Hosts int
	// HostCapacity caps one host's total container count across all
	// functions (0 = unlimited); a full host takes no placements.
	HostCapacity int
	// Placer decides which host each scale-up lands on; nil selects
	// LocalityAware.
	Placer Placer

	// MaxContainersPerFunction caps each function's pool, summed over
	// hosts.
	MaxContainersPerFunction int
	// KeepAlive is the idle TTL after which a warm container is reaped.
	KeepAlive sim.Duration
	// Window is the simulated duration.
	Window sim.Duration

	// CloneScaleOut routes scale-up through the snapshot-clone fast path
	// (faas.Platform.CloneScaleOut): after a function's first full cold
	// start, later containers are spawned from its snapshot image instead
	// of replaying the Fig. 1 pipeline. Modes without a snapshot (BASE,
	// fork) silently fall back to full cold starts.
	CloneScaleOut bool

	// ScaleToZeroAfter, when positive, lets the reaper take a function's
	// pool all the way to zero: once the last container has been idle
	// longer than this TTL (and the queue is empty), it is removed and the
	// deployment's exported snapshot image is evicted, returning its
	// materialized frames to the kernel. The next request pays a full cold
	// start (and, under CloneScaleOut, re-exports the image on the next
	// scale-up). Must be at least KeepAlive; zero keeps the warm floor
	// forever (the classic keep-alive policy). Only consulted when Policy
	// is nil.
	ScaleToZeroAfter sim.Duration

	// Policy is the fleet's scaling policy. Nil selects
	// FixedTTL{KeepAlive, ScaleToZeroAfter} — bit-compatible with the
	// classic two-tier reaper, so existing baselines hold. KeepAlive also
	// sets the policy tick cadence (KeepAlive/2) regardless of Policy.
	Policy Policy

	// SLOTargetMs is the fleet-wide p95 E2E target in milliseconds that
	// SLO-aware policies aim for (FunctionLoad.SLOTargetMs overrides it
	// per function; 0 = no target).
	SLOTargetMs float64

	// Store selects the StateStore kind (§5.5) for every deployment's
	// snapshotting strategy; the zero value is the paper's eager copy
	// store.
	Store core.StoreKind

	// SketchStats selects bounded-memory percentile sketches
	// (metrics.Sketch, 1% relative accuracy) for the per-function latency
	// recorders instead of the exact sample-retaining summaries. A
	// million-request fleet then holds a few thousand histogram buckets per
	// function rather than millions of float64 samples. Off by default:
	// exact summaries keep the committed benchmark baselines byte-identical
	// and give small-N experiment paths exact percentiles.
	SketchStats bool

	// Faults arms deterministic fault injection across every layer of the
	// fleet's stack — kernel spawn-from-image, core export/restore, faas
	// cold starts and requests, image transfers (see internal/faults). Host
	// i draws from the plan with its seed XORed with i·φ, so host 0 runs
	// the plan as given and every host's streams are independent. The zero
	// Plan leaves every seam disarmed: the run is bit-identical to a fleet
	// without this field.
	Faults faults.Plan

	// Events schedules fleet-level failure events at fixed offsets into the
	// window — container-crash waves, image corruption, drains. Events are
	// independent of the fault plan: they fire even on a disarmed fleet.
	Events []Event

	// Chains adds composed workloads: each Chain has its own arrival
	// process, and every arrival walks the chain's stages, dispatched
	// stage-by-stage on completion events. Empty leaves the fleet's
	// behavior exactly as before the field existed.
	Chains []Chain
}

// ChainStage is one stage of a Chain: the function invocations it fans out
// to, all dispatched in parallel at the instant the previous stage
// completed. The stage completes when its last invocation's response
// completes. A function may appear more than once to be invoked twice.
type ChainStage struct {
	Functions []string
}

// Chain is a composed request — an ordered pipeline of stages over the
// fleet's deployed functions, tinyFaaS-style function composition. Each
// arrival invokes stage 0; every later stage starts on the completion event
// of the one before it, so queueing and cold starts anywhere in the
// pipeline stretch the whole chain. The end-to-end SLO spans the chain:
// ChainStats.E2E records first-arrival to last-completion.
//
// Chain invocations flow through the same per-function queues, pools, and
// stats as open-loop arrivals — a stage invocation counts in its function's
// Arrived/Requests, so the fleet's no-lost-request invariant extends to
// every stage, and a chain can therefore never be *partially* lost.
type Chain struct {
	// Name labels the chain in results.
	Name string
	// Stages are executed in order; each names at least one function from
	// the fleet's loads.
	Stages []ChainStage
	// RatePerSec and Burstiness shape the chain's own arrival process,
	// exactly as FunctionLoad's fields do.
	RatePerSec float64
	Burstiness float64
	// SLOTargetMs is the end-to-end target for the whole chain in
	// milliseconds (0 = no target). ChainStats.SLOMet judges the chain's
	// p95 against it after the run.
	SLOTargetMs float64
}

// Validate checks one chain's shape (function-name resolution happens in
// NewFleet, where the loads are known).
func (ch Chain) Validate() error {
	if ch.Name == "" {
		return fmt.Errorf("trace: chain with empty name")
	}
	if len(ch.Stages) == 0 {
		return fmt.Errorf("trace: chain %s: no stages", ch.Name)
	}
	for i, st := range ch.Stages {
		if len(st.Functions) == 0 {
			return fmt.Errorf("trace: chain %s: stage %d has no functions", ch.Name, i)
		}
	}
	if ch.RatePerSec <= 0 {
		return fmt.Errorf("trace: chain %s: non-positive rate", ch.Name)
	}
	if ch.Burstiness < 0 {
		return fmt.Errorf("trace: chain %s: negative burstiness", ch.Name)
	}
	if ch.SLOTargetMs < 0 {
		return fmt.Errorf("trace: chain %s: negative SLO target", ch.Name)
	}
	return nil
}

// ChainStats aggregates one chain's outcomes.
type ChainStats struct {
	Name string
	// Started counts chain arrivals; Completed counts chains whose final
	// stage completed. After the drain every started chain has run to
	// completion — requests are delayed by faults, never dropped — so
	// Lost (= Started − Completed) is pinned at zero: the
	// chain-conservation invariant.
	Started   int
	Completed int
	Lost      int
	// SLOTargetMs echoes the configured end-to-end target; SLOMet reports
	// whether the chain's p95 E2E met it (true when no target is set).
	SLOTargetMs float64
	SLOMet      bool
	// E2E records each completed chain's first-arrival-to-last-completion
	// latency in milliseconds. Completion times are virtual response
	// completions (faas.RequestStats.Completed) — per-function E2E
	// additionally includes the platform-path overhead, which does not
	// delay the next stage's dispatch.
	E2E metrics.Recorder
}

// EventKind selects a fleet failure event.
type EventKind string

// The fleet failure events.
const (
	// EventCrashWave kills every targeted container at once (a host-level
	// incident); queued and future requests recover through cold starts.
	EventCrashWave EventKind = "crash-wave"
	// EventCorruptImage marks the targeted functions' exported snapshot
	// images corrupted; the next clone attempt detects the checksum
	// mismatch, evicts the image, and falls back to the full pipeline.
	EventCorruptImage EventKind = "corrupt-image"
	// EventDrain gracefully removes the targeted containers and evicts
	// their images (host maintenance); the pools rebuild on demand.
	EventDrain EventKind = "drain"
	// EventHostFail crashes one host: its containers die, its images and
	// in-flight pulls are released, and it leaves the placement rotation
	// for good. Queued requests re-dispatch onto the survivors.
	EventHostFail EventKind = "host-fail"
	// EventHostDrain gracefully retires one host: the same cleanup as a
	// failure, counted as Drained instead of EventCrashes.
	EventHostDrain EventKind = "host-drain"
)

// Event is one scheduled fleet failure.
type Event struct {
	// At is the event's offset into the window (0 <= At < Window).
	At sim.Duration
	// Kind selects the failure.
	Kind EventKind
	// Function targets one function by display name; empty targets all.
	// Host events ignore it.
	Function string
	// Host is the host a host-fail or host-drain event targets.
	Host int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MaxContainersPerFunction < 1 {
		return fmt.Errorf("trace: need at least one container per function")
	}
	if c.Window <= 0 {
		return fmt.Errorf("trace: non-positive window")
	}
	if c.KeepAlive <= 0 {
		return fmt.Errorf("trace: non-positive keep-alive")
	}
	if c.ScaleToZeroAfter < 0 {
		return fmt.Errorf("trace: negative scale-to-zero TTL")
	}
	if c.ScaleToZeroAfter > 0 && c.ScaleToZeroAfter < c.KeepAlive {
		return fmt.Errorf("trace: scale-to-zero TTL %v below keep-alive %v", c.ScaleToZeroAfter, c.KeepAlive)
	}
	if c.SLOTargetMs < 0 {
		return fmt.Errorf("trace: negative SLO target")
	}
	if c.Hosts < 0 || c.HostCapacity < 0 {
		return fmt.Errorf("trace: negative host count or capacity")
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	down := map[int]bool{}
	for _, ev := range c.Events {
		if ev.At < 0 || sim.Time(ev.At) >= sim.Time(c.Window) {
			return fmt.Errorf("trace: event %q at %v outside the window", ev.Kind, ev.At)
		}
		switch ev.Kind {
		case EventCrashWave, EventCorruptImage, EventDrain:
		case EventHostFail, EventHostDrain:
			if ev.Host < 0 || ev.Host >= c.hostCount() {
				return fmt.Errorf("trace: event %q targets unknown host %d", ev.Kind, ev.Host)
			}
			down[ev.Host] = true
		default:
			return fmt.Errorf("trace: unknown event kind %q", ev.Kind)
		}
	}
	if len(down) >= c.hostCount() {
		// Failed and drained hosts never return; with every host down the
		// queues could never drain and dispatch would back off forever.
		return fmt.Errorf("trace: events take down all %d hosts; at least one must survive", c.hostCount())
	}
	seen := map[string]bool{}
	for _, ch := range c.Chains {
		if err := ch.Validate(); err != nil {
			return err
		}
		if seen[ch.Name] {
			return fmt.Errorf("trace: duplicate chain %s", ch.Name)
		}
		seen[ch.Name] = true
	}
	return nil
}

// hostCount is the number of simulated hosts (Hosts, at least one).
func (c Config) hostCount() int { return max(c.Hosts, 1) }

// FunctionStats aggregates one function's outcomes.
type FunctionStats struct {
	Name string
	// Arrived counts every request that entered the queue; after the drain,
	// Arrived == Requests is the no-request-silently-dropped invariant —
	// crashes and cold-start faults delay requests, they never lose them.
	Arrived  int
	Requests int
	// ColdStarts counts every scale-up (FullColdStarts + CloneColdStarts).
	ColdStarts int
	// FullColdStarts ran the complete Fig. 1 pipeline; CloneColdStarts took
	// the snapshot-clone fast path (Config.CloneScaleOut).
	FullColdStarts  int
	CloneColdStarts int
	// TransferColdStarts counts the clones that first pulled the image from
	// another host — a subset of CloneColdStarts, zero on one host.
	TransferColdStarts int
	// ColdStartCost is the summed virtual cost of all cold starts — the
	// provider's total scale-up bill for this function, transfer waits
	// included; TransferCost is the part spent on cross-host pulls.
	ColdStartCost sim.Duration
	TransferCost  sim.Duration
	// Transfers, TransferDedups and TransferFaults count the function's
	// pull activity: pulls started, scale-ups that joined a pull already in
	// flight to their host, and pulls aborted by an injected transfer fault
	// (the scale-up then ran the full pipeline).
	Transfers      int
	TransferDedups int
	TransferFaults int
	// PlacementsPerHost counts the function's containers placed on each
	// host, warm floor included, indexed by host ID.
	PlacementsPerHost []int
	Restores          int
	Reaped            int
	// ScaledToZero counts the times the reaper took the pool to zero;
	// ImagesEvicted counts the exported snapshot images actually released —
	// at scale-to-zero, or at a later policy tick once a kept image stops
	// paying for itself.
	ScaledToZero  int
	ImagesEvicted int

	// Failure and recovery accounting (all zero on a fault-free run).
	// Crashes counts containers lost mid-request (the request retried on
	// another container); RestoreFaults counts containers lost to a failed
	// post-response restore (the response was already delivered).
	Crashes       int
	RestoreFaults int
	// ColdStartRetries / RetryBackoff / CloneFallbacks / DonorsQuarantined /
	// ImageIntegrityFailures mirror the platform's RecoveryStats: in-pipeline
	// retries (and their summed backoff), clone attempts that fell back to
	// the full pipeline, donors quarantined after repeated clone failures,
	// and checksum mismatches detected at clone time.
	ColdStartRetries       int
	RetryBackoff           sim.Duration
	CloneFallbacks         int
	DonorsQuarantined      int
	ImageIntegrityFailures int
	// EventCrashes and Drained count containers removed by scheduled
	// crash-wave and drain events (host-fail and host-drain included).
	EventCrashes int
	Drained      int

	// StateGets and StatePuts total the function's external state-store
	// operations (zero unless the profile declares state traffic; their
	// virtual cost is already inside the latency recorders).
	StateGets int
	StatePuts int

	// E2E (ms, including queueing and cold-start waits) and Queue (ms
	// waiting for a container) record every request's latency. The
	// recorders are exact sample-retaining summaries by default, or
	// bounded-memory sketches under Config.SketchStats; NewFleet
	// initializes them — a zero FunctionStats has nil recorders.
	E2E   metrics.Recorder
	Queue metrics.Recorder
	// FullColdLatency and CloneLatency summarize the two cold-start paths'
	// durations (ms), separating the pipeline's hundreds of milliseconds
	// from the clone path's sub-millisecond spawns.
	FullColdLatency metrics.Recorder
	CloneLatency    metrics.Recorder
}

// newFunctionStats builds a FunctionStats with its latency recorders
// initialized per the fleet's Config.SketchStats selection.
func newFunctionStats(name string, sketch bool, hosts int) *FunctionStats {
	st := &FunctionStats{Name: name, PlacementsPerHost: make([]int, hosts)}
	if sketch {
		st.E2E = metrics.NewSketch(0)
		st.Queue = metrics.NewSketch(0)
		st.FullColdLatency = metrics.NewSketch(0)
		st.CloneLatency = metrics.NewSketch(0)
	} else {
		st.E2E = &metrics.Summary{}
		st.Queue = &metrics.Summary{}
		st.FullColdLatency = &metrics.Summary{}
		st.CloneLatency = &metrics.Summary{}
	}
	return st
}

// Result is a fleet run's outcome.
type Result struct {
	PerFunction []*FunctionStats
	// Chains holds one entry per configured chain (sorted by name; empty
	// without Config.Chains).
	Chains []*ChainStats
	// PerHost holds one entry per host, in host-ID order.
	PerHost []HostStats
	// Registry counts cross-host image transfers (zero on one host).
	Registry RegistryStats
	// PeakFrames is the high-water mark of resident frames — a direct
	// memory-pressure comparison between isolation modes. It is the larger
	// of the frames summed over hosts at policy ticks and the largest
	// host's exact peak, so on one host it is that kernel's exact peak.
	PeakFrames int
	// EndFrames is the frame count summed over hosts after the drain — with
	// scale-to-zero it shows evicted deployments actually returning their
	// memory.
	EndFrames int
	// MeanFrames is the time-weighted mean of in-use frames over the
	// window, sampled at policy ticks — the fleet's memory bill, and the
	// figure scale-to-zero policies actually lower (PeakFrames barely
	// moves when pools collapse only between bursts).
	MeanFrames float64
}

// Function returns a function's stats by display name.
func (r *Result) Function(name string) (*FunctionStats, bool) {
	for _, f := range r.PerFunction {
		if f.Name == name {
			return f, true
		}
	}
	return nil, false
}

// Chain returns a chain's stats by name.
func (r *Result) Chain(name string) (*ChainStats, bool) {
	for _, c := range r.Chains {
		if c.Name == name {
			return c, true
		}
	}
	return nil, false
}

// arrivalWindow and latencyWindow bound the policy signals' observation
// rings: arrival timestamps for the rate estimate, latency samples for the
// mean/p95 and service-time signals. Windowing keeps the estimators
// current — a breach (or a calm spell) ages out instead of latching for
// the rest of the run — and bounds the per-decision sort cost.
const (
	arrivalWindow = 64
	latencyWindow = 128
	// crashWindow bounds the crash-timestamp ring behind
	// Signals.CrashRatePerSec.
	crashWindow = 32
)

// dispatchRetryBase and dispatchRetryMax bound the dispatcher's backoff when
// a scale-up fails even after the platform's own retry budget: the queue is
// held and re-dispatched later rather than the fleet erroring out.
const (
	dispatchRetryBase = 20 * time.Millisecond
	dispatchRetryMax  = 500 * time.Millisecond
)

// retryDispatchDelay is the dispatcher's exponential backoff schedule for
// consecutive failed scale-ups.
func retryDispatchDelay(streak int) sim.Duration {
	d := sim.Duration(dispatchRetryBase)
	for i := 1; i < streak; i++ {
		d *= 2
		if d >= sim.Duration(dispatchRetryMax) {
			return sim.Duration(dispatchRetryMax)
		}
	}
	return d
}

// queuedReq is one waiting request: its arrival time plus, for a chain
// stage invocation, the chain run it advances on completion (nil for
// open-loop arrivals, which need no completion tracking).
type queuedReq struct {
	at  sim.Time
	run *chainRun
}

// fnState is the dispatcher's view of one deployed function.
type fnState struct {
	load FunctionLoad
	// pools holds the function's platform on each host, indexed by host ID;
	// a host's entry stays nil until the first placement there.
	pools []*faas.Platform
	// seed is the function's platform seed; host h's pool draws from
	// seed + h·104729.
	seed uint64
	// policy is the function's resolved scaling policy (the load's
	// override, else the fleet's); signalFree caches whether it declared
	// SignalFree, so the dispatcher skips maintaining the observation
	// rings for this function when the decisions ignore them.
	policy     Policy
	signalFree bool
	// queue is a head-indexed ring of waiting requests: dequeue advances
	// qhead instead of re-slicing the front away, so the backing array is
	// reused forever and steady-state queueing allocates nothing (enqueue
	// compacts to the front only when the array is full).
	queue []queuedReq
	qhead int
	stats *FunctionStats
	rng   *sim.Rand
	// redispatch is the cached "drain my queue" closure scheduled on every
	// container-ready and retry event — one allocation per function instead
	// of one per scheduled dispatch.
	redispatch func()
	// memMemo backs the signal snapshot's lazy Memory thunk; signals()
	// resets it so every snapshot re-walks at most once.
	memMemo memoryMemo
	// arrivalTimes is a drop-oldest ring of recent arrival timestamps; the
	// policy's rate estimate is its population over its span to now, so a
	// deployment whose traffic stopped sees its rate decay.
	arrivalTimes []sim.Time
	// recentE2E and recentSvc are drop-oldest rings of recent per-request
	// E2E (queueing included) and invoker service times in milliseconds —
	// the windowed latency signals.
	recentE2E []float64
	recentSvc []float64
	// crashTimes is a drop-oldest ring of recent container-crash timestamps
	// backing the policy's crash-rate signal.
	crashTimes []sim.Time
	// coldFailStreak counts consecutive failed scale-ups; it drives the
	// dispatcher's backoff and resets on the first success.
	coldFailStreak int
	// sloTargetMs is the resolved per-function target (load override, then
	// the fleet-wide default).
	sloTargetMs float64
}

// observeArrival records one arrival timestamp in the rate ring.
func (fs *fnState) observeArrival(t sim.Time) {
	fs.arrivalTimes = metrics.PushBounded(fs.arrivalTimes, t, arrivalWindow)
}

// observeLatency records one served request's E2E and service time (ms).
func (fs *fnState) observeLatency(e2eMs, svcMs float64) {
	fs.recentE2E = metrics.PushBounded(fs.recentE2E, e2eMs, latencyWindow)
	fs.recentSvc = metrics.PushBounded(fs.recentSvc, svcMs, latencyWindow)
}

// observeCrash records one container crash in the crash-rate ring.
func (fs *fnState) observeCrash(t sim.Time) {
	fs.crashTimes = metrics.PushBounded(fs.crashTimes, t, crashWindow)
}

// queueDepth reports the number of requests waiting for a container.
func (fs *fnState) queueDepth() int { return len(fs.queue) - fs.qhead }

// poolSize is the function's container count summed over hosts.
func (fs *fnState) poolSize() int {
	n := 0
	for _, pl := range fs.pools {
		if pl != nil {
			n += len(pl.Containers())
		}
	}
	return n
}

// enqueue appends one request to the queue ring.
func (fs *fnState) enqueue(q queuedReq) {
	if fs.qhead > 0 && len(fs.queue) == cap(fs.queue) {
		n := copy(fs.queue, fs.queue[fs.qhead:])
		fs.queue = fs.queue[:n]
		fs.qhead = 0
	}
	fs.queue = append(fs.queue, q)
}

// queueHead returns the oldest waiting request; the queue must be nonempty.
func (fs *fnState) queueHead() queuedReq { return fs.queue[fs.qhead] }

// dequeue consumes the head; an emptied ring rewinds to reuse its storage.
func (fs *fnState) dequeue() {
	fs.qhead++
	if fs.qhead == len(fs.queue) {
		fs.queue = fs.queue[:0]
		fs.qhead = 0
	}
}

// chainState is the dispatcher's view of one configured chain: its arrival
// process (a synthetic FunctionLoad reusing the shared interarrival draw)
// and its stages resolved to function states.
type chainState struct {
	load   FunctionLoad
	stats  *ChainStats
	rng    *sim.Rand
	stages [][]*fnState
}

// newChainStats builds a ChainStats with its recorder initialized per the
// fleet's Config.SketchStats selection, mirroring newFunctionStats.
func newChainStats(ch Chain, sketch bool) *ChainStats {
	st := &ChainStats{Name: ch.Name, SLOTargetMs: ch.SLOTargetMs}
	if sketch {
		st.E2E = metrics.NewSketch(0)
	} else {
		st.E2E = &metrics.Summary{}
	}
	return st
}

// interarrival draws the chain's next arrival gap on its own stream.
func (cs *chainState) interarrival(now sim.Time) sim.Duration {
	return drawInterarrival(cs.load, cs.rng, now)
}

// chainRun is one in-flight chain arrival: which stage it is in and how
// many of that stage's invocations are still outstanding.
type chainRun struct {
	cs      *chainState
	started sim.Time
	stage   int
	pending int
}

// startChainStage fans the run's current stage out into the target
// functions' queues at the current virtual time and dispatches them. Stage
// invocations are ordinary requests to the per-function machinery — they
// count in Arrived/Requests, ride the same queue ring, and retry on crashes
// — plus a completion hook that advances the chain.
func (f *Fleet) startChainStage(run *chainRun) {
	targets := run.cs.stages[run.stage]
	run.pending = len(targets)
	now := f.engine.Now()
	for _, fs := range targets {
		if !fs.signalFree {
			fs.observeArrival(now)
		}
		fs.stats.Arrived++
		fs.enqueue(queuedReq{at: now, run: run})
		f.dispatch(fs)
	}
}

// chainStepDone is the completion event of one stage invocation: when the
// stage's last invocation completes, the next stage starts at that instant,
// and a finished chain records its end-to-end latency. Every started chain
// reaches exactly one of these terminal states or remains queued — the
// drain serves all queues, so after Run every chain has completed and
// ChainStats.Lost stays zero (the conservation invariant).
func (f *Fleet) chainStepDone(run *chainRun) {
	run.pending--
	if run.pending > 0 {
		return
	}
	run.stage++
	if run.stage < len(run.cs.stages) {
		f.startChainStage(run)
		return
	}
	st := run.cs.stats
	st.Completed++
	st.E2E.AddDuration(f.engine.Now().Sub(run.started))
}

// Fleet runs a multi-function workload and reports per-function and
// fleet-wide outcomes.
type Fleet struct {
	cfg Config
	// policy is the fleet-wide default; each fnState resolves its own
	// (FunctionLoad.Policy overrides it per function).
	policy   Policy
	placer   Placer
	engine   *sim.Engine
	hosts    []*host
	registry *Registry
	fns      []*fnState
	chains   []*chainState
	err      error

	// frameArea integrates in-use frames, summed over hosts, over virtual
	// time (sampled at policy ticks); lastSample is the integration cursor
	// and peakFrames the largest sample.
	frameArea  float64
	lastSample sim.Time
	peakFrames int

	// views is the reused scratch slice behind every placement decision.
	views []HostView

	// p95Scratch is the reused sorted copy behind the per-tick P95E2EMs
	// signal — one buffer for the whole fleet instead of a fresh
	// slice-and-Summary pair per function per tick.
	p95Scratch []float64

	// reapOverride, when set, replaces the per-function policy step — the
	// equivalence tests inject the legacy reaper here to pin FixedTTL
	// bit-compatibility.
	reapOverride func(fs *fnState, now sim.Time)
}

// NewFleet deploys the given functions on cfg.Hosts simulated hosts, one
// warm container each — providers keep a floor of pre-warmed capacity —
// placed by the Placer, so even the warm floor follows the placement
// policy.
func NewFleet(cfg Config, loads []FunctionLoad) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(loads) == 0 {
		return nil, fmt.Errorf("trace: no functions")
	}
	f := &Fleet{
		cfg:      cfg,
		policy:   cfg.Policy,
		placer:   cfg.Placer,
		engine:   sim.NewEngine(),
		registry: newRegistry(),
	}
	if f.policy == nil {
		f.policy = FixedTTL{KeepAlive: cfg.KeepAlive, ScaleToZeroAfter: cfg.ScaleToZeroAfter}
	}
	if f.placer == nil {
		f.placer = LocalityAware{}
	}
	for id := 0; id < cfg.hostCount(); id++ {
		// Arm each kernel's fault seams. A zero plan yields a nil injector,
		// so a fault-free fleet stays bit-identical to one without the field.
		plan := cfg.Faults
		plan.Seed ^= uint64(id) * 0x9E3779B97F4A7C15
		kern := kernel.New(cfg.Cost)
		kern.Faults = faults.New(plan)
		f.hosts = append(f.hosts, &host{kern: kern, stats: HostStats{ID: id}})
	}
	// chainFed marks functions referenced by a chain stage: they may omit
	// their own open-loop arrival process (RatePerSec == 0).
	chainFed := map[string]bool{}
	for _, ch := range cfg.Chains {
		for _, st := range ch.Stages {
			for _, name := range st.Functions {
				chainFed[name] = true
			}
		}
	}
	for i, load := range loads {
		name := load.Entry.Prof.DisplayName()
		if load.RatePerSec < 0 || (load.RatePerSec == 0 && !chainFed[name]) {
			return nil, fmt.Errorf("trace: %s: non-positive rate", name)
		}
		if load.SLOTargetMs < 0 {
			return nil, fmt.Errorf("trace: %s: negative SLO target", load.Entry.Prof.DisplayName())
		}
		if load.DiurnalAmplitude < 0 || load.DiurnalAmplitude >= 1 {
			return nil, fmt.Errorf("trace: %s: diurnal amplitude %v outside [0, 1)",
				load.Entry.Prof.DisplayName(), load.DiurnalAmplitude)
		}
		if load.DiurnalAmplitude > 0 && load.DiurnalPeriod <= 0 {
			return nil, fmt.Errorf("trace: %s: diurnal amplitude needs a positive period",
				load.Entry.Prof.DisplayName())
		}
		if err := load.Runtime.Validate(); err != nil {
			return nil, fmt.Errorf("trace: %s: %w", name, err)
		}
		target := load.SLOTargetMs
		if target == 0 {
			target = cfg.SLOTargetMs
		}
		fs := &fnState{
			load:        load,
			pools:       make([]*faas.Platform, len(f.hosts)),
			seed:        cfg.Seed + uint64(i)*7919,
			stats:       newFunctionStats(name, cfg.SketchStats, len(f.hosts)),
			rng:         sim.NewRand(cfg.Seed ^ uint64(i)*0x9E3779B97F4A7C15),
			sloTargetMs: target,
		}
		fs.setPolicy(f.policy)
		fs.redispatch = func() { f.dispatch(fs) }
		f.fns = append(f.fns, fs)
		if err := f.addWarmContainer(fs); err != nil {
			return nil, err
		}
	}
	for _, ev := range cfg.Events {
		if ev.Function == "" {
			continue
		}
		known := false
		for _, fs := range f.fns {
			if fs.stats.Name == ev.Function {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("trace: event %q targets unknown function %q", ev.Kind, ev.Function)
		}
	}
	// Resolve each chain's stage targets against the deployed functions.
	// Chains draw arrivals on their own streams, seeded apart from the
	// functions' (the 0x5D1E... salt), so adding a chain never perturbs
	// the open-loop arrival traces.
	for ci, ch := range cfg.Chains {
		cs := &chainState{
			load:  FunctionLoad{RatePerSec: ch.RatePerSec, Burstiness: ch.Burstiness},
			stats: newChainStats(ch, cfg.SketchStats),
			rng:   sim.NewRand(cfg.Seed ^ (uint64(ci)+1)*0x5D1E8F96A331_7F4B),
		}
		for _, st := range ch.Stages {
			var targets []*fnState
			for _, name := range st.Functions {
				fs := f.fn(name)
				if fs == nil {
					return nil, fmt.Errorf("trace: chain %s references unknown function %q", ch.Name, name)
				}
				targets = append(targets, fs)
			}
			cs.stages = append(cs.stages, targets)
		}
		f.chains = append(f.chains, cs)
	}
	return f, nil
}

// fn returns the state of the function with the given display name, or nil.
func (f *Fleet) fn(name string) *fnState {
	for _, fs := range f.fns {
		if fs.stats.Name == name {
			return fs
		}
	}
	return nil
}

// setPolicy installs one function's scaling policy, preferring the load's
// override and refreshing the cached signal-free flag the dispatcher's ring
// maintenance keys off.
func (fs *fnState) setPolicy(fleetDefault Policy) {
	fs.policy = fleetDefault
	if fs.load.Policy != nil {
		fs.policy = fs.load.Policy
	}
	_, fs.signalFree = fs.policy.(SignalFree)
}

// setPolicy swaps the fleet-wide policy, re-resolving every function that
// has no per-load override (the policy tests drive a built fleet through
// several policies this way).
func (f *Fleet) setPolicy(p Policy) {
	f.policy = p
	for _, fs := range f.fns {
		fs.setPolicy(p)
	}
}

// signals assembles the policy's observation set for one function at the
// current virtual time, over all its hosts: pool size and warming count
// sum over pools, and CloneReady holds if any host can clone. Percentiles
// are computed on copies — reading a signal must never disturb the stats
// the fleet is still accumulating. For SignalFree policies the expensive
// observations (the Memory page walk, the p95 copy-and-sort) are skipped:
// the decisions ignore them anyway.
func (f *Fleet) signals(fs *fnState, now sim.Time) Signals {
	sig := Signals{
		Now:         now,
		QueueDepth:  fs.queueDepth(),
		Requests:    fs.stats.Requests,
		SLOTargetMs: fs.sloTargetMs,
	}
	for _, pl := range fs.pools {
		if pl == nil {
			continue
		}
		sig.PoolSize += len(pl.Containers())
		for _, c := range pl.Containers() {
			if c.Ready() > now && c.Requests() == 0 {
				sig.Warming++
			}
		}
	}
	sig.Crashes = fs.stats.Crashes + fs.stats.EventCrashes
	if fs.signalFree {
		return sig
	}
	if n := len(fs.crashTimes); n > 0 {
		if span := now.Sub(fs.crashTimes[0]); span > 0 {
			sig.CrashRatePerSec = float64(n) / span.Seconds()
		}
	}
	for _, pl := range fs.pools {
		if pl != nil && pl.CloneSourceReady() {
			sig.CloneReady = true
			break
		}
	}
	// Memory is handed out as a lazy memoized thunk: resetting the memo
	// invalidates any earlier snapshot's view, and the O(resident pages)
	// walk runs only if (and when) the policy calls Get — at most once per
	// snapshot.
	fs.memMemo = memoryMemo{pools: fs.pools}
	sig.Memory = MemorySignal{memo: &fs.memMemo}
	if n := len(fs.arrivalTimes); n > 0 {
		if span := now.Sub(fs.arrivalTimes[0]); span > 0 {
			sig.ArrivalRatePerSec = float64(n) / span.Seconds()
		}
	}
	if fs.stats.FullColdLatency.N() > 0 {
		sig.MeanFullColdMs = fs.stats.FullColdLatency.Mean()
	}
	if fs.stats.CloneLatency.N() > 0 {
		sig.MeanCloneColdMs = fs.stats.CloneLatency.Mean()
	}
	if len(fs.recentE2E) > 0 {
		// One reused scratch buffer stands in for the fresh slice-and-Summary
		// pair this used to build per function per tick: the mean sums the
		// copy in ring order (the same float additions Summary.Mean
		// performed), then the sort and interpolation reproduce
		// Summary.Percentile exactly (PercentileSorted is its implementation).
		f.p95Scratch = append(f.p95Scratch[:0], fs.recentE2E...)
		var sum float64
		for _, v := range f.p95Scratch {
			sum += v
		}
		sig.MeanE2EMs = sum / float64(len(f.p95Scratch))
		sort.Float64s(f.p95Scratch)
		sig.P95E2EMs = metrics.PercentileSorted(f.p95Scratch, 95)
		var svc float64
		for _, v := range fs.recentSvc {
			svc += v
		}
		sig.MeanServiceMs = svc / float64(len(fs.recentSvc))
	}
	return sig
}

// interarrival draws the next gap for a function (drawInterarrival on the
// function's own stream — the extraction point for the standalone
// ArrivalProcess, which must stay draw-for-draw identical).
func (fs *fnState) interarrival(now sim.Time) sim.Duration {
	return drawInterarrival(fs.load, fs.rng, now)
}

// Run executes the configured window and returns the results.
func (f *Fleet) Run() (*Result, error) {
	deadline := sim.Time(f.cfg.Window)

	// Arrival processes (chain-fed functions with no rate of their own
	// receive only chain invocations).
	for _, fs := range f.fns {
		if fs.load.RatePerSec <= 0 {
			continue
		}
		fs := fs
		var arrive func()
		arrive = func() {
			if f.err != nil || f.engine.Now() >= deadline {
				return
			}
			if !fs.signalFree {
				fs.observeArrival(f.engine.Now())
			}
			fs.stats.Arrived++
			fs.enqueue(queuedReq{at: f.engine.Now()})
			f.dispatch(fs)
			f.engine.After(fs.interarrival(f.engine.Now()), arrive)
		}
		f.engine.After(fs.interarrival(0), arrive)
	}

	// Chain arrival processes: each arrival starts stage 0 immediately;
	// later stages ride completion events (chainStepDone), including
	// through the drain — a chain started before the deadline always runs
	// to completion.
	for _, cs := range f.chains {
		cs := cs
		var arrive func()
		arrive = func() {
			if f.err != nil || f.engine.Now() >= deadline {
				return
			}
			cs.stats.Started++
			f.startChainStage(&chainRun{cs: cs, started: f.engine.Now()})
			f.engine.After(cs.interarrival(f.engine.Now()), arrive)
		}
		f.engine.After(cs.interarrival(0), arrive)
	}

	// Scheduled failure events.
	for _, ev := range f.cfg.Events {
		ev := ev
		f.engine.At(sim.Time(ev.At), func() { f.applyEvent(ev) })
	}

	// Policy tick: sample the frame integral, then let the policy reap
	// (or, in the equivalence tests, the injected legacy reaper).
	step := f.reapIdle
	if f.reapOverride != nil {
		step = f.reapOverride
	}
	var reap func()
	reap = func() {
		if f.err != nil || f.engine.Now() >= deadline {
			return
		}
		now := f.engine.Now()
		f.sampleFrames(now, deadline)
		for _, fs := range f.fns {
			step(fs, now)
		}
		f.engine.After(f.cfg.KeepAlive/2, reap)
	}
	f.engine.After(f.cfg.KeepAlive/2, reap)

	f.engine.RunUntil(deadline)
	f.sampleFrames(deadline, deadline) // close the frame integral at the deadline
	// Drain: let in-flight requests finish (no new arrivals).
	f.engine.Run()
	if f.err != nil {
		return nil, f.err
	}

	res := &Result{Registry: f.registry.Stats(), PeakFrames: f.peakFrames, EndFrames: f.framesInUse()}
	if deadline > 0 {
		res.MeanFrames = f.frameArea / float64(deadline)
	}
	for _, fs := range f.fns {
		// Fold the platforms' recovery counters into the per-function stats;
		// Crashes and RestoreFaults were already counted on the dispatch path.
		for _, pl := range fs.pools {
			if pl == nil {
				continue
			}
			rec := pl.Recovery()
			fs.stats.ColdStartRetries += rec.ColdStartRetries
			fs.stats.RetryBackoff += rec.RetryBackoff
			fs.stats.CloneFallbacks += rec.CloneFallbacks
			fs.stats.DonorsQuarantined += rec.DonorsQuarantined
			fs.stats.ImageIntegrityFailures += rec.ImageIntegrityFailures
		}
		res.PerFunction = append(res.PerFunction, fs.stats)
	}
	sort.Slice(res.PerFunction, func(i, j int) bool {
		return res.PerFunction[i].Name < res.PerFunction[j].Name
	})
	for _, cs := range f.chains {
		st := cs.stats
		st.Lost = st.Started - st.Completed
		st.SLOMet = st.SLOTargetMs <= 0 || st.E2E.N() == 0 || st.E2E.Percentile(95) <= st.SLOTargetMs
		res.Chains = append(res.Chains, st)
	}
	sort.Slice(res.Chains, func(i, j int) bool { return res.Chains[i].Name < res.Chains[j].Name })
	for id, h := range f.hosts {
		hs := h.stats
		hs.PeakFrames = h.kern.Phys.Peak()
		hs.EndFrames = h.kern.Phys.InUse()
		for _, fs := range f.fns {
			if pl := fs.pools[id]; pl != nil {
				if _, _, ok := pl.ExportedImage(); ok {
					hs.ImagesHeld++
				}
			}
		}
		res.PeakFrames = max(res.PeakFrames, hs.PeakFrames)
		res.PerHost = append(res.PerHost, hs)
	}
	return res, nil
}

// framesInUse sums the live frames over all hosts.
func (f *Fleet) framesInUse() int {
	n := 0
	for _, h := range f.hosts {
		n += h.kern.Phys.InUse()
	}
	return n
}

// sampleFrames advances the frame-seconds integral and the sampled peak to
// now (clamped to the deadline: the mean is defined over the window, not
// the drain).
func (f *Fleet) sampleFrames(now, deadline sim.Time) {
	if now > deadline {
		now = deadline
	}
	inUse := f.framesInUse()
	f.peakFrames = max(f.peakFrames, inUse)
	if dt := float64(now - f.lastSample); dt > 0 {
		f.frameArea += float64(inUse) * dt
		f.lastSample = now
	}
}

// reapIdle applies the function's resolved policy to its pools.
//
// Tier one: containers above the policy's warm floor (counted over all
// hosts) are removed when Policy.Reap says so, given their idle time,
// scanning hosts in ID order. The pools are re-read after every removal —
// faas.Platform.RemoveContainer compacts the live slice in place, so
// ranging over a pre-reap snapshot would visit shifted (and stale
// duplicate) entries and over-count removals.
//
// Tier two (scale-to-zero): with no queued requests, the last container is
// removed when Policy.Reap(last=true) says so. Policy.EvictImage then
// decides whether the function's snapshot images go too, on every host; a
// policy that keeps them has the clone template captured first
// (EnsureCloneTemplate), so the next scale-up revives the pool at clone
// cost instead of replaying the pipeline.
//
// In tier one a container that never served measures idleness from
// Ready() — the time it became able to serve. An orphaned scale-up (its
// queued request drained elsewhere during the cold start) would otherwise
// pin the pool above the floor forever and block scale-to-zero. Tier two
// measures from Ready() always, which is never earlier than the last
// response's completion.
func (f *Fleet) reapIdle(fs *fnState, now sim.Time) {
	sig := f.signals(fs, now)
	floor := fs.policy.WarmFloor(sig)
	if floor < 1 {
		floor = 1 // the last container belongs to the scale-to-zero tier
	}
	for fs.poolSize() > floor {
		if !f.reapOne(fs, sig, now) {
			return
		}
		// Refresh the whole observation set: a half-updated snapshot (new
		// pool size, old memory figures) would skew per-container rent for
		// the next decision.
		sig = f.signals(fs, now)
	}

	if fs.queueDepth() > 0 || floor > 1 {
		return
	}
	switch fs.poolSize() {
	case 0:
		// The pool already scaled to zero with its images kept: re-consult
		// the eviction verdict every tick. The rate estimate decays after
		// traffic stops, so a "keep" made mid-traffic must be allowed to
		// flip once holding the images no longer pays.
		if fs.policy.EvictImage(sig) {
			f.evictImages(fs)
		}
	case 1:
		var pl *faas.Platform
		for _, p := range fs.pools {
			if p != nil && len(p.Containers()) == 1 {
				pl = p
				break
			}
		}
		c := pl.Containers()[0]
		if c.Ready() > now || !fs.policy.Reap(sig, now.Sub(c.Ready()), true) {
			return
		}
		evict := fs.policy.EvictImage(sig)
		if !evict {
			// Keep the revival path cheap: capture the donor template before
			// the donor disappears. The template (and its snapshot) survives
			// the container's removal.
			pl.EnsureCloneTemplate()
		}
		pl.RemoveContainer(c)
		fs.stats.Reaped++
		fs.stats.ScaledToZero++
		if evict {
			f.evictImages(fs)
		}
	}
}

// reapOne removes the first idle container, in host-ID order, that the
// policy's tier-one Reap selects, and reports whether it found one.
func (f *Fleet) reapOne(fs *fnState, sig Signals, now sim.Time) bool {
	for _, pl := range fs.pools {
		if pl == nil {
			continue
		}
		for _, c := range pl.Containers() {
			if c.Ready() > now {
				continue // busy (or still cold-starting)
			}
			idleSince := c.LastDone()
			if idleSince == 0 {
				idleSince = c.Ready() // never served: idle since serveable
			}
			if fs.policy.Reap(sig, now.Sub(idleSince), false) {
				pl.RemoveContainer(c)
				fs.stats.Reaped++
				return true
			}
		}
	}
	return false
}

// evictImages releases the function's snapshot image on every host that
// holds one.
func (f *Fleet) evictImages(fs *fnState) {
	for _, pl := range fs.pools {
		if pl != nil && pl.EvictImage() {
			fs.stats.ImagesEvicted++
		}
	}
}

// dispatch hands queued requests to available containers on any host,
// scaling the pool up when all are busy and the cap allows.
func (f *Fleet) dispatch(fs *fnState) {
	if f.err != nil {
		return
	}
	now := f.engine.Now()
	for fs.queueDepth() > 0 {
		c, pl := fs.pickReady(now)
		if c == nil {
			// No container free right now: scale up, or wait for the
			// earliest ready time when nothing was added.
			if f.scaleUp(fs, now) {
				if next := fs.earliestReady(); next > now {
					f.engine.At(next, fs.redispatch)
				}
			}
			return
		}
		// Peek, serve, then pop: a mid-request crash leaves the request at
		// the head of the queue to retry on another container (or a fresh
		// cold start) — it is only consumed once a response was delivered.
		qr := fs.queueHead()
		st, err := pl.Serve(c, "")
		if err != nil {
			if errors.Is(err, faas.ErrContainerCrashed) {
				fs.stats.Crashes++
				if !fs.signalFree {
					fs.observeCrash(now)
				}
				continue
			}
			f.fail(err)
			return
		}
		fs.dequeue()
		wait := now.Sub(qr.at)
		fs.stats.Requests++
		fs.stats.E2E.AddDuration(st.E2E + wait)
		fs.stats.Queue.AddDuration(wait)
		fs.stats.StateGets += st.StateGets
		fs.stats.StatePuts += st.StatePuts
		if !fs.signalFree {
			fs.observeLatency(float64(st.E2E+wait)/1e6, float64(st.Invoker)/1e6)
		}
		if st.Restored {
			fs.stats.Restores++
		}
		if st.ContainerLost {
			fs.stats.RestoreFaults++
		}
		if run := qr.run; run != nil {
			// Chain requests hand off to the next stage when the response is
			// delivered; the closure is the only allocation on the chain path.
			f.engine.At(st.Completed, func() { f.chainStepDone(run) })
		}
		// When this container frees up, it may drain more queue.
		f.engine.At(st.ReadyAgain, fs.redispatch)
	}
}

// scaleUp asks the policy how many containers to add (clamped to the
// pool's headroom) and places each one. It reports whether the caller
// should wake up at the pool's earliest ready time: true when nothing was
// added; false when every added container armed its own wake-up, a retry
// is scheduled, or the fleet failed.
func (f *Fleet) scaleUp(fs *fnState, now sim.Time) bool {
	headroom := f.cfg.MaxContainersPerFunction - fs.poolSize()
	if headroom <= 0 {
		return true
	}
	sig := f.signals(fs, now)
	n := min(fs.policy.ScaleUp(sig), headroom)
	if n < 1 && fs.poolSize() == 0 {
		n = 1 // an empty pool must scale or the queue starves
	}
	for i := 0; i < n; i++ {
		if !f.addContainer(fs, sig, now) {
			return false
		}
	}
	return n < 1
}

// retry holds the function's queue after a failed scale-up and
// re-dispatches it after the backoff — faults delay requests, they must
// not drop them.
func (f *Fleet) retry(fs *fnState) {
	fs.coldFailStreak++
	f.engine.After(retryDispatchDelay(fs.coldFailStreak), fs.redispatch)
}

// fail stops the run with a non-recoverable error.
func (f *Fleet) fail(err error) {
	f.err = err
	f.engine.Stop()
}

// applyEvent executes one scheduled failure event, then re-dispatches: a
// crash wave's queued requests must start their recovery cold starts at
// the event's time, not the next arrival's. A function event acts on every
// targeted function's pools, re-dispatching each function as it goes; a
// host event empties the host of every function, releases its images and
// pending pulls, takes it out of the rotation, and then re-dispatches
// every function so displaced queues recover on the survivors.
func (f *Fleet) applyEvent(ev Event) {
	if f.err != nil {
		return
	}
	if ev.Kind == EventHostFail || ev.Kind == EventHostDrain {
		h := f.hosts[ev.Host]
		if !h.alive() {
			return
		}
		for _, fs := range f.fns {
			if pl := fs.pools[ev.Host]; pl != nil {
				f.emptyPool(fs, pl, ev.Kind == EventHostFail)
				if pl.EvictImage() {
					fs.stats.ImagesEvicted++
				}
			}
		}
		f.registry.DropHost(ev.Host)
		h.stats.Failed = ev.Kind == EventHostFail
		h.stats.Drained = ev.Kind == EventHostDrain
		for _, fs := range f.fns {
			f.dispatch(fs)
		}
		return
	}
	for _, fs := range f.fns {
		if ev.Function != "" && fs.stats.Name != ev.Function {
			continue
		}
		switch ev.Kind {
		case EventCrashWave:
			for _, pl := range fs.pools {
				if pl != nil {
					f.emptyPool(fs, pl, true)
				}
			}
		case EventCorruptImage:
			for _, pl := range fs.pools {
				if pl != nil {
					pl.CorruptImage()
				}
			}
		case EventDrain:
			for _, pl := range fs.pools {
				if pl != nil {
					f.emptyPool(fs, pl, false)
				}
			}
			f.evictImages(fs)
		}
		f.dispatch(fs)
	}
}

// emptyPool removes every container from one of the function's pools,
// counting each as crashed (EventCrashes) or drained (Drained).
func (f *Fleet) emptyPool(fs *fnState, pl *faas.Platform, crashed bool) {
	for len(pl.Containers()) > 0 {
		pl.RemoveContainer(pl.Containers()[0])
		if !crashed {
			fs.stats.Drained++
			continue
		}
		fs.stats.EventCrashes++
		if !fs.signalFree {
			fs.observeCrash(f.engine.Now())
		}
	}
}

// Teardown removes every container and evicts every function's snapshot
// images on every host, then reports the remaining in-use frame count
// summed over hosts. On a leak-free fleet — any fault plan, any event
// schedule — the answer is the kernels' baseline (0): every frame a
// partial or crashed operation touched was released.
func (f *Fleet) Teardown() int {
	for _, fs := range f.fns {
		for _, pl := range fs.pools {
			if pl == nil {
				continue
			}
			for len(pl.Containers()) > 0 {
				pl.RemoveContainer(pl.Containers()[0])
			}
			pl.EvictImage()
		}
	}
	return f.framesInUse()
}

// pickReady returns a container that can serve right now, with its pool,
// scanning hosts in ID order; nil when every container is busy.
func (fs *fnState) pickReady(now sim.Time) (*faas.Container, *faas.Platform) {
	for _, pl := range fs.pools {
		if pl == nil {
			continue
		}
		for _, c := range pl.Containers() {
			if c.Ready() <= now {
				return c, pl
			}
		}
	}
	return nil, nil
}

// earliestReady returns the soonest ready time across the function's
// pools.
func (fs *fnState) earliestReady() sim.Time {
	var best sim.Time
	for _, pl := range fs.pools {
		if pl == nil {
			continue
		}
		for _, c := range pl.Containers() {
			if best == 0 || c.Ready() < best {
				best = c.Ready()
			}
		}
	}
	return best
}
