// Package server exposes the simulated FaaS platform over HTTP — a
// "provider in a box" for exploring Groundhog interactively. Deployments
// (one platform per function × isolation mode) are created lazily on first
// invocation and stay warm, exactly like reused containers; repeated
// invocations against the same deployment therefore exercise container
// reuse with or without request isolation. A trace.Placer spreads
// deployments round-robin across a small set of simulated hosts
// (DefaultHosts, or ghserve's -hosts flag), each host owning one kernel and
// physical-memory pool, so /deployments reports per-host memory rather than
// a single machine-wide aggregate.
//
// Endpoints:
//
//	GET  /healthz                      liveness
//	GET  /functions                    the 58-benchmark catalog
//	GET  /modes                        isolation modes
//	POST /invoke?fn=NAME&mode=MODE[&caller=ID]
//	                                   run one request; JSON stats
//	GET  /deployments                  active deployments and counters
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"groundhog/internal/catalog"
	"groundhog/internal/faas"
	"groundhog/internal/isolation"
	"groundhog/internal/kernel"
	"groundhog/internal/metrics"
	"groundhog/internal/runtimes"
	"groundhog/internal/sim"
	"groundhog/internal/trace"
)

// Server multiplexes HTTP requests onto simulated platforms. Each platform
// simulation is single-threaded, so a per-deployment mutex serializes
// invocations of the same function × mode; unrelated deployments run
// concurrently up to their host's kernel lock. The server's own mutex
// guards the deployments map, the hosts and their placer, and the
// deploy-time configuration.
type Server struct {
	mu    sync.Mutex
	cost  kernel.CostModel
	seed  uint64
	trust bool

	hosts []*serverHost
	// placer picks each new deployment's host from views, one static
	// HostView per host: the server tracks no per-host occupancy, so the
	// fleet's round-robin placer spreads deployments evenly.
	placer      trace.Placer
	views       []trace.HostView
	deployments map[string]*deployment
}

// DefaultHosts is the simulated host count a fresh server runs with.
const DefaultHosts = 4

// serverHost is one simulated machine: a kernel (and so a physical-memory
// pool) shared by every deployment placed on it. Its mutex serializes the
// colocated platforms' kernel traffic.
type serverHost struct {
	id   int
	mu   sync.Mutex
	kern *kernel.Kernel
}

// resetHosts installs n fresh hosts and a fresh placer over them. Caller
// holds s.mu (or owns s).
func (s *Server) resetHosts(n int) {
	s.hosts = make([]*serverHost, n)
	s.views = make([]trace.HostView, n)
	for i := range s.hosts {
		s.hosts[i] = &serverHost{id: i, kern: kernel.New(s.cost)}
		s.views[i] = trace.HostView{Host: i}
	}
	s.placer = &trace.RoundRobin{}
}

// deployment is one function × mode platform. Its mutex covers the platform
// (constructed lazily on the first invocation, so a slow cold start never
// blocks the whole server) and the invocation counter.
type deployment struct {
	key   string // the registry key, fn|mode
	fn    string
	mode  isolation.Mode
	prof  runtimes.Profile
	host  *serverHost
	seed  uint64
	trust bool

	mu       sync.Mutex
	platform *faas.Platform
	// gone marks a removed deployment: the record left the registry
	// (failed deploy, Undeploy, Shutdown) and cached data-plane handles must
	// fail with ErrGone instead of reviving it.
	gone     bool
	invoked  int
	restored int
	// e2e is a drop-oldest ring of recent per-request end-to-end latency
	// samples (ms) — the windowed latency summary /deployments reports and
	// the policy advice reads. Bounded like the fleet's observation rings,
	// so a long-lived server neither grows without bound nor re-sorts its
	// whole history per listing.
	e2e []float64
}

// e2eWindow bounds the per-deployment latency ring (matching the fleet's
// latencyWindow semantics: breaches and calm spells both age out).
const e2eWindow = 128

// New returns a server with the default cost model and DefaultHosts
// simulated hosts.
func New() *Server {
	s := &Server{
		cost:        kernel.Default(),
		seed:        1,
		deployments: make(map[string]*deployment),
	}
	s.resetHosts(DefaultHosts)
	return s
}

// SetTrustSameCaller enables the §4.4 trusted-caller optimization on all
// future deployments.
func (s *Server) SetTrustSameCaller(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.trust = on
}

// SetHosts resizes the simulated cluster. It must run before the first
// deployment registers: existing deployments hold references into the old
// hosts' kernels, so a live resize would split the memory accounting.
func (s *Server) SetHosts(n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 1 {
		return fmt.Errorf("server: need at least one host, got %d", n)
	}
	if len(s.deployments) > 0 {
		return fmt.Errorf("server: SetHosts after %d deployment(s) registered", len(s.deployments))
	}
	s.resetHosts(n)
	return nil
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/functions", s.handleFunctions)
	mux.HandleFunc("/modes", s.handleModes)
	mux.HandleFunc("/invoke", s.handleInvoke)
	mux.HandleFunc("/deployments", s.handleDeployments)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// FunctionInfo is one catalog entry in the /functions listing.
type FunctionInfo struct {
	Name       string  `json:"name"`
	Suite      string  `json:"suite"`
	Language   string  `json:"language"`
	ExecMS     float64 `json:"exec_ms"`
	TotalPages int     `json:"total_pages"`
	DirtyPages int     `json:"dirty_pages"`
}

func (s *Server) handleFunctions(w http.ResponseWriter, r *http.Request) {
	var out []FunctionInfo
	for _, e := range catalog.All() {
		out = append(out, FunctionInfo{
			Name:       e.Prof.DisplayName(),
			Suite:      string(e.Suite),
			Language:   e.Prof.Lang.String(),
			ExecMS:     float64(e.Prof.Exec) / 1e6,
			TotalPages: e.Prof.TotalPages,
			DirtyPages: e.Prof.DirtyPages,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleModes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, isolation.Modes)
}

// validMode reports whether mode is one of isolation.Modes. Unknown values
// are rejected up front with a 400 instead of surfacing as a generic deploy
// error from strategy construction.
func validMode(mode isolation.Mode) bool {
	return slices.Contains(isolation.Modes, mode)
}

// modeList renders the allowed mode names for error messages.
func modeList() string {
	names := make([]string, len(isolation.Modes))
	for i, m := range isolation.Modes {
		names[i] = string(m)
	}
	return strings.Join(names, ", ")
}

// InvokeResponse is the JSON result of POST /invoke.
type InvokeResponse struct {
	Function     string  `json:"function"`
	Mode         string  `json:"mode"`
	Caller       string  `json:"caller,omitempty"`
	InvokerMS    float64 `json:"invoker_ms"`
	E2EMS        float64 `json:"e2e_ms"`
	RestoreMS    float64 `json:"restore_ms"`
	Restored     bool    `json:"restored"`
	PreRestoreMS float64 `json:"pre_restore_ms,omitempty"`
	ColdStartMS  float64 `json:"cold_start_ms,omitempty"` // present on the deployment's first request
	VirtualTime  string  `json:"virtual_time"`
}

func (s *Server) handleInvoke(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	fn := r.URL.Query().Get("fn")
	mode := isolation.Mode(r.URL.Query().Get("mode"))
	if mode == "" {
		mode = isolation.ModeGH
	}
	if !validMode(mode) {
		http.Error(w, fmt.Sprintf("unknown mode %q; valid modes: %s", mode, modeList()),
			http.StatusBadRequest)
		return
	}
	caller := r.URL.Query().Get("caller")

	dep, err := s.deployment(fn, mode)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	dep.mu.Lock()
	st, fresh, err := s.invoke(dep, caller)
	if err != nil {
		dep.mu.Unlock()
		status := HTTPStatus(err)
		if status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		http.Error(w, err.Error(), status)
		return
	}
	resp := InvokeResponse{
		Function:     fn,
		Mode:         string(mode),
		Caller:       caller,
		InvokerMS:    float64(st.Invoker) / 1e6,
		E2EMS:        float64(st.E2E) / 1e6,
		RestoreMS:    float64(st.Cleanup) / 1e6,
		Restored:     st.Restored,
		PreRestoreMS: float64(st.PreRestore) / 1e6,
		VirtualTime:  dep.platform.Engine.Now().String(),
	}
	if fresh {
		// A platform can reach zero containers (keep-alive expiry via
		// RemoveContainer); report a zero cold start rather than panicking.
		if cs := dep.platform.Containers(); len(cs) > 0 {
			resp.ColdStartMS = float64(cs[0].ColdStart().Total) / 1e6
		}
	}
	dep.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// deployment returns (registering if needed) the deployment record for
// fn × mode. Only the map is touched under the server lock; the platform
// itself is constructed later under the deployment's own lock.
func (s *Server) deployment(fn string, mode isolation.Mode) (*deployment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := deploymentKey(fn, mode)
	if dep, ok := s.deployments[key]; ok {
		return dep, nil
	}
	entry, err := catalog.Lookup(fn)
	if err != nil {
		return nil, err
	}
	// Deployments never migrate, so the placer's choice is permanent for
	// the deployment's lifetime.
	dep := &deployment{
		key: key, fn: fn, mode: mode, prof: entry.Prof,
		host: s.hosts[s.placer.Place(trace.Signals{}, s.views)],
		seed: s.seed, trust: s.trust,
	}
	s.deployments[key] = dep
	return dep, nil
}

func deploymentKey(fn string, mode isolation.Mode) string { return fn + "|" + string(mode) }

// invoke is the one invoke step both planes run: it deploys the platform on
// first use, re-pools an empty deployment (crash-drained or reaped to zero)
// with one fresh scale-up — a pool heals rather than shedding every request
// after a failure burst — runs the request and records it. fresh reports
// whether this request paid the deploy. Caller holds dep.mu; lock order is
// dep.mu → dep.host.mu.
func (s *Server) invoke(dep *deployment, caller string) (st faas.RequestStats, fresh bool, err error) {
	if fresh, err = s.ensure(dep); err != nil {
		return st, false, err
	}
	// The host lock covers the kernel traffic of the invocation (frame
	// allocation, restore), serializing colocated deployments the way one
	// machine's memory subsystem would.
	dep.host.mu.Lock()
	if len(dep.platform.Containers()) == 0 {
		// The platform's own cold-start retry budget applies inside; a
		// failure is transient and the next request tries again.
		_, err = dep.platform.AddContainer()
	}
	if err == nil {
		st, err = dep.platform.InvokeOnce(caller)
	}
	dep.host.mu.Unlock()
	if err != nil {
		return faas.RequestStats{}, fresh, err
	}
	dep.record(st)
	return st, fresh, nil
}

// ensure deploys dep's platform on first use; fresh reports whether this
// call did. A removed deployment fails with ErrGone. A failed deploy
// removes the deployment, so no handle cached before the failure can revive
// a record the registry no longer lists; the next lookup registers afresh.
// Caller holds dep.mu.
func (s *Server) ensure(dep *deployment) (fresh bool, err error) {
	if dep.gone {
		return false, ErrGone
	}
	if dep.platform != nil {
		return false, nil
	}
	if err := dep.deploy(); err != nil {
		s.remove(dep)
		return false, err
	}
	return true, nil
}

// errDeploy wraps every deploy failure, so HTTPStatus can tell a function
// the mode cannot run (400) from a failed request (500).
var errDeploy = errors.New("deploy")

// HTTPStatus maps an invoke error onto the status both planes answer with:
// a removed deployment 404; a transient failure 503, to be sent with a
// Retry-After — a crash, an empty pool, or a cold start that exhausted its
// retry budget, on first deploy or not; any other deploy failure 400; the
// rest 500.
func HTTPStatus(err error) int {
	switch {
	case errors.Is(err, ErrGone):
		return http.StatusNotFound
	case faas.IsTransient(err):
		return http.StatusServiceUnavailable
	case errors.Is(err, errDeploy):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// deploy constructs the platform (the cold start) on the deployment's host:
// its own virtual timeline, but the host's shared kernel, so colocated
// deployments compete for (and share the accounting of) one physical-memory
// pool. Caller holds d.mu; lock order is d.mu → d.host.mu.
func (d *deployment) deploy() error {
	d.host.mu.Lock()
	defer d.host.mu.Unlock()
	pl, err := faas.NewPlatformOn(sim.NewEngine(), d.host.kern, d.prof, d.mode, 1, d.seed)
	if err != nil {
		return fmt.Errorf("%w %s under %s on host %d: %w", errDeploy, d.fn, d.mode, d.host.id, err)
	}
	pl.TrustSameCaller = d.trust
	d.platform = pl
	return nil
}

// DeploymentInfo is one entry of the /deployments listing. Beyond the
// request counters it reports the deployment's memory accounting (the
// managers' state-store bytes, the containers' resident pages, the physical
// frames actually in use, and how many resident pages ride on frames shared
// with siblings), the cumulative cold-start split by path, the observed
// latency summary, and — from the same signals — what each built-in
// scheduling policy would decide right now.
type DeploymentInfo struct {
	Function   string `json:"function"`
	Mode       string `json:"mode"`
	Invoked    int    `json:"invoked"`
	Restored   int    `json:"restored"`
	Containers int    `json:"containers"`
	// Host is the simulated machine this deployment was placed on;
	// HostFramesInUse is that machine's whole physical-memory pool, summed
	// over every colocated deployment (FramesInUse reports the same shared
	// pool, kept for compatibility — per-deployment residency is
	// ResidentPages).
	Host             int     `json:"host"`
	HostFramesInUse  int     `json:"host_frames_in_use"`
	ColdStartMS      float64 `json:"cold_start_ms"`
	StateStoreBytes  int     `json:"state_store_bytes"`
	ResidentPages    int     `json:"resident_pages"`
	FramesInUse      int     `json:"frames_in_use"`
	SharedFramePages int     `json:"shared_frame_pages"`
	VirtualTime      string  `json:"virtual_time"`

	// Cold-start split: pipeline vs. snapshot-clone scale-ups over the
	// deployment's lifetime (removed containers included), with the summed
	// virtual cost — the provider's scale-up bill. Clone starts are further
	// split by where the image came from: a cross-host transfer or a
	// host-local template (a single-host server reports zero transfers; the
	// field exists so the listing's shape matches the cluster simulation's
	// cold-start taxonomy).
	FullColdStarts          int     `json:"full_cold_starts"`
	TransferCloneColdStarts int     `json:"transfer_clone_cold_starts"`
	LocalCloneColdStarts    int     `json:"local_clone_cold_starts"`
	CloneColdStarts         int     `json:"clone_cold_starts"`
	ColdStartTotalMS        float64 `json:"cold_start_total_ms"`
	CloneColdStartReady     bool    `json:"clone_cold_start_ready"`

	// Latency summary over the most recent served requests (ms, windowed
	// like the fleet's observation rings).
	E2EMeanMS float64 `json:"e2e_mean_ms"`
	E2EP50MS  float64 `json:"e2e_p50_ms"`
	E2EP95MS  float64 `json:"e2e_p95_ms"`
	E2EP99MS  float64 `json:"e2e_p99_ms"`

	// Recovery counters (faas.RecoveryStats): how often this deployment's
	// failures were absorbed — cold-start retries, clone→pipeline
	// fallbacks, crashes, post-response restore faults, integrity
	// failures, quarantined donors. All zero on a fault-free platform.
	ColdStartRetries       int `json:"cold_start_retries"`
	CloneFallbacks         int `json:"clone_fallbacks"`
	Crashes                int `json:"crashes"`
	RestoreFaults          int `json:"restore_faults"`
	ImageIntegrityFailures int `json:"image_integrity_failures"`
	DonorsQuarantined      int `json:"donors_quarantined"`

	// Policies reports each built-in scheduling policy's decisions against
	// the deployment's current signals (idle time taken from its idlest
	// container).
	Policies []trace.Advice `json:"policies"`
}

// describe renders one deployment's listing entry. Caller holds dep.mu.
func (dep *deployment) describe() DeploymentInfo {
	info := DeploymentInfo{
		Function: dep.fn,
		Mode:     string(dep.mode),
		Invoked:  dep.invoked,
		Restored: dep.restored,
		Host:     dep.host.id,
	}
	if dep.platform == nil {
		return info
	}
	pl := dep.platform
	now := pl.Engine.Now()
	// Zero containers (keep-alive expiry) reports a zero cold start
	// instead of panicking the handler.
	cs := pl.Containers()
	if len(cs) > 0 {
		info.ColdStartMS = float64(cs[0].ColdStart().Total) / 1e6
	}
	info.Containers = len(cs)
	// The host lock covers the kernel reads: a colocated deployment could
	// be allocating frames on the shared pool concurrently.
	dep.host.mu.Lock()
	mem := pl.Memory()
	dep.host.mu.Unlock()
	info.StateStoreBytes = mem.StateStoreBytes
	info.ResidentPages = mem.ResidentPages
	info.FramesInUse = mem.FramesInUse
	info.HostFramesInUse = mem.FramesInUse
	info.SharedFramePages = mem.SharedFramePages
	info.VirtualTime = now.String()

	cold := pl.ColdStarts()
	info.FullColdStarts = cold.Full
	info.CloneColdStarts = cold.Clone
	info.TransferCloneColdStarts = cold.TransferClone
	info.LocalCloneColdStarts = cold.Clone - cold.TransferClone
	info.ColdStartTotalMS = float64(cold.TotalCost) / 1e6
	info.CloneColdStartReady = pl.CloneSourceReady()

	if len(dep.e2e) > 0 {
		e2e := metrics.NewSummary(append([]float64(nil), dep.e2e...))
		info.E2EMeanMS = e2e.Mean()
		info.E2EP50MS = e2e.Percentile(50)
		info.E2EP95MS = e2e.Percentile(95)
		info.E2EP99MS = e2e.P99()
	}

	rec := pl.Recovery()
	info.ColdStartRetries = rec.ColdStartRetries
	info.CloneFallbacks = rec.CloneFallbacks
	info.Crashes = rec.Crashes
	info.RestoreFaults = rec.RestoreFaults
	info.ImageIntegrityFailures = rec.ImageIntegrityFailures
	info.DonorsQuarantined = rec.DonorsQuarantined

	// The policies read a signal set assembled from the platform's
	// cumulative view. It approximates (but is not identical to) what a
	// fleet dispatcher would see: the rate proxy is served invocations
	// over virtual uptime, the cold-start means include the deploy-time
	// pipeline, the latency summary is recent-window E2E (service time
	// unavailable separately), and no SLO target is configured — so the
	// advice shows each policy's leanings, not a bit-exact fleet decision.
	sig := trace.Signals{
		Now:        now,
		PoolSize:   len(cs),
		Requests:   dep.invoked,
		CloneReady: info.CloneColdStartReady,
		MeanE2EMs:  info.E2EMeanMS,
		P95E2EMs:   info.E2EP95MS,
		Memory:     trace.StaticMemory(mem),
	}
	if now > 0 {
		sig.ArrivalRatePerSec = float64(dep.invoked) / (float64(now) / 1e9)
	}
	if cold.Full > 0 {
		sig.MeanFullColdMs = float64(cold.FullCost) / 1e6 / float64(cold.Full)
	}
	if cold.Clone > 0 {
		sig.MeanCloneColdMs = float64(cold.CloneCost) / 1e6 / float64(cold.Clone)
	}
	var idle time.Duration
	for _, c := range cs {
		since := c.LastDone()
		if since == 0 {
			since = c.Ready()
		}
		if d := now.Sub(since); d > idle {
			idle = d
		}
	}
	// The advice runs the same policy list (and FixedTTL operating point)
	// the policy benchmark races. Those TTLs are virtual-clock scale, as a
	// deployment's clock only advances by served virtual time —
	// wall-scale keep-alives would render the advice constant false.
	info.Policies = trace.Advise(sig, idle, trace.DefaultPolicies()...)
	return info
}

func (s *Server) handleDeployments(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	deps := slices.Collect(maps.Values(s.deployments))
	s.mu.Unlock()

	out := []DeploymentInfo{}
	for _, dep := range deps {
		dep.mu.Lock()
		out = append(out, dep.describe())
		dep.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, out)
}
