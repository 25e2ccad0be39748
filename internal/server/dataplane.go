// Data-plane seam: the exported deployment handle internal/gateway routes
// through. The control-plane HTTP handlers (/invoke, /deployments) stay the
// human-facing JSON surface; the gateway's hot path needs the same
// deployment registry and per-deployment serialization without any JSON —
// raw request in, RequestStats out — plus lifecycle operations (undeploy,
// shutdown) a serving front end must survive mid-traffic.

package server

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"groundhog/internal/faas"
	"groundhog/internal/faults"
	"groundhog/internal/isolation"
	"groundhog/internal/metrics"
)

// ErrGone reports an invoke against a deployment that was undeployed (or a
// server that was shut down). The gateway maps it to 404 and drops its
// cached route; a later request re-registers a fresh deployment.
var ErrGone = errors.New("server: deployment gone")

// Handle is an opaque reference to one fn × mode deployment, valid until
// the deployment is undeployed. Handles are cheap and safe to cache: all
// methods serialize on the deployment's own lock, never the server's, so
// unrelated deployments invoke concurrently.
type Handle struct {
	s   *Server
	dep *deployment
}

// DataPlane returns (registering if needed) the invoke handle for
// fn × mode. Unknown functions and modes fail here, so the gateway's hot
// path never re-validates.
func (s *Server) DataPlane(fn string, mode isolation.Mode) (*Handle, error) {
	if !validMode(mode) {
		return nil, fmt.Errorf("unknown mode %q; valid modes: %s", mode, modeList())
	}
	dep, err := s.deployment(fn, mode)
	if err != nil {
		return nil, err
	}
	return &Handle{s: s, dep: dep}, nil
}

// Invoke runs one request from caller against the deployment — the same
// invoke step as the control plane's /invoke: deploy on first use, re-pool
// an empty deployment, run, record. Failures map through HTTPStatus; a
// transient one (an injected crash, exhausted cold-start retries) is the
// caller's cue to answer 503 + Retry-After.
func (h *Handle) Invoke(caller string) (faas.RequestStats, error) {
	h.dep.mu.Lock()
	defer h.dep.mu.Unlock()
	st, _, err := h.s.invoke(h.dep, caller)
	return st, err
}

// ColdStartMeanMs reports the deployment's observed mean cold-start cost in
// milliseconds over every scale-up so far (full pipeline and clones
// pooled), or 0 before the first deploy — the signal the gateway derives
// Retry-After from when it sheds load.
func (h *Handle) ColdStartMeanMs() float64 {
	dep := h.dep
	dep.mu.Lock()
	defer dep.mu.Unlock()
	if dep.platform == nil {
		return 0
	}
	cold := dep.platform.ColdStarts()
	if n := cold.Full + cold.Clone; n > 0 {
		return float64(cold.TotalCost) / 1e6 / float64(n)
	}
	return 0
}

// ArmFaults arms a deterministic fault plan on the deployment's host kernel
// (deploying the platform first if needed). The injector sits on the shared
// host kernel, so colocated deployments on the same host see the same
// seams armed — tests wanting a single blast radius run SetHosts(1) or a
// dedicated function.
func (h *Handle) ArmFaults(plan faults.Plan) error {
	if err := plan.Validate(); err != nil {
		return err
	}
	dep := h.dep
	dep.mu.Lock()
	defer dep.mu.Unlock()
	if _, err := h.s.ensure(dep); err != nil {
		return err
	}
	dep.host.mu.Lock()
	dep.platform.Kern.Faults = faults.New(plan)
	dep.host.mu.Unlock()
	return nil
}

// Undeploy removes fn × mode mid-traffic: the deployment leaves the
// registry, its containers and snapshot image are torn down (frames back to
// the host pool), and cached handles fail with ErrGone. An in-flight invoke
// holding the deployment lock completes and delivers its response first —
// undeploy never loses an accepted request. Returns false when no such
// deployment exists or another removal took it out first.
func (s *Server) Undeploy(fn string, mode isolation.Mode) bool {
	s.mu.Lock()
	dep, ok := s.deployments[deploymentKey(fn, mode)]
	s.mu.Unlock()
	if !ok {
		return false
	}
	dep.mu.Lock()
	defer dep.mu.Unlock()
	return s.remove(dep)
}

// Shutdown undeploys everything and reports the residual frame count across
// all host kernels — zero when no deployment leaked memory (the serving
// analogue of trace.Fleet.Teardown). The server keeps answering after
// shutdown: invokes fail with ErrGone until a new deployment registers.
func (s *Server) Shutdown() int {
	s.mu.Lock()
	deps := slices.Collect(maps.Values(s.deployments))
	hosts := s.hosts
	s.mu.Unlock()

	for _, dep := range deps {
		dep.mu.Lock()
		s.remove(dep)
		dep.mu.Unlock()
	}
	total := 0
	for _, h := range hosts {
		h.mu.Lock()
		total += h.kern.Phys.InUse()
		h.mu.Unlock()
	}
	return total
}

// remove takes dep out of service — the one removal routine behind a failed
// deploy, Undeploy and Shutdown. The registry entry goes (unless a fresh
// deployment already re-registered the key), cached handles fail with
// ErrGone from now on, and the platform is torn down: every container
// removed (address spaces exited, snapshot frame references released) and
// the exported image evicted, frames back to the host pool. Reports false
// when dep was already removed. Caller holds dep.mu; taking s.mu inside
// keeps the lock order acyclic, as no path acquires a deployment lock while
// holding s.mu.
func (s *Server) remove(dep *deployment) bool {
	if dep.gone {
		return false
	}
	dep.gone = true
	s.mu.Lock()
	if s.deployments[dep.key] == dep {
		delete(s.deployments, dep.key)
	}
	s.mu.Unlock()
	if dep.platform == nil {
		return true
	}
	dep.host.mu.Lock()
	for cs := dep.platform.Containers(); len(cs) > 0; cs = dep.platform.Containers() {
		dep.platform.RemoveContainer(cs[0])
	}
	dep.platform.EvictImage()
	dep.host.mu.Unlock()
	return true
}

// record updates the per-deployment request counters after a served
// request. Caller holds dep.mu; both the control plane's /invoke and the
// gateway's Handle.Invoke fold through here so the /deployments listing
// counts every served request once, whichever plane served it.
func (dep *deployment) record(st faas.RequestStats) {
	dep.invoked++
	dep.e2e = metrics.PushBounded(dep.e2e, float64(st.E2E)/1e6, e2eWindow)
	if st.Restored {
		dep.restored++
	}
}
