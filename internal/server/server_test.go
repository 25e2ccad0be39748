package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"groundhog/internal/faults"
	"groundhog/internal/isolation"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string, out interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func post(t *testing.T, url string, out interface{}) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t)
	var body map[string]string
	resp := get(t, ts.URL+"/healthz", &body)
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", resp.StatusCode, body)
	}
}

func TestFunctionsListsCatalog(t *testing.T) {
	_, ts := testServer(t)
	var fns []FunctionInfo
	get(t, ts.URL+"/functions", &fns)
	if len(fns) != 58 {
		t.Fatalf("functions = %d, want 58", len(fns))
	}
	seen := false
	for _, f := range fns {
		if f.Name == "img-resize (n)" && f.Language == "node" {
			seen = true
		}
	}
	if !seen {
		t.Fatal("img-resize (n) missing from listing")
	}
}

func TestModes(t *testing.T) {
	_, ts := testServer(t)
	var modes []string
	get(t, ts.URL+"/modes", &modes)
	if len(modes) != 5 {
		t.Fatalf("modes = %v", modes)
	}
}

func TestInvokeLifecycle(t *testing.T) {
	_, ts := testServer(t)
	u := ts.URL + "/invoke?fn=" + url.QueryEscape("get-time (p)") + "&mode=gh"

	var first InvokeResponse
	post(t, u, &first)
	if first.ColdStartMS <= 0 {
		t.Fatalf("first invocation should report cold start: %+v", first)
	}
	if !first.Restored || first.RestoreMS <= 0 {
		t.Fatalf("GH invocation did not restore: %+v", first)
	}

	var second InvokeResponse
	post(t, u, &second)
	if second.ColdStartMS != 0 {
		t.Fatalf("warm invocation reported a cold start: %+v", second)
	}
	if second.InvokerMS <= 0 || second.E2EMS <= second.InvokerMS {
		t.Fatalf("implausible latencies: %+v", second)
	}
}

func TestInvokeBaseNeverRestores(t *testing.T) {
	_, ts := testServer(t)
	var resp InvokeResponse
	post(t, ts.URL+"/invoke?fn="+url.QueryEscape("get-time (p)")+"&mode=base", &resp)
	if resp.Restored || resp.RestoreMS != 0 {
		t.Fatalf("BASE restored: %+v", resp)
	}
}

func TestInvokeErrors(t *testing.T) {
	_, ts := testServer(t)
	if resp := post(t, ts.URL+"/invoke?fn=nope&mode=gh", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus fn: %d", resp.StatusCode)
	}
	if resp := post(t, ts.URL+"/invoke?fn="+url.QueryEscape("get-time (n)")+"&mode=fork", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("fork-on-node: %d", resp.StatusCode)
	}
	if resp := get(t, ts.URL+"/invoke?fn=x", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET invoke: %d", resp.StatusCode)
	}
}

func TestDeploymentsListing(t *testing.T) {
	_, ts := testServer(t)
	post(t, ts.URL+"/invoke?fn="+url.QueryEscape("version (p)")+"&mode=gh", nil)
	post(t, ts.URL+"/invoke?fn="+url.QueryEscape("version (p)")+"&mode=gh", nil)
	post(t, ts.URL+"/invoke?fn="+url.QueryEscape("version (p)")+"&mode=base", nil)
	var deps []DeploymentInfo
	get(t, ts.URL+"/deployments", &deps)
	if len(deps) != 2 {
		t.Fatalf("deployments = %d, want 2", len(deps))
	}
	total := 0
	for _, d := range deps {
		total += d.Invoked
		if d.ColdStartMS <= 0 {
			t.Fatalf("deployment without cold start: %+v", d)
		}
	}
	if total != 3 {
		t.Fatalf("invocations = %d, want 3", total)
	}
}

// TestDeploymentsPerFunctionBreakdown: /deployments surfaces the cold-start
// split, the latency summary, and each built-in policy's decisions — the
// per-function view the fleet policies read.
func TestDeploymentsPerFunctionBreakdown(t *testing.T) {
	_, ts := testServer(t)
	u := ts.URL + "/invoke?fn=" + url.QueryEscape("get-time (p)") + "&mode=gh"
	for i := 0; i < 3; i++ {
		post(t, u, nil)
	}
	var deps []DeploymentInfo
	get(t, ts.URL+"/deployments", &deps)
	if len(deps) != 1 {
		t.Fatalf("deployments = %d, want 1", len(deps))
	}
	d := deps[0]
	if d.FullColdStarts != 1 || d.CloneColdStarts != 0 {
		t.Fatalf("cold-start split %d/%d, want 1/0 (the deploy pipeline)",
			d.FullColdStarts, d.CloneColdStarts)
	}
	if d.ColdStartTotalMS <= 0 {
		t.Fatalf("no cold-start bill: %+v", d)
	}
	if d.Restored != 3 {
		t.Fatalf("restored = %d, want 3 (GH restores per request)", d.Restored)
	}
	if d.E2EMeanMS <= 0 || d.E2EP95MS < d.E2EP50MS {
		t.Fatalf("latency summary degenerate: mean=%v p50=%v p95=%v",
			d.E2EMeanMS, d.E2EP50MS, d.E2EP95MS)
	}
	if len(d.Policies) != 3 {
		t.Fatalf("policy advice entries = %d, want 3", len(d.Policies))
	}
	seen := map[string]bool{}
	for _, a := range d.Policies {
		seen[a.Policy] = true
		// ScaleUp may legitimately be 0 here (nothing queued); the floor
		// never is.
		if a.WarmFloor < 1 || a.ScaleUp < 0 {
			t.Fatalf("degenerate advice: %+v", a)
		}
	}
	for _, want := range []string{"fixed-ttl", "slo-aware", "cost-min"} {
		if !seen[want] {
			t.Fatalf("advice missing %q: %+v", want, d.Policies)
		}
	}
}

func TestTrustedCallerOverHTTP(t *testing.T) {
	s, ts := testServer(t)
	s.SetTrustSameCaller(true)
	u := ts.URL + "/invoke?fn=" + url.QueryEscape("md2html (p)") + "&mode=gh&caller="
	var a1, a2, b InvokeResponse
	post(t, u+"alice", &a1)
	post(t, u+"alice", &a2)
	post(t, u+"bob", &b)
	if a2.Restored || a2.RestoreMS != 0 {
		t.Fatalf("same-caller invocation restored: %+v", a2)
	}
	if b.PreRestoreMS <= 0 {
		t.Fatalf("caller switch did not pay deferred restore: %+v", b)
	}
}

// TestInvokeRejectsUnknownMode: bad mode values must fail validation up
// front with a 400 listing the allowed modes, not surface as a deploy error.
func TestInvokeRejectsUnknownMode(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Post(ts.URL+"/invoke?fn="+url.QueryEscape("version (p)")+"&mode=bogus",
		"application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown mode: status %d, want 400", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"bogus", "base", "gh", "fork", "faasm"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("error %q does not mention %q", body, want)
		}
	}
	var deps []DeploymentInfo
	get(t, ts.URL+"/deployments", &deps)
	if len(deps) != 0 {
		t.Fatalf("rejected mode left a deployment behind: %+v", deps)
	}
}

// TestConcurrentInvokes is the regression test for the per-deployment
// locking: invocations of unrelated deployments run concurrently, each
// platform's single-threaded simulation stays serialized, and (under -race)
// no shared state is touched without a lock.
func TestConcurrentInvokes(t *testing.T) {
	_, ts := testServer(t)
	fns := []string{"get-time (p)", "version (p)", "md2html (p)"}
	modes := []string{"gh", "base"}

	var wg sync.WaitGroup
	errs := make(chan error, len(fns)*len(modes)*4)
	for _, fn := range fns {
		for _, mode := range modes {
			u := ts.URL + "/invoke?fn=" + url.QueryEscape(fn) + "&mode=" + mode
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, err := http.Post(u, "application/json", nil)
					if err != nil {
						errs <- err
						return
					}
					defer resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						body, _ := io.ReadAll(resp.Body)
						errs <- fmt.Errorf("%s: status %d: %s", u, resp.StatusCode, body)
					}
				}()
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var deps []DeploymentInfo
	get(t, ts.URL+"/deployments", &deps)
	if len(deps) != len(fns)*len(modes) {
		t.Fatalf("deployments = %d, want %d", len(deps), len(fns)*len(modes))
	}
	for _, d := range deps {
		if d.Invoked != 4 {
			t.Fatalf("deployment %s|%s invoked %d times, want 4", d.Function, d.Mode, d.Invoked)
		}
	}
}

// TestInjectedCrashAnswers503 arms a one-shot request-crash fault on a live
// deployment: the crashed invocation must surface as 503 + Retry-After (the
// request is retryable — the platform tore the container down), the next
// invocation must succeed again after the pool rebuilds, and /deployments
// must report the crash in its recovery counters.
func TestInjectedCrashAnswers503(t *testing.T) {
	s, ts := testServer(t)
	u := ts.URL + "/invoke?fn=" + url.QueryEscape("version (p)") + "&mode=gh"
	post(t, u, nil) // deploy + first request

	dep := s.deployments["version (p)|gh"]
	dep.platform.Kern.Faults = faults.New(faults.Plan{
		Seed:     1,
		Schedule: map[faults.Site][]uint64{faults.SiteRequestCrash: {1}},
	})

	resp := post(t, u, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("crashed invoke: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without a Retry-After header")
	}

	var deps []DeploymentInfo
	get(t, ts.URL+"/deployments", &deps)
	if len(deps) != 1 || deps[0].Crashes != 1 {
		t.Fatalf("deployment listing after crash = %+v, want crashes=1", deps)
	}
}

// TestZeroContainerDeployment: a platform drained by keep-alive expiry
// (RemoveContainer) must not panic the handlers — /deployments reports a
// zero cold start — and /invoke re-pools it with a fresh scale-up, as the
// data plane does, instead of shedding every request.
func TestZeroContainerDeployment(t *testing.T) {
	s, ts := testServer(t)
	u := ts.URL + "/invoke?fn=" + url.QueryEscape("version (p)") + "&mode=gh"
	post(t, u, nil)

	dep := s.deployments["version (p)|gh"]
	if dep == nil {
		t.Fatal("deployment not registered")
	}
	dep.platform.RemoveContainer(dep.platform.Containers()[0])

	var deps []DeploymentInfo
	if resp := get(t, ts.URL+"/deployments", &deps); resp.StatusCode != http.StatusOK {
		t.Fatalf("deployments with zero containers: status %d", resp.StatusCode)
	}
	if len(deps) != 1 || deps[0].ColdStartMS != 0 {
		t.Fatalf("zero-container deployment listing = %+v, want one entry with zero cold start", deps)
	}
	if resp := post(t, u, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("invoke on drained platform: status %d, want 200", resp.StatusCode)
	}
	get(t, ts.URL+"/deployments", &deps)
	if len(deps) != 1 || deps[0].Containers != 1 {
		t.Fatalf("drained deployment after invoke = %+v, want one entry re-pooled to 1 container", deps)
	}
}

func TestDefaultModeIsGH(t *testing.T) {
	_, ts := testServer(t)
	var resp InvokeResponse
	post(t, ts.URL+"/invoke?fn="+url.QueryEscape("version (p)"), &resp)
	if resp.Mode != "gh" {
		t.Fatalf("default mode = %q", resp.Mode)
	}
}

// TestDeploymentsPerHostView: deployments spread least-loaded across the
// simulated hosts, each entry names its host, and host_frames_in_use is the
// host's shared pool — identical for colocated deployments, not a
// per-deployment slice.
func TestDeploymentsPerHostView(t *testing.T) {
	s, ts := testServer(t)
	if err := s.SetHosts(2); err != nil {
		t.Fatal(err)
	}
	for _, fn := range []string{"get-time (p)", "version (p)", "md2html (p)"} {
		post(t, ts.URL+"/invoke?fn="+url.QueryEscape(fn)+"&mode=gh", nil)
	}
	var deps []DeploymentInfo
	get(t, ts.URL+"/deployments", &deps)
	if len(deps) != 3 {
		t.Fatalf("deployments = %d, want 3", len(deps))
	}
	perHost := map[int][]DeploymentInfo{}
	for _, d := range deps {
		if d.Host < 0 || d.Host >= 2 {
			t.Fatalf("deployment %s on host %d, want [0,2)", d.Function, d.Host)
		}
		if d.HostFramesInUse <= 0 {
			t.Fatalf("%s: no host memory reported: %+v", d.Function, d)
		}
		if d.HostFramesInUse < d.FramesInUse {
			t.Fatalf("%s: host pool (%d) below deployment's view (%d)",
				d.Function, d.HostFramesInUse, d.FramesInUse)
		}
		// Single-host-local deployments: the clone split is present and
		// transfer-free (no cross-host pulls on the server).
		if d.TransferCloneColdStarts != 0 {
			t.Fatalf("%s: server deployment paid a transfer clone", d.Function)
		}
		if d.LocalCloneColdStarts != d.CloneColdStarts {
			t.Fatalf("%s: clone split %d local of %d total", d.Function,
				d.LocalCloneColdStarts, d.CloneColdStarts)
		}
		perHost[d.Host] = append(perHost[d.Host], d)
	}
	// Least-loaded over 2 hosts and 3 deployments: both hosts used.
	if len(perHost) != 2 {
		t.Fatalf("3 deployments on 2 hosts used %d host(s)", len(perHost))
	}
	// Colocated deployments report one shared pool figure.
	for host, ds := range perHost {
		for _, d := range ds[1:] {
			if d.HostFramesInUse != ds[0].HostFramesInUse {
				t.Fatalf("host %d: colocated deployments disagree on the pool: %d vs %d",
					host, d.HostFramesInUse, ds[0].HostFramesInUse)
			}
		}
	}
}

// TestSetHostsRejectsLiveResize: once a deployment exists, the host set is
// frozen.
func TestSetHostsRejectsLiveResize(t *testing.T) {
	s, ts := testServer(t)
	if err := s.SetHosts(0); err == nil {
		t.Fatal("SetHosts(0) accepted")
	}
	post(t, ts.URL+"/invoke?fn="+url.QueryEscape("get-time (p)")+"&mode=gh", nil)
	if err := s.SetHosts(8); err == nil {
		t.Fatal("live resize accepted with a registered deployment")
	}
}

// armHost arms (or, with a nil schedule, disarms) the shared kernel of the
// host h's deployment lives on.
func armHost(t *testing.T, h *Handle, sched map[faults.Site][]uint64) {
	t.Helper()
	if err := h.ArmFaults(faults.Plan{Seed: 1, Schedule: sched}); err != nil {
		t.Fatal(err)
	}
}

// TestFailedDeployLeavesNoOrphan: a cold start that fails on /invoke takes
// the deployment out of service for both planes. A data-plane handle cached
// before the failure must not revive a deployment the registry no longer
// lists — its frames would outlive Shutdown.
func TestFailedDeployLeavesNoOrphan(t *testing.T) {
	s, ts := testServer(t)
	if err := s.SetHosts(1); err != nil {
		t.Fatal(err)
	}
	warm, err := s.DataPlane("version (p)", isolation.ModeGH)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Invoke(""); err != nil {
		t.Fatal(err)
	}
	cached, err := s.DataPlane("get-time (p)", isolation.ModeGH)
	if err != nil {
		t.Fatal(err)
	}

	armHost(t, warm, map[faults.Site][]uint64{faults.SiteColdStart: {1, 2, 3, 4}})
	post(t, ts.URL+"/invoke?fn="+url.QueryEscape("get-time (p)")+"&mode=gh", nil)
	armHost(t, warm, nil)

	_, err = cached.Invoke("")
	var deps []DeploymentInfo
	get(t, ts.URL+"/deployments", &deps)
	listed := false
	for _, d := range deps {
		listed = listed || d.Function == "get-time (p)"
	}
	if leaked := s.Shutdown(); leaked != 0 {
		t.Fatalf("Shutdown leaked %d frames", leaked)
	}
	switch {
	case errors.Is(err, ErrGone):
	case err == nil:
		if !listed {
			t.Fatalf("cached handle served a deployment /deployments omits: %+v", deps)
		}
	default:
		t.Fatalf("cached handle after failed deploy: %v, want ErrGone or success", err)
	}
}

// TestTransientDeployFailureAnswers503: a deploy whose cold start exhausts
// its retry budget is retryable — /invoke answers 503 + Retry-After like a
// crash, and the client's retry deploys afresh once the fault clears.
func TestTransientDeployFailureAnswers503(t *testing.T) {
	s, ts := testServer(t)
	if err := s.SetHosts(1); err != nil {
		t.Fatal(err)
	}
	warm, err := s.DataPlane("version (p)", isolation.ModeGH)
	if err != nil {
		t.Fatal(err)
	}
	armHost(t, warm, map[faults.Site][]uint64{faults.SiteColdStart: {1, 2, 3, 4}})

	u := ts.URL + "/invoke?fn=" + url.QueryEscape("get-time (p)") + "&mode=gh"
	resp := post(t, u, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("transient deploy failure: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without a Retry-After header")
	}

	armHost(t, warm, nil)
	var ok InvokeResponse
	if resp := post(t, u, &ok); resp.StatusCode != http.StatusOK || ok.ColdStartMS <= 0 {
		t.Fatalf("retry after the fault cleared: status %d, %+v", resp.StatusCode, ok)
	}
	if leaked := s.Shutdown(); leaked != 0 {
		t.Fatalf("Shutdown leaked %d frames", leaked)
	}
}
