package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"groundhog/internal/catalog"
	"groundhog/internal/gateway"
	"groundhog/internal/isolation"
)

// span is one timed call into a layer's public entry point. Spans of one
// request share Req; a child names its parent span.
type span struct {
	Name   string
	Parent string
	Req    int
	Start  time.Time
	End    time.Time
}

// Rung and span names of the ladder, outermost first.
const (
	spanWorkload = "workload.request"   // traced window: the workload's own discipline
	spanClient   = "transport.client"   // workload transport, one connection
	spanGateway  = "gateway.serve"      // Gateway.ServeHTTP / ServeBinaryConn in-process
	spanServer   = "server.invoke"      // server.Handle.Invoke
	spanFaas     = "faas.invoke_once"   // faas.Platform.InvokeOnce, bench-owned platform
	spanIsoReq   = "isolation.request"  // Begin + InvokeOn + End, bench-owned process
	spanIsoBegin = "isolation.begin"    // Strategy.BeginRequest
	spanInvokeOn = "runtimes.invoke_on" // runtimes.Instance.InvokeOn
	spanRestore  = "core.restore"       // Strategy.EndRequest -> core.Manager.Restore
)

// diff returns outer[i] - inner[i]: a layer's self time per request when
// the two rungs replayed the same requests.
func diff(outer, inner []float64) []float64 {
	out := make([]float64, len(outer))
	for i := range out {
		out[i] = outer[i] - inner[i]
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// unaccountedPct is how much of an independently measured client p50 the
// composed ladder (the sum of the layers' p50 self times) leaves
// unaccounted, in percent of that p50; negative when the layers
// over-account.
func unaccountedPct(clientP50 float64, selfs map[string][]float64) float64 {
	sum := 0.0
	for _, s := range selfs {
		sum += median(s)
	}
	return 100 * (clientP50 - sum) / clientP50
}

// sumTolerancePct is how much of the client p50 the ladder may leave
// unaccounted.
const sumTolerancePct = 10

// traceServing is the traced run of a serving workload on the stack the
// set-up left: an untraced window, a traced window (client spans and a CPU
// profile), then the one-connection ladder alternating with untraced
// one-connection windows.
func traceServing(spec servingSpec, seq *sequence, st *stack, cfg runConfig, rep *report) (err error) {
	closed := false
	defer func() {
		if !closed {
			st.close()
		}
	}()
	gw0 := st.gw.Snapshot()

	if err := measure(rep, spec, seq, st, cfg.budget(0.1)); err != nil {
		return err
	}
	rep.heapCheckpoint()
	p50u := rep.e2e["latency_p50_ms"].v

	var prof bytes.Buffer
	rt0 := readRuntime()
	if err := startProfile(&prof); err != nil {
		return err
	}
	traced, err := drive(spec, seq, st, cfg.budget(0.15), true)
	stopProfile()
	rt1 := readRuntime()
	if err != nil {
		return err
	}
	accountDrive(rep, &traced, "traced_")
	gw1 := st.gw.Snapshot()
	if err := recordProfile(rep, prof.Bytes(), cfg, "serving"); err != nil {
		return err
	}
	nt := len(traced.lat)
	rep.layer["go.allocs_per_req"] = value{v: float64(rt1.allocs-rt0.allocs) / float64(max(traced.attempted, 1)), n: traced.attempted}
	rep.layer["go.gc_cpu_fraction"] = value{v: (rt1.gcCPU - rt0.gcCPU) / math.Max(rt1.totalCPU-rt0.totalCPU, 1e-9), n: traced.attempted}
	rep.layer["model.e2e_p50_ms"] = value{v: percentile(traced.model, 50), n: nt}
	rep.layer["model.e2e_p99_ms"] = value{v: percentile(traced.model, 99), n: nt}
	p50t := secondPercentile(traced.lat, traced.sec, 50)
	rep.layer["ladder.overhead_pct"] = value{v: 100 * (p50t - p50u) / p50u, n: nt}

	// The ladder (one connection, one request at a time, every rung
	// replaying the same requests) alternates with untraced one-connection
	// windows, the sum check's reference, so that drifts in machine speed
	// hit both alike.
	lad, rungs, closeLadder, err := newLadder(spec, seq, st)
	if err != nil {
		return err
	}
	solo, err := alternate(spec, seq, st, cfg, rungs)
	closeLadder()
	if err != nil {
		return err
	}
	accountDrive(rep, &solo, "solo_")
	soloP50 := 1000 * percentile(solo.lat, 50)
	n := len(lad.client)
	rep.attempted += n // each ladder request must succeed on every rung, or the run fails
	admitted := (gw1.Served - gw0.Served) + (gw1.Transient - gw0.Transient)
	rejected := gw1.Rejected - gw0.Rejected
	rep.layer["gateway.admitted"] = value{v: float64(admitted), n: int(admitted + rejected)}
	rep.layer["gateway.rejected"] = value{v: float64(rejected), n: int(admitted + rejected)}
	rep.layer["gateway.transient"] = value{v: float64(gw1.Transient - gw0.Transient), n: int(admitted + rejected)}
	rep.layer["gateway.shed_ratio"] = value{v: float64(rejected) / math.Max(float64(admitted+rejected), 1), n: int(admitted + rejected)}
	rep.layer["transport.self_us"] = value{v: median(diff(lad.client, lad.gateway)), n: n}
	rep.layer["gateway.self_us"] = value{v: median(diff(lad.gateway, lad.server)), n: n}
	rep.layer["gateway.allocs_per_req"] = value{v: (float64(lad.gatewayAllocs) - float64(lad.serverAllocs)) / float64(n), n: n}
	rep.layer["server.invoke_us"] = value{v: median(lad.server), n: n}
	rep.layer["server.invoke_p99_us"] = value{v: percentile(lad.server, 99), n: n}
	rep.layer["server.self_us"] = value{v: median(diff(lad.server, lad.bot.faas)), n: n}
	lad.bot.record(rep, lad.targets)

	unaccounted := unaccountedPct(soloP50, map[string][]float64{
		"transport": diff(lad.client, lad.gateway),
		"gateway":   diff(lad.gateway, lad.server),
		"server":    diff(lad.server, lad.bot.faas),
		"faas":      diff(lad.bot.faas, lad.bot.isoReq),
		"isolation": isoSelf(lad.bot),
		"begin":     lad.bot.begin,
		"invoke_on": lad.bot.invokeOn,
		"restore":   lad.bot.restore,
	})
	rep.layer["ladder.unaccounted_pct"] = value{v: unaccounted, n: n}
	rep.check("ladder_sum_within_10pct", math.Abs(unaccounted) <= sumTolerancePct,
		"layer self times (%d ladder requests) leave %.2f%% of the %.1f us one-connection client p50 (%d requests) unaccounted",
		n, unaccounted, soloP50, len(solo.lat))
	predictSplit(rep, lad)

	spans := append(traced.spans, lad.spans...)
	spans = append(spans, lad.bot.spans...)
	if err := writeSpans(cfg, spans); err != nil {
		return err
	}

	leaked := 0
	for _, b := range lad.targets {
		leaked += b.teardown()
	}
	closed = true
	leaked += st.close()
	rep.check("shutdown_leaks_zero_frames", leaked == 0, "%d frames left after Server.Shutdown and bench-owned teardown", leaked)
	return nil
}

// alternate runs ladderRounds rounds of an untraced one-connection window
// followed by ladder blocks, and returns the windows' merged outcome.
func alternate(spec servingSpec, seq *sequence, st *stack, cfg runConfig, rungs []func(int) error) (windowResult, error) {
	var solo windowResult
	for r, next := 0, 0; r < ladderRounds; r++ {
		w, err := drive(spec, seq, st, cfg.budget(0.25/ladderRounds), false)
		if err != nil {
			return solo, err
		}
		solo.merge(&w.tally)
		if next, err = runBlocks(next, cfg.budget(0.5/ladderRounds), rungs...); err != nil {
			return solo, err
		}
	}
	return solo, nil
}

// predictSplit prints the split the workloads were chosen for: transport
// and gateway are most of a native-http request, restore is most of a
// node-binary request.
func predictSplit(rep *report, lad *ladder) {
	client := median(lad.client)
	front := median(diff(lad.client, lad.gateway)) + median(diff(lad.gateway, lad.server))
	restore := median(lad.bot.restore)
	rep.note("split: transport+gateway %.1f%%, core.restore %.1f%% of the one-connection client p50 (%.1f us)",
		100*front/client, 100*restore/client, client)
}

// ladder holds the serving rungs' durations (µs), indexed by request.
type ladder struct {
	client, gateway, server     []float64
	gatewayAllocs, serverAllocs uint64
	targets                     []*benchTarget
	bot                         *bottom
	spans                       []span
}

// ladderBlock is how many requests one rung serves before the next rung
// replays the same requests: short enough that slow drifts in machine
// speed hit every rung of a block alike, keeping per-request differences
// sharp, and long enough that switching between the rungs' processes does
// not slow them. On node-binary, whose rungs switch between three
// 157K-page processes, blocks of 8 made the ladder's client rung 5-20%
// slower than an uninterrupted connection and blocks of 2 about 20%;
// blocks of 32 kept it within 3%.
const ladderBlock = 32

// ladderRounds is how many times the traced run alternates between the
// ladder and the one-connection reference window.
const ladderRounds = 16

// runBlocks calls each rung, in order, on one block of requests starting
// at request start, then on the next block, until d has passed (at least
// one block), and returns the first request it did not serve.
func runBlocks(start int, d time.Duration, rungs ...func(i int) error) (int, error) {
	deadline := time.Now().Add(d)
	for n := start; ; {
		for _, rung := range rungs {
			for i := n; i < n+ladderBlock; i++ {
				if err := rung(i); err != nil {
					return n, err
				}
			}
		}
		n += ladderBlock
		if !time.Now().Before(deadline) {
			return n, nil
		}
	}
}

// newLadder returns the ladder's rungs, outermost first, each sending one
// request of the sequence: over one client connection, in-process through
// the gateway, through server.Handle.Invoke, then through the bench-owned
// platform and process. The returned close releases the rungs'
// connections; the bench-owned targets are torn down separately.
func newLadder(spec servingSpec, seq *sequence, st *stack) (*ladder, []func(int) error, func(), error) {
	lad := &ladder{bot: &bottom{}}
	e, err := catalog.Lookup(spec.fn)
	if err != nil {
		return nil, nil, nil, err
	}
	target, err := newBenchTarget(e.Prof)
	if err != nil {
		return nil, nil, nil, err
	}
	lad.targets = []*benchTarget{target}
	handle, err := st.srv.DataPlane(spec.fn, isolation.ModeGH)
	if err != nil {
		return nil, nil, nil, err
	}
	c, err := dial(spec, st)
	if err != nil {
		return nil, nil, nil, err
	}
	gwCall, closeGW, err := inProcessGateway(spec, st.gw)
	if err != nil {
		c.close()
		return nil, nil, nil, err
	}

	allocs := newAllocCounter()
	client := func(i int) error {
		body := seq.at(i)
		t0 := time.Now()
		_, o, err := c.do(body)
		t1 := time.Now()
		if o != outOK {
			return fmt.Errorf("client rung, request %d: outcome %d: %v", i, o, err)
		}
		lad.client = append(lad.client, us(t1.Sub(t0)))
		lad.spans = append(lad.spans, span{Name: spanClient, Req: i, Start: t0, End: t1})
		return nil
	}
	gateway := func(i int) error {
		body := seq.at(i)
		a0 := allocs.read()
		t0 := time.Now()
		err := gwCall(body)
		t1 := time.Now()
		lad.gatewayAllocs += allocs.read() - a0
		if err != nil {
			return fmt.Errorf("gateway rung, request %d: %w", i, err)
		}
		lad.gateway = append(lad.gateway, us(t1.Sub(t0)))
		lad.spans = append(lad.spans, span{Name: spanGateway, Req: i, Start: t0, End: t1})
		return nil
	}
	serverRung := func(i int) error {
		a0 := allocs.read()
		t0 := time.Now()
		_, err := handle.Invoke("")
		t1 := time.Now()
		lad.serverAllocs += allocs.read() - a0
		if err != nil {
			return fmt.Errorf("server rung, request %d: %w", i, err)
		}
		lad.server = append(lad.server, us(t1.Sub(t0)))
		lad.spans = append(lad.spans, span{Name: spanServer, Req: i, Start: t0, End: t1})
		return nil
	}
	faasRung := func(i int) error { return lad.bot.faasStep(lad.targets, i, 0) }
	isoRung := func(i int) error { return lad.bot.isoStep(lad.targets, i, 0, allocs) }
	return lad, []func(int) error{client, gateway, serverRung, faasRung, isoRung},
		func() { c.close(); closeGW() }, nil
}

// inProcessGateway returns a call that drives the gateway without a
// kernel socket: Gateway.ServeHTTP with a reused request and recorder, or
// ServeBinaryConn over net.Pipe with the reference client. Both check the
// echo byte for byte. The returned close waits for the pipe's server
// goroutine.
func inProcessGateway(spec servingSpec, gw *gateway.Gateway) (func(body []byte) error, func(), error) {
	if spec.transport == "binary" {
		cli, srv := net.Pipe()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = gw.ServeBinaryConn(srv) // returns when the client side closes
		}()
		stop := func() { cli.Close(); wg.Wait() }
		bc := gateway.NewBinaryClient(cli)
		id, err := bc.Resolve(spec.fn, isolation.ModeGH)
		if err != nil {
			stop()
			return nil, nil, err
		}
		return func(body []byte) error {
			res, err := bc.Invoke(id, "", body)
			if err != nil {
				return err
			}
			if !bytes.Equal(res.Body, body) {
				return fmt.Errorf("echo mismatch")
			}
			return nil
		}, stop, nil
	}

	var rd bytes.Reader
	req := &http.Request{
		Method: http.MethodPost,
		URL:    &url.URL{Path: "/fn/" + spec.fn},
		Header: http.Header{},
		Body:   io.NopCloser(&rd),
	}
	rec := &recorder{h: http.Header{}}
	return func(body []byte) error {
		rd.Reset(body)
		rec.status = 0
		rec.body.Reset()
		gw.ServeHTTP(rec, req)
		if rec.status != http.StatusOK {
			return fmt.Errorf("status %d: %s", rec.status, rec.body.String())
		}
		if !bytes.Equal(rec.body.Bytes(), body) {
			return fmt.Errorf("echo mismatch")
		}
		return nil
	}, func() {}, nil
}

// recorder is a reusable http.ResponseWriter for in-process serving.
type recorder struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.h }
func (r *recorder) WriteHeader(s int)   { r.status = s }
func (r *recorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(b)
}

// runtimeCounters are the process-wide runtime figures a traced window
// differences.
type runtimeCounters struct {
	allocs          uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{allocs: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}

// writeSpans dumps the run's spans as JSON lines (times in ns since the
// first span) under cfg.out.
func writeSpans(cfg runConfig, spans []span) (err error) {
	if len(spans) == 0 {
		return nil
	}
	epoch := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	f, err := os.Create(filepath.Join(cfg.out, fmt.Sprintf("%s-spans-seed%d.jsonl", cfg.workload, cfg.seed)))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(struct {
			Name   string `json:"name"`
			Parent string `json:"parent,omitempty"`
			Req    int    `json:"req"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{s.Name, s.Parent, s.Req, int64(s.Start.Sub(epoch)), int64(s.End.Sub(epoch))}); err != nil {
			return err
		}
	}
	return w.Flush()
}
