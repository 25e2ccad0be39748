package main

import (
	"fmt"
	"time"
)

// servingSpec describes one serving workload's traffic: a closed loop of
// requests to one catalog function over one connection, so one request is
// in flight at a time.
type servingSpec struct {
	fn        string // catalog function every request calls
	transport string // "http" or "binary"
	warmup    int    // requests served after set-up, before any timed window
	bodyBytes int
}

var nativeHTTP = servingSpec{
	fn: "bicg (c)", transport: "http", warmup: 2000, bodyBytes: 512,
}

var nodeBinary = servingSpec{
	fn: "get-time (n)", transport: "binary", warmup: 20, bodyBytes: 512,
}

// payloadCount is how many distinct request bodies a sequence draws from.
const payloadCount = 64

// sequence is a workload's request stream, a pure function of the seed:
// request i's body never depends on timing, so every rung of the traced
// ladder replays exactly the requests the client sent.
type sequence struct {
	spec     servingSpec
	seed     uint64
	payloads [][]byte
}

func newSequence(spec servingSpec, seed uint64) *sequence {
	r := splitmix{state: seed}
	s := &sequence{spec: spec, seed: seed}
	for i := 0; i < payloadCount; i++ {
		b := make([]byte, spec.bodyBytes)
		for j := range b {
			b[j] = byte(r.next())
		}
		s.payloads = append(s.payloads, b)
	}
	return s
}

// at returns request i's body.
func (s *sequence) at(i int) []byte {
	r := splitmix{state: s.seed ^ (uint64(i)+1)*0xd1b54a32d192ed03}
	return s.payloads[r.intn(payloadCount)]
}

// tally accounts every request into exactly one outcome class.
type tally struct {
	attempted, ok, rejected, transient, errors, badEcho int
	lat                                                 []float64 // client latency of OK requests, ms
	sec                                                 []int32   // second of the window each OK request ended in
	model                                               []float64 // modeled E2E of OK requests, virtual ms
	firstErr                                            string
}

func (t *tally) add(o outcome, latMs, modelMs float64, sec int32, err error) {
	switch o {
	case outOK:
		t.ok++
		t.lat = append(t.lat, latMs)
		t.sec = append(t.sec, sec)
		t.model = append(t.model, modelMs)
	case outRejected:
		t.rejected++
	case outTransient:
		t.transient++
	case outBadEcho:
		t.badEcho++
	default:
		t.errors++
	}
	if err != nil && t.firstErr == "" {
		t.firstErr = err.Error()
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.ok += o.ok
	t.rejected += o.rejected
	t.transient += o.transient
	t.errors += o.errors
	t.badEcho += o.badEcho
	t.lat = append(t.lat, o.lat...)
	t.sec = append(t.sec, o.sec...)
	t.model = append(t.model, o.model...)
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// lost counts requests attempted but never accounted to a class.
func (t *tally) lost() int {
	return t.attempted - t.ok - t.rejected - t.transient - t.errors - t.badEcho
}

// failed counts every request that did not end in a verified response.
func (t *tally) failed() int { return t.attempted - t.ok }

// windowResult is one timed window's outcome.
type windowResult struct {
	tally
	wall  time.Duration
	spans []span // client spans, when traced
}

// drive runs a closed loop over one new connection to st for d. With
// traced set, every request also records a client span.
func drive(spec servingSpec, seq *sequence, st *stack, d time.Duration, traced bool) (windowResult, error) {
	c, err := dial(spec, st)
	if err != nil {
		return windowResult{}, fmt.Errorf("dial: %w", err)
	}
	defer c.close()
	return closedLoop(seq, c, d, traced), nil
}

// closedLoop sends the sequence's requests over c in order, starting at 0,
// each the moment the previous response is verified, until d has passed.
func closedLoop(seq *sequence, c client, d time.Duration, traced bool) windowResult {
	var res windowResult
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		res.attempted++
		t0 := time.Now()
		model, o, err := c.do(seq.at(i))
		t1 := time.Now()
		res.add(o, ms(t1.Sub(t0)), model, int32(t1.Sub(start)/time.Second), err)
		if traced {
			res.spans = append(res.spans, span{Name: spanWorkload, Req: i, Start: t0, End: t1})
		}
	}
	res.wall = time.Since(start)
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
