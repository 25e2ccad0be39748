package main

import (
	"bytes"
	"testing"
	"time"
)

func TestSequenceIsAPureFunctionOfSeedAndIndex(t *testing.T) {
	spec := servingSpec{fn: "f", bodyBytes: 16}
	s1, s2 := newSequence(spec, 7), newSequence(spec, 7)
	distinct := map[string]bool{}
	for i := 0; i < 3000; i++ {
		b1, b2 := s1.at(i), s2.at(i)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("request %d differs between two sequences of one seed", i)
		}
		if len(b1) != spec.bodyBytes {
			t.Fatalf("body of %d bytes, want %d", len(b1), spec.bodyBytes)
		}
		distinct[string(b1)] = true
	}
	if len(distinct) != payloadCount {
		t.Fatalf("3000 requests used %d distinct bodies, want all %d", len(distinct), payloadCount)
	}
	other := newSequence(spec, 8)
	if bytes.Equal(other.payloads[0], s1.payloads[0]) && bytes.Equal(other.payloads[1], s1.payloads[1]) {
		t.Fatal("different seeds gave the same payloads")
	}
}

// fakeClient serves every request in a fixed time and records which
// requests it was sent, in order.
type fakeClient struct {
	service time.Duration
	echo    bool
	sent    [][]byte
}

func (f *fakeClient) do(body []byte) (float64, outcome, error) {
	f.sent = append(f.sent, body)
	time.Sleep(f.service)
	if !f.echo {
		return 0, outBadEcho, nil
	}
	return 1.5, outOK, nil
}

func (f *fakeClient) close() {}

func TestClosedLoopTimesEveryRequestInOrder(t *testing.T) {
	spec := servingSpec{fn: "f", bodyBytes: 8}
	seq := newSequence(spec, 1)
	c := &fakeClient{service: 2 * time.Millisecond, echo: true}
	res := closedLoop(seq, c, 60*time.Millisecond, true)
	if res.ok == 0 || res.ok != res.attempted || res.lost() != 0 {
		t.Fatalf("ok %d of %d attempted, %d lost", res.ok, res.attempted, res.lost())
	}
	if len(res.lat) != res.ok || len(res.model) != res.ok || len(res.spans) != res.attempted {
		t.Fatalf("%d latencies, %d modeled, %d spans for %d requests", len(res.lat), len(res.model), len(res.spans), res.ok)
	}
	if p := percentile(res.lat, 1); p < 2 {
		t.Fatalf("a request took %.3f ms, less than its 2 ms service", p)
	}
	if len(c.sent) != res.attempted {
		t.Fatalf("client sent %d requests, %d attempted", len(c.sent), res.attempted)
	}
	for i, s := range res.spans {
		if s.Req != i || !bytes.Equal(c.sent[i], seq.at(i)) {
			t.Fatalf("span %d is request %d; body sent matches the sequence: %v", i, s.Req, bytes.Equal(c.sent[i], seq.at(i)))
		}
		if i > 0 && s.Start.Before(res.spans[i-1].End) {
			t.Fatalf("request %d started before request %d ended", i, i-1)
		}
	}
}

func TestClosedLoopCountsBadEchoes(t *testing.T) {
	spec := servingSpec{fn: "f", bodyBytes: 8}
	res := closedLoop(newSequence(spec, 1), &fakeClient{service: time.Millisecond}, 50*time.Millisecond, false)
	if res.badEcho == 0 || res.badEcho != res.attempted || res.ok != 0 {
		t.Fatalf("bad echoes %d, ok %d of %d attempted", res.badEcho, res.ok, res.attempted)
	}
	if res.failed() != res.attempted {
		t.Fatalf("failed %d, want %d", res.failed(), res.attempted)
	}
}
