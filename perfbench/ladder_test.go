package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

// telescoping builds a ladder's self times the way traceServing does,
// as differences of adjacent rungs, from per-request rung times.
func telescoping(rungs ...[]float64) map[string][]float64 {
	selfs := map[string][]float64{}
	for k := 0; k+1 < len(rungs); k++ {
		selfs[string(rune('a'+k))] = diff(rungs[k], rungs[k+1])
	}
	selfs["bottom"] = rungs[len(rungs)-1]
	return selfs
}

func TestUnaccountedPctAgreesWithAnUndistortedLadder(t *testing.T) {
	// Client, gateway and server rungs over 101 requests; the independent
	// one-connection window saw the same client p50 the ladder did.
	var client, gw, srv []float64
	for i := 0; i <= 100; i++ {
		x := float64(i % 11)
		client = append(client, 100+x)
		gw = append(gw, 40+x/2)
		srv = append(srv, 30)
	}
	got := unaccountedPct(median(client), telescoping(client, gw, srv))
	if math.Abs(got) > 1 {
		t.Fatalf("unaccounted %.3f%%, want about 0", got)
	}
}

func TestUnaccountedPctFlagsADistortedReplay(t *testing.T) {
	// Interleaving the rungs slowed the ladder's client rung by 30%: its
	// self times still telescope to the rung, but an independently measured
	// client p50 exposes the distortion.
	n := 50
	client, gw := make([]float64, n), make([]float64, n)
	for i := range client {
		client[i], gw[i] = 130, 60
	}
	got := unaccountedPct(100, telescoping(client, gw))
	if math.Abs(got+30) > 1e-9 {
		t.Fatalf("unaccounted %.4f%%, want -30 (the layers over-account)", got)
	}
	if math.Abs(got) <= sumTolerancePct {
		t.Fatal("a 30% distortion passed the sum check")
	}
}

func TestUnaccountedPctFlagsAMissingLayer(t *testing.T) {
	// The composition forgot a 30 us layer of a 100 us request.
	selfs := map[string][]float64{"a": {50, 50, 50}, "b": {20, 20, 20}}
	got := unaccountedPct(100, selfs)
	if math.Abs(got-30) > 1e-9 {
		t.Fatalf("unaccounted %.4f%%, want 30", got)
	}
	if math.Abs(got) <= sumTolerancePct {
		t.Fatal("a 30% gap passed the sum check")
	}
}

func TestDiffAndIsolationSelf(t *testing.T) {
	d := diff([]float64{10, 20, 30}, []float64{1, 5, 30})
	if d[0] != 9 || d[1] != 15 || d[2] != 0 {
		t.Fatalf("diff = %v", d)
	}
	bt := &bottom{
		isoReq:   []float64{10, 12},
		begin:    []float64{1, 1},
		invokeOn: []float64{4, 5},
		restore:  []float64{3, 6},
	}
	s := isoSelf(bt)
	if s[0] != 2 || s[1] != 0 {
		t.Fatalf("isoSelf = %v", s)
	}
}

func TestRunBlocksReplaysEachBlockDownEveryRung(t *testing.T) {
	var order []string
	mk := func(name string) func(int) error {
		return func(i int) error {
			if i%ladderBlock == 5 {
				order = append(order, name)
			}
			return nil
		}
	}
	next, err := runBlocks(5, time.Nanosecond, mk("a"), mk("b"), mk("c"))
	if err != nil {
		t.Fatal(err)
	}
	if next != 5+ladderBlock {
		t.Fatalf("next request %d, want one block of %d after 5", next, ladderBlock)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("rung order %v, want a b c", order)
	}

	boom := errors.New("boom")
	calls := 0
	_, err = runBlocks(0, time.Second, func(i int) error { calls++; return nil }, func(i int) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the rung's error", err)
	}
	if calls != ladderBlock {
		t.Fatalf("first rung ran %d times before the second failed, want %d", calls, ladderBlock)
	}
}
