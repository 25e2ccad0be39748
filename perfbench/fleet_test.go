package main

import (
	"testing"
	"time"

	"groundhog/internal/experiments"
	"groundhog/internal/trace"
)

// TestFleetMixMatchesFleetXLBench pins the benchmark's copy of the
// fleet-xl mix to experiments.FleetXLBench: over the same (quick) window
// and seed, both fleets must produce identical simulation outputs.
func TestFleetMixMatchesFleetXLBench(t *testing.T) {
	cfg := experiments.Default()
	want, err := experiments.FleetXLBench(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	loads, err := fleetLoads()
	if err != nil {
		t.Fatal(err)
	}
	if len(loads) != want.Functions {
		t.Fatalf("%d functions, FleetXLBench has %d", len(loads), want.Functions)
	}
	fl, err := trace.NewFleet(fleetConfig(cfg.Seed, time.Duration(want.WindowMs)*time.Millisecond), loads)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fl.Run()
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Teardown()
	var requests, full, clone, reaped, s2z, evicted int
	for _, f := range res.PerFunction {
		requests += f.Requests
		full += f.FullColdStarts
		clone += f.CloneColdStarts
		reaped += f.Reaped
		s2z += f.ScaledToZero
		evicted += f.ImagesEvicted
	}
	got := [...]int{requests, full, clone, reaped, s2z, evicted, res.PeakFrames, res.EndFrames}
	exp := [...]int{want.Requests, want.FullColdStarts, want.CloneColdStarts, want.Reaped,
		want.ScaledToZero, want.ImagesEvicted, want.PeakFramesInUse, want.EndFrames}
	if got != exp {
		t.Fatalf("requests/full/clone/reaped/s2z/evicted/peak/end frames = %v, FleetXLBench %v", got, exp)
	}
}

func TestFleetJobsDependOnlyOnSeconds(t *testing.T) {
	if fleetJobs(1) != 2 || fleetJobs(10) != 10 || fleetJobs(60) != 60 {
		t.Fatalf("fleetJobs(1, 10, 60) = %d, %d, %d", fleetJobs(1), fleetJobs(10), fleetJobs(60))
	}
	if fleetSeed(3, 0) == fleetSeed(3, 1) || fleetSeed(3, 0) == fleetSeed(4, 0) {
		t.Fatal("fleet job seeds collide")
	}
}

func TestWeightedDraws(t *testing.T) {
	w := []float64{6, 3, 1, 0}
	draws := weightedDraws(w, 20000, 1)
	counts := make([]int, len(w))
	for _, k := range draws {
		counts[k]++
	}
	for k, want := range []float64{0.6, 0.3, 0.1, 0} {
		got := float64(counts[k]) / float64(len(draws))
		if got < want-0.02 || got > want+0.02 {
			t.Errorf("index %d drawn %.3f of the time, want %.2f", k, got, want)
		}
	}
	again := weightedDraws(w, 20000, 1)
	for i := range draws {
		if draws[i] != again[i] {
			t.Fatal("one seed gave two draw sequences")
		}
	}
}
