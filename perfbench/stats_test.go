package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	ramp := make([]float64, 100)
	for i := range ramp {
		ramp[i] = float64(100 - i) // unsorted on purpose
	}
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"empty", nil, 50, 0},
		{"single p50", []float64{7}, 50, 7},
		{"single p99", []float64{7}, 99, 7},
		{"even set takes the lower middle", []float64{4, 1, 3, 2}, 50, 2},
		{"odd set", []float64{5, 1, 3}, 50, 3},
		{"ramp p50", ramp, 50, 50},
		{"ramp p99", ramp, 99, 99},
		{"ramp p100", ramp, 100, 100},
		{"ramp p1", ramp, 1, 1},
		{"ties", []float64{2, 2, 2, 9}, 75, 2},
		{"p99 of ten is the max", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 99, 10},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("%s: percentile(%v) = %v, want %v", c.name, c.p, got, c.want)
		}
	}
}

func TestPercentileLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("percentile reordered its input: %v", xs)
	}
}

func TestSplitmixIsDeterministic(t *testing.T) {
	a, b := splitmix{state: 42}, splitmix{state: 42}
	c := splitmix{state: 43}
	same := true
	for i := 0; i < 100; i++ {
		x, y, z := a.next(), b.next(), c.next()
		if x != y {
			t.Fatalf("draw %d differs for one seed: %d vs %d", i, x, y)
		}
		if x != z {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave the same stream")
	}
}

func TestSecondPercentileReportsATypicalSecond(t *testing.T) {
	// Ten seconds of 100 requests at 10 ms, one of them hit by a burst that
	// makes a third of its requests take 100 ms: the whole window's p95 is
	// the burst, the typical second's p95 is not.
	var xs []float64
	var sec []int32
	for s := int32(0); s < 10; s++ {
		for i := 0; i < 100; i++ {
			x := 10.0 + float64(i%5)
			if s == 4 && i%3 == 0 {
				x = 100
			}
			xs = append(xs, x)
			sec = append(sec, s)
		}
	}
	if got := percentile(xs, 99); got != 100 {
		t.Fatalf("whole-window p99 %v, want the burst's 100", got)
	}
	if got := secondPercentile(xs, sec, 99); got != 14 {
		t.Fatalf("per-second p99 %v, want a typical second's 14", got)
	}
	if got := secondPercentile(xs, sec, 50); got != 12 {
		t.Fatalf("per-second p50 %v, want 12", got)
	}
}

func TestSecondPercentileSkipsSparseSeconds(t *testing.T) {
	// One full second and a trailing second with too few samples to count.
	xs := []float64{}
	sec := []int32{}
	for i := 0; i < minSecondSamples; i++ {
		xs, sec = append(xs, 5), append(sec, 0)
	}
	xs, sec = append(xs, 50, 50, 50), append(sec, 1, 1, 1)
	if got := secondPercentile(xs, sec, 95); got != 5 {
		t.Fatalf("p95 %v, want 5 from the only full second", got)
	}
	// A window too short for any full second falls back to all samples.
	if got := secondPercentile([]float64{1, 2, 3}, []int32{0, 0, 0}, 50); got != 2 {
		t.Fatalf("fallback p50 %v, want 2", got)
	}
}
