package main

import (
	"bytes"
	"math"
	"testing"
	"time"
)

func TestPkgBucket(t *testing.T) {
	cases := map[string]string{
		"groundhog/internal/core.(*Manager).Restore":     "core",
		"groundhog/internal/vm.(*AddressSpace).PokePage": "vm",
		"groundhog/internal/trace.(*Fleet).Run":          "trace",
		"groundhog/internal/kernel.(*Pipe).Send":         "", // charged to its caller
		"net/http.(*conn).serve":                         "net",
		"net.(*conn).Read":                               "net",
		"internal/poll.(*FD).Read":                       "net",
		"syscall.Syscall6":                               "net",
		"runtime.memmove":                                "",
		"main.(*httpClient).do":                          "",
		"sort.Float64s":                                  "",
	}
	for fn, want := range cases {
		if got := pkgBucket(fn); got != want {
			t.Errorf("pkgBucket(%q) = %q, want %q", fn, got, want)
		}
	}
}

// spin burns CPU in this package for d.
func spin(d time.Duration) float64 {
	x := 1.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	return x
}

var sink float64

func TestFoldProfileOfARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := startProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	sink = spin(400 * time.Millisecond)
	stopProfile()
	shares, samples, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("the profile caught no samples")
	}
	sum := 0.0
	for _, b := range cpuBuckets {
		sum += shares[b]
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Fatalf("shares sum to %v%%, want 100", sum)
	}
	if shares["other"] < 50 {
		t.Fatalf("a spin loop in package main charged only %.1f%% to other: %v", shares["other"], shares)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, _, err := foldProfile([]byte("not gzip")); err == nil {
		t.Fatal("folded a non-gzip profile")
	}
	if _, err := parseProfile([]byte{0x12, 0xff, 0x01}); err == nil {
		t.Fatal("parsed a field whose length runs past the buffer")
	}
}
