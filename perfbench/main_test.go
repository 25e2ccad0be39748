package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// runJSON runs the benchmark in-process and decodes its last output line.
func runJSON(t *testing.T, args ...string) (int, result) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(append(args, "--out", t.TempDir()), &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if code == 0 {
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
		}
	}
	if code != 0 {
		t.Logf("stdout:\n%s\nstderr:\n%s", out.String(), errb.String())
	}
	return code, res
}

func TestRunPrintsEveryEndToEndMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the live serving stack")
	}
	code, res := runJSON(t, "--workload", "native-http", "--seed", "2", "--seconds", "1", "--trace", "0")
	if code != 0 || !res.Correct {
		t.Fatalf("exit %d, correct %v", code, res.Correct)
	}
	if res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("attempted %d, failed %d", res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Fatalf("%d metrics, want the %d end-to-end ones", len(res.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit || m.Value <= 0 {
			t.Errorf("%s: %+v (present %v), want a positive value in %s", d.name, m, ok, d.unit)
		}
	}
}

func TestTracedRunPrintsEveryPerLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the live serving stack")
	}
	code, res := runJSON(t, "--workload", "native-http", "--seed", "2", "--seconds", "2", "--trace", "1")
	if code != 0 || !res.Correct {
		t.Fatalf("exit %d, correct %v", code, res.Correct)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Fatalf("%d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
	}
	for _, name := range []string{"transport.self_us", "server.invoke_us", "core.restore_us", "runtimes.invoke_on_us"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v on native-http", name, res.Metrics[name].Value)
		}
	}
	if got := res.Metrics["core.mapped_pages"].Value; got < 900 || got > 1100 {
		t.Errorf("bicg restores walk %v mapped pages, want about 1K", got)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "native-http", "--seconds", "0"},
		{"--workload", "native-http", "--trace", "2"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
