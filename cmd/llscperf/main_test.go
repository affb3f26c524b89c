package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchSpec is BENCHMARK.json at the repository root.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec benchSpec
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// printed maps "workload metric" to the unit each printed metric line
// carries.
func printed(t *testing.T, out string) map[string]string {
	t.Helper()
	units := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 5 || !strings.HasPrefix(f[4], "n=") {
			continue
		}
		if !metricName.MatchString(f[1]) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", f[1])
		}
		units[f[0]+" "+f[1]] = f[3]
	}
	return units
}

// lastJSON parses the final line of out, the benchmark's result.
func lastJSON(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	return res
}

func runSmoke(t *testing.T, args ...string) string {
	t.Helper()
	defer func(n uint64) { minSamples = n }(minSamples)
	minSamples = 10
	var out, errb bytes.Buffer
	args = append([]string{"-seconds", "0.2"}, args...)
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("llscperf %v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, out.String(), errb.String())
	}
	return out.String()
}

func TestSmokeEveryWorkloadPrintsTheBenchmarkMetrics(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for i, w := range spec.Workloads {
		if i >= len(names) || w.Name != names[i] {
			t.Fatalf("BENCHMARK.json workloads %v, the command runs %v", spec.Workloads, names)
		}
	}
	dir := t.TempDir()

	out := runSmoke(t, "-json", filepath.Join(dir, "report.json"))
	units, res := printed(t, out), lastJSON(t, out)
	if !res.Correct || res.Attempted == 0 {
		t.Errorf("result %+v", res)
	}
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			if u, ok := units[w.Name+" "+m.Name]; !ok || u != m.Unit {
				t.Errorf("%s %s printed with unit %q, BENCHMARK.json says %q", w.Name, m.Name, u, m.Unit)
			}
			if jm, ok := res.Metrics[w.Name+"."+m.Name]; !ok || jm.Unit != m.Unit || jm.Value <= 0 {
				t.Errorf("%s %s in the JSON result as %+v", w.Name, m.Name, jm)
			}
		}
	}
	var report map[string]any
	if data, err := os.ReadFile(filepath.Join(dir, "report.json")); err != nil || json.Unmarshal(data, &report) != nil {
		t.Errorf("-json report unreadable: %v", err)
	}

	spans := filepath.Join(dir, "spans.json")
	out = runSmoke(t, "-trace", spans)
	units, res = printed(t, out), lastJSON(t, out)
	for _, w := range spec.Workloads {
		for _, m := range spec.PerLayer {
			if u, ok := units[w.Name+" "+m.Name]; !ok || u != m.Unit {
				t.Errorf("traced %s %s printed with unit %q, BENCHMARK.json says %q", w.Name, m.Name, u, m.Unit)
			}
			if _, ok := res.Metrics[w.Name+"."+m.Name]; !ok {
				t.Errorf("traced %s %s missing from the JSON result", w.Name, m.Name)
			}
		}
	}
	var recorded struct {
		Spans []span `json:"spans"`
	}
	if data, err := os.ReadFile(spans); err != nil || json.Unmarshal(data, &recorded) != nil || len(recorded.Spans) == 0 {
		t.Fatalf("spans file unreadable or empty: %v", err)
	}
	seen := map[string]bool{}
	for _, s := range recorded.Spans {
		seen[s.Name] = true
	}
	for _, name := range []string{"shard.update", "core.ll", "client.update", "server.execute", "persist.fsync"} {
		if !seen[name] {
			t.Errorf("no %s span recorded", name)
		}
	}
}

func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-seconds", "0"},
		{"-bogus"},
		{"extra"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("llscperf %v exited %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("llscperf %v printed %q", args, out.String())
		}
	}
}
