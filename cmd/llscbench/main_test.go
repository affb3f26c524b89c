package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mwllsc/internal/bench"
)

func TestRunSingleExperiment(t *testing.T) {
	if code := run([]string{"-e", "e7", "-dur", "5ms", "-iters", "200", "-impls", "jp,gcptr"}); code != 0 {
		t.Fatalf("exit code %d", code)
	}
}

func TestRunMultipleExperiments(t *testing.T) {
	if code := run([]string{"-e", "e2,e5", "-dur", "5ms", "-iters", "200"}); code != 0 {
		t.Fatalf("exit code %d", code)
	}
}

// TestRunUnknownExperiment: any unknown id fails the run before an
// experiment starts, even next to known ones (e11 is retired).
func TestRunUnknownExperiment(t *testing.T) {
	for _, list := range []string{"e99", "e99,e7", "e11,e12"} {
		if code := run([]string{"-e", list}); code != 2 {
			t.Fatalf("-e %s: exit code %d, want 2", list, code)
		}
	}
}

func TestRunUnknownImpl(t *testing.T) {
	if code := run([]string{"-e", "e7", "-impls", "nonexistent", "-dur", "5ms"}); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
}

func TestRunBadFlag(t *testing.T) {
	if code := run([]string{"-nope"}); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

func TestRunShardExperiments(t *testing.T) {
	if code := run([]string{"-e", "e8,e9", "-dur", "5ms", "-impls", "jp"}); code != 0 {
		t.Fatalf("exit code %d", code)
	}
}

func TestRunDurabilityExperiment(t *testing.T) {
	if code := run([]string{"-e", "e12", "-dur", "5ms"}); code != 0 {
		t.Fatalf("exit code %d", code)
	}
}

func TestRunJSONReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if code := run([]string{"-e", "e7,e9", "-dur", "5ms", "-iters", "200", "-impls", "jp", "-json", path}); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report bench.Report
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("JSON report does not parse: %v", err)
	}
	if report.Tool != "llscbench" || report.GoVersion == "" {
		t.Fatalf("report header incomplete: %+v", report)
	}
	if report.GOMAXPROCS <= 0 || report.NumCPU <= 0 {
		t.Fatalf("report is missing the environment stamp (gomaxprocs=%d num_cpu=%d)",
			report.GOMAXPROCS, report.NumCPU)
	}
	if len(report.Experiments) != 2 {
		t.Fatalf("%d experiments in report, want 2", len(report.Experiments))
	}
	ids := map[string]bool{}
	for _, e := range report.Experiments {
		ids[e.ID] = true
		if len(e.Rows) == 0 || len(e.Records) != len(e.Rows) {
			t.Fatalf("experiment %s has %d rows / %d records", e.ID, len(e.Rows), len(e.Records))
		}
	}
	if !ids["e7"] || !ids["e9"] {
		t.Fatalf("report experiment ids = %v, want e7 and e9", ids)
	}
}

func TestRunJSONToBadPath(t *testing.T) {
	if code := run([]string{"-e", "e7", "-dur", "5ms", "-iters", "200", "-impls", "jp",
		"-json", filepath.Join(t.TempDir(), "no", "such", "dir", "out.json")}); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
}
