package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mwllsc/internal/bench"
)

func TestRunInProcess(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-conns", "1", "-workers", "2", "-dur", "30ms", "-shards", "2", "-words", "1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d\nstderr: %s", code, errOut.String())
	}
	if s := out.String(); !strings.Contains(s, "ops/s") {
		t.Fatalf("unexpected output:\n%s", s)
	}
	if s := errOut.String(); !strings.Contains(s, "in-process llscd") {
		t.Fatalf("no in-process banner on stderr:\n%s", s)
	}
}

func TestRunJSONReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "load.json")
	for _, dst := range []string{path, "-"} {
		var out, errOut bytes.Buffer
		code := run([]string{"-conns", "1", "-workers", "1", "-dur", "30ms", "-shards", "2", "-words", "1", "-json", dst}, &out, &errOut)
		if code != 0 {
			t.Fatalf("-json %s: exit code %d\nstderr: %s", dst, code, errOut.String())
		}
		data := out.Bytes()
		if dst != "-" {
			var err error
			if data, err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
		// The whole output must be one JSON value: a banner before it
		// fails Decode, anything after it shows in More.
		dec := json.NewDecoder(bytes.NewReader(data))
		var report bench.Report
		if err := dec.Decode(&report); err != nil {
			t.Fatalf("-json %s: JSON report does not parse: %v\n%s", dst, err, data)
		}
		if dec.More() {
			t.Fatalf("-json %s: more than one JSON value:\n%s", dst, data)
		}
		if report.Tool != "llscload" {
			t.Fatalf("-json %s: report tool = %q, want llscload", dst, report.Tool)
		}
		if len(report.Experiments) != 1 || report.Experiments[0].ID != "e11" {
			t.Fatalf("-json %s: report experiments: %+v", dst, report.Experiments)
		}
		if len(report.Experiments[0].Records) != 1 {
			t.Fatalf("-json %s: %d records, want 1", dst, len(report.Experiments[0].Records))
		}
	}
}

func TestRunTraceExemplars(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-conns", "1", "-workers", "2", "-dur", "40ms", "-shards", "2", "-words", "1", "-trace", "4"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d\nstderr: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "end-to-end stage breakdown") {
		t.Fatalf("no trace exemplar table:\n%s", s)
	}
	for _, col := range []string{"p50", "p99", "execute us", "wire us"} {
		if !strings.Contains(s, col) {
			t.Fatalf("trace table missing %q:\n%s", col, s)
		}
	}
}

func TestRunErrsColumnInJSON(t *testing.T) {
	// The JSON record must carry the op-error count (zero on a clean
	// run) so a CI smoke can assert on it.
	path := filepath.Join(t.TempDir(), "load.json")
	var out, errOut bytes.Buffer
	code := run([]string{"-conns", "1", "-workers", "1", "-dur", "30ms", "-shards", "2", "-words", "1", "-json", path}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d\nstderr: %s", code, errOut.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report bench.Report
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	rec := report.Experiments[0].Records[0]
	v, ok := rec["errs"]
	if !ok {
		t.Fatalf("record has no errs field: %+v", rec)
	}
	if fmt.Sprintf("%v", v) != "0" {
		t.Fatalf("errs = %v on a clean run", v)
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-nope"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

func TestRunWorkersBelowConns(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-conns", "4", "-workers", "2", "-dur", "10ms"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

func TestRunUnreachableAddr(t *testing.T) {
	var out, errOut bytes.Buffer
	// A reserved port on loopback nothing listens on; dialing must fail fast.
	if code := run([]string{"-addr", "127.0.0.1:1", "-conns", "1", "-workers", "1", "-dur", "10ms"}, &out, &errOut); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
}
