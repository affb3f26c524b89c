package bench

import (
	"strings"
	"testing"
)

// mkReport builds a one-experiment report in the E11 shape with the
// given ops/s values and an e13-style allocs table.
func mkReport(ops []float64, allocs float64) *Report {
	t := &Table{ID: "e11", Cols: []string{"procs", "conns", "ops/s", "p99 us"}}
	for i, v := range ops {
		t.AddRow(1, i+1, v, 12.5)
	}
	a := &Table{ID: "e13", Cols: []string{"path", "allocs/op"}}
	a.AddRow("server update execute", allocs)
	return NewReport([]*Table{t, a})
}

func TestGatePassesOnIdenticalReports(t *testing.T) {
	base := mkReport([]float64{100000, 200000}, 0)
	res := CompareReports(base, base, GateOptions{})
	if !res.OK() {
		t.Fatalf("identical reports failed the gate: %v", res.Failures)
	}
	if len(res.Warnings) != 0 {
		t.Fatalf("identical reports warned: %v", res.Warnings)
	}
	// Two throughput cells + one alloc cell.
	if res.Checked != 3 {
		t.Fatalf("checked %d cells, want 3", res.Checked)
	}
}

func TestGateWarnsAndFailsOnThroughputLoss(t *testing.T) {
	base := mkReport([]float64{100000, 200000}, 0)

	// 15% loss on one row: inside the warn band, outside the fail band.
	warn := CompareReports(base, mkReport([]float64{85000, 200000}, 0), GateOptions{})
	if !warn.OK() {
		t.Fatalf("15%% loss failed the gate: %v", warn.Failures)
	}
	if len(warn.Warnings) != 1 || !strings.Contains(warn.Warnings[0], "warn band") {
		t.Fatalf("15%% loss warnings = %v, want one warn-band entry", warn.Warnings)
	}

	// 30% loss on one of two rows: the median (15%) stays under the fail
	// band — single-point jitter warns instead of failing.
	point := CompareReports(base, mkReport([]float64{70000, 200000}, 0), GateOptions{})
	if !point.OK() {
		t.Fatalf("single-row 30%% loss failed the gate: %v", point.Failures)
	}

	// 30% loss on every row: the median crosses the fail band.
	fail := CompareReports(base, mkReport([]float64{70000, 140000}, 0), GateOptions{})
	if fail.OK() {
		t.Fatal("across-the-board 30% throughput loss passed the gate")
	}
	if !strings.Contains(fail.Failures[0], "median") {
		t.Fatalf("failure message %q does not name the median rule", fail.Failures[0])
	}

	// 60% loss on one row: past twice the fail band, localized or not,
	// that is a regression.
	crater := CompareReports(base, mkReport([]float64{40000, 200000}, 0), GateOptions{})
	if crater.OK() {
		t.Fatal("a 60% single-row crater passed the gate")
	}

	// Gains never warn.
	gain := CompareReports(base, mkReport([]float64{150000, 300000}, 0), GateOptions{})
	if !gain.OK() || len(gain.Warnings) != 0 {
		t.Fatalf("throughput gain tripped the gate: %v %v", gain.Failures, gain.Warnings)
	}
}

func TestGateFailsOnAnyAllocIncrease(t *testing.T) {
	base := mkReport([]float64{100000}, 0)
	res := CompareReports(base, mkReport([]float64{100000}, 1), GateOptions{})
	if res.OK() {
		t.Fatal("a new hot-path allocation passed the gate")
	}
	if !strings.Contains(res.Failures[0], "allocation-free") {
		t.Fatalf("failure message %q does not name the alloc gate", res.Failures[0])
	}
}

func TestGateMatchesRowsByKeyNotOrder(t *testing.T) {
	base := mkReport([]float64{100000, 200000}, 0)
	cur := mkReport(nil, 0)
	// Same rows, reversed order: keys (procs, conns) must pair them up.
	e11 := &Table{ID: "e11", Cols: []string{"procs", "conns", "ops/s", "p99 us"}}
	e11.AddRow(1, 2, 200000.0, 12.5)
	e11.AddRow(1, 1, 100000.0, 12.5)
	cur.Experiments[0] = e11.JSON()
	res := CompareReports(base, cur, GateOptions{})
	if !res.OK() || len(res.Warnings) != 0 {
		t.Fatalf("reordered rows tripped the gate: %v %v", res.Failures, res.Warnings)
	}
}

func TestGateStructuralMismatchesWarnOnly(t *testing.T) {
	base := mkReport([]float64{100000, 200000}, 0)
	cur := mkReport([]float64{100000}, 0) // second row gone
	cur.Experiments = cur.Experiments[:1] // e13 gone entirely
	res := CompareReports(base, cur, GateOptions{})
	if !res.OK() {
		t.Fatalf("missing rows/experiments failed the gate: %v", res.Failures)
	}
	if len(res.Warnings) != 2 {
		t.Fatalf("warnings = %v, want a missing-row and a missing-experiment entry", res.Warnings)
	}
}

// TestE13AllocsZero runs the real E13 table and requires every gated
// path to be allocation-free — the same bar CI's gate holds the
// committed baseline to.
func TestE13AllocsZero(t *testing.T) {
	tbl, err := E13Allocs(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("e13 has %d rows, want 6", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[1] != "0" {
			t.Errorf("%s: %s allocs/op, want 0", row[0], row[1])
		}
	}
}

func TestBestOfTakesBestCells(t *testing.T) {
	slow := mkReport([]float64{60000, 200000}, 1)
	fast := mkReport([]float64{100000, 150000}, 0)
	best := BestOf(slow, fast)
	// Row 1 throughput from fast, row 2 from slow, allocs from fast.
	res := CompareReports(mkReport([]float64{100000, 200000}, 0), best, GateOptions{})
	if !res.OK() || len(res.Warnings) != 0 {
		t.Fatalf("best-of merge tripped the gate: %v %v", res.Failures, res.Warnings)
	}
	// The merged report's records stay in sync with its rows.
	e11 := best.Experiments[0]
	if e11.Rows[0][2] != e11.Records[0]["ops/s"] {
		t.Fatalf("row %q and record %q diverge", e11.Rows[0][2], e11.Records[0]["ops/s"])
	}
}
