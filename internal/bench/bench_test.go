package bench

import (
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mwllsc/internal/impls"
)

// fast options keep the experiment smoke tests quick.
func fast() Options {
	return Options{Dur: 5 * time.Millisecond, Iters: 300}
}

func TestTableFormatting(t *testing.T) {
	tb := &Table{Title: "demo", Note: "note", Cols: []string{"a", "bb"}}
	tb.AddRow(1, 2.5)
	tb.AddRow("x", 1234567.0)
	var sb strings.Builder
	tb.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"## demo", "note", "a", "bb", "2.5", "1.23e+06"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Title: "csv demo", Cols: []string{"a", "b"}}
	tb.AddRow("plain", 1.5)
	tb.AddRow(`quo"ted,cell`, 2)
	var sb strings.Builder
	tb.FprintCSV(&sb)
	out := sb.String()
	for _, want := range []string{"# csv demo", "a,b", "plain,1.5", `"quo""ted,cell",2`} {
		if !strings.Contains(out, want) {
			t.Fatalf("CSV missing %q:\n%s", want, out)
		}
	}
}

func TestMeasureLatencyRuns(t *testing.T) {
	f, err := impls.ByName(impls.JP)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := MeasureLatency(f, 4, 8, 500)
	if err != nil {
		t.Fatal(err)
	}
	if lat.LL <= 0 || lat.VL <= 0 {
		t.Fatalf("non-positive latencies: %+v", lat)
	}
}

func TestThroughputRuns(t *testing.T) {
	f, err := impls.ByName(impls.JP)
	if err != nil {
		t.Fatal(err)
	}
	ops, frac, err := Throughput(f, 4, 4, 2, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ops <= 0 {
		t.Fatal("zero throughput")
	}
	if frac <= 0 || frac > 1 {
		t.Fatalf("implausible success fraction %v", frac)
	}
	if _, _, err := Throughput(f, 2, 4, 4, time.Millisecond); err == nil {
		t.Fatal("accepted g > n")
	}
}

// TestRunWorkersSumsCounts: each worker spins until stop and reports
// (i+1, 2(i+1)) once; the runner must sum them and time the whole window.
func TestRunWorkersSumsCounts(t *testing.T) {
	const dur = 20 * time.Millisecond
	secs, a, b := runWorkers(3, dur, func(i int, stop *atomic.Bool) (int64, int64) {
		for !stop.Load() {
			runtime.Gosched()
		}
		return int64(i + 1), int64(2 * (i + 1))
	})
	if a != 6 || b != 12 {
		t.Fatalf("sums = (%d, %d), want (6, 12)", a, b)
	}
	if secs < dur.Seconds() {
		t.Fatalf("elapsed %vs, shorter than the %v window", secs, dur)
	}
}

func TestAllocsPerRoundJPIsZero(t *testing.T) {
	f, err := impls.ByName(impls.JP)
	if err != nil {
		t.Fatal(err)
	}
	allocs, err := AllocsPerRound(f, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("paper's algorithm allocated %v per round on tagged substrate, want 0", allocs)
	}
}

func TestAllocsPerRoundGCPtrPositive(t *testing.T) {
	f, err := impls.ByName("gcptr")
	if err != nil {
		t.Fatal(err)
	}
	allocs, err := AllocsPerRound(f, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if allocs < 1 {
		t.Fatalf("gcptr allocated %v per round, want >= 1", allocs)
	}
}

// TestAllExperimentsBuild smoke-runs every experiment at tiny scale; the
// goal is that the full harness can always regenerate every table.
func TestAllExperimentsBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow-ish; skipped with -short")
	}
	o := fast()
	o.Impls = []string{"jp", "amstyle"} // keep the smoke test fast
	for _, e := range Experiments {
		name := strings.ToUpper(e.ID)
		t.Run(name, func(t *testing.T) {
			tb, err := e.Build(o)
			if err != nil {
				t.Fatal(err)
			}
			if len(tb.Rows) == 0 {
				t.Fatal("empty table")
			}
			var sb strings.Builder
			tb.Fprint(&sb)
			if !strings.Contains(sb.String(), name+":") {
				t.Fatalf("table title missing experiment id:\n%s", sb.String())
			}
		})
	}
}

// TestE2SpaceRatioGrowsWithN pins the headline: the amstyle/jp paper-word
// ratio must increase monotonically in N for fixed W (it is Θ(N)).
func TestE2SpaceRatioGrowsWithN(t *testing.T) {
	jp, err := impls.ByName(impls.JP)
	if err != nil {
		t.Fatal(err)
	}
	am, err := impls.ByName("amstyle")
	if err != nil {
		t.Fatal(err)
	}
	const w = 16
	prev := 0.0
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		js, err := SpaceOf(jp, n, w)
		if err != nil {
			t.Fatal(err)
		}
		as, err := SpaceOf(am, n, w)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(as.PaperWords()) / float64(js.PaperWords())
		if ratio <= prev {
			t.Fatalf("n=%d: ratio %.2f did not grow (prev %.2f)", n, ratio, prev)
		}
		prev = ratio
	}
	if prev < 16 {
		t.Fatalf("ratio at n=64 is %.1f, expected the factor-N separation to exceed 16", prev)
	}
}

// TestE2ReportsEveryImpl: built with every implementation, E2 has a
// words and a KiB column for each, and every row fills every column.
func TestE2ReportsEveryImpl(t *testing.T) {
	tb, err := E2Space(Options{Impls: impls.Names()})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range impls.Names() {
		for _, col := range []string{name + " words", name + " phys KiB"} {
			if !slices.Contains(tb.Cols, col) {
				t.Fatalf("E2 has no %q column: %v", col, tb.Cols)
			}
		}
	}
	for _, row := range tb.Rows {
		if len(row) != len(tb.Cols) {
			t.Fatalf("row %v has %d cells for %d columns", row, len(row), len(tb.Cols))
		}
	}
}
