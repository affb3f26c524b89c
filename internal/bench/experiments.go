package bench

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"mwllsc/internal/core"
	"mwllsc/internal/impls"
	"mwllsc/internal/mwobj"
	"mwllsc/internal/sim"
)

// Options tunes experiment scale; zero values select defaults sized for an
// interactive run (a few seconds per experiment).
type Options struct {
	// Dur is the measurement window per throughput point.
	Dur time.Duration
	// Iters is the iteration count per latency point.
	Iters int
	// Impls restricts which implementations run (default: all).
	Impls []string
}

func (o Options) withDefaults() Options {
	if o.Dur == 0 {
		o.Dur = 100 * time.Millisecond
	}
	if o.Iters == 0 {
		o.Iters = 20000
	}
	if len(o.Impls) == 0 {
		o.Impls = impls.Names()
	}
	return o
}

// Experiment is one table cmd/llscbench can regenerate.
type Experiment struct {
	ID    string // the -e name: e1, e2, ...
	Build func(Options) (*Table, error)
}

// Experiments lists every experiment in run order.
var Experiments = []Experiment{
	{"e1", E1TimeComplexity},
	{"e2", E2Space},
	{"e3", E3Throughput},
	{"e4", E4Helping},
	{"e5", E5Substrate},
	{"e6", E6Applications},
	{"e7", E7Allocation},
	{"e8", E8Sharding},
	{"e9", E9Registry},
	{"e10", E10Transactions},
	{"e12", E12Durability},
	{"e13", E13Allocs},
	{"e14", E14Instrumentation},
	{"e16", E16Overload},
}

// E1TimeComplexity builds the Theorem 1 time table: per-op latency vs W.
// The paper's claim is the shape — LL and SC linear in W, VL flat.
func E1TimeComplexity(o Options) (*Table, error) {
	o = o.withDefaults()
	const n = 8
	ws := []int{1, 2, 4, 8, 16, 32, 64, 128, 256}

	t := &Table{
		Title: "E1: operation latency vs W (N=8, uncontended) — Theorem 1 time bounds",
		Note:  "paper: LL,SC = O(W); VL = O(1). Expect LL/SC columns linear in W, VL flat.",
		Cols:  []string{"impl", "op"},
	}
	for _, w := range ws {
		t.Cols = append(t.Cols, fmt.Sprintf("W=%d ns", w))
	}
	for _, name := range o.Impls {
		f, err := impls.ByName(name)
		if err != nil {
			return nil, err
		}
		rows := map[string][]any{
			"LL": {name, "LL"},
			"SC": {name, "SC"},
			"VL": {name, "VL"},
		}
		for _, w := range ws {
			lat, err := MeasureLatency(f, n, w, o.Iters)
			if err != nil {
				return nil, fmt.Errorf("E1 %s W=%d: %w", name, w, err)
			}
			rows["LL"] = append(rows["LL"], lat.LL)
			rows["SC"] = append(rows["SC"], lat.SC)
			rows["VL"] = append(rows["VL"], lat.VL)
		}
		for _, op := range []string{"LL", "SC", "VL"} {
			t.AddRow(rows[op]...)
		}
	}
	return t, nil
}

// E2Space builds the headline space table: footprint vs N at several W,
// paper accounting and physical bytes for every selected implementation,
// with the AM/JP ratios that the paper predicts to be Θ(N) when both are
// selected.
func E2Space(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title: "E2: space vs N and W — paper accounting (64-bit words) and physical bytes",
		Note:  "paper: JP = O(NW) vs previous best O(N^2 W); the am/jp ratio column should grow ~linearly with N.",
		Cols:  []string{"N", "W"},
	}
	ratios := slices.Contains(o.Impls, impls.JP) && slices.Contains(o.Impls, "amstyle")
	for _, c := range [][2]string{{" words", "ratio"}, {" phys KiB", "phys ratio"}} {
		for _, name := range o.Impls {
			t.Cols = append(t.Cols, name+c[0])
		}
		if ratios {
			t.Cols = append(t.Cols, c[1])
		}
	}
	for _, w := range []int{4, 16, 64, 256} {
		for _, n := range []int{2, 4, 8, 16, 32, 64, 128} {
			var jp, am mwobj.Space
			words, kib := []any{n, w}, []any{}
			for _, name := range o.Impls {
				f, err := impls.ByName(name)
				if err != nil {
					return nil, err
				}
				s, err := SpaceOf(f, n, w)
				if err != nil {
					return nil, err
				}
				switch name {
				case impls.JP:
					jp = s
				case "amstyle":
					am = s
				}
				words = append(words, s.PaperWords())
				kib = append(kib, float64(s.PhysBytes)/1024)
			}
			if ratios {
				words = append(words, float64(am.PaperWords())/float64(jp.PaperWords()))
				kib = append(kib, float64(am.PhysBytes)/float64(jp.PhysBytes))
			}
			t.AddRow(append(words, kib...)...)
		}
	}
	return t, nil
}

// E3Throughput builds the contention scaling table: LL;SC rounds/sec vs
// active goroutines for every implementation.
func E3Throughput(o Options) (*Table, error) {
	o = o.withDefaults()
	const w = 16
	gs := goroutineSweep()
	n := gs[len(gs)-1]

	t := &Table{
		Title: fmt.Sprintf("E3: throughput vs contention (W=%d, N=%d, %v/point) — wait-free progress", w, n, o.Dur),
		Note:  "rounds = completed LL;SC pairs per second (all goroutines); sc% = successful SC fraction.",
		Cols:  []string{"impl"},
	}
	for _, g := range gs {
		t.Cols = append(t.Cols, fmt.Sprintf("G=%d", g), fmt.Sprintf("sc%%@%d", g))
	}
	for _, name := range o.Impls {
		f, err := impls.ByName(name)
		if err != nil {
			return nil, err
		}
		row := []any{name}
		for _, g := range gs {
			ops, frac, err := Throughput(f, n, w, g, o.Dur)
			if err != nil {
				return nil, fmt.Errorf("E3 %s G=%d: %w", name, g, err)
			}
			row = append(row, ops, 100*frac)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// E4Helping builds the helping-dynamics table: the fraction of LL
// operations completed via the Help mechanism under real contention, plus
// handoff and bank-fix counters; and one simulator row with forced
// starvation where helping is provoked deterministically.
func E4Helping(o Options) (*Table, error) {
	o = o.withDefaults()
	const w = 8
	gs := goroutineSweep()
	n := gs[len(gs)-1]

	t := &Table{
		Title: "E4: helping dynamics (paper §2.2) — helped LLs, handoffs, bank fixes",
		Note:  "real rows: natural contention. sim row: a reader starved to 1/250 steps, which forces the help path.",
		Cols:  []string{"scenario", "LLs", "helped", "helped%", "handoffs", "bankfixes", "sc%"},
	}
	for _, g := range gs {
		var stats core.Stats
		f := impls.JPWithStats(&stats)
		if _, _, err := Throughput(f, n, w, g, o.Dur); err != nil {
			return nil, fmt.Errorf("E4 G=%d: %w", g, err)
		}
		s := stats.Snapshot()
		t.AddRow(fmt.Sprintf("real G=%d", g), s.LLTotal, s.LLHelped,
			100*s.HelpedFraction(), s.Handoffs, s.BankFixes, 100*s.SuccessFraction())
	}

	res, err := sim.Run(sim.Config{
		N: 3, W: w, OpsPerProc: 30, Seed: 4,
		Policy: &sim.Starve{Victim: 0, Every: 250, Inner: sim.NewRandom(4)},
	})
	if err != nil {
		return nil, err
	}
	if len(res.Violations) != 0 {
		return nil, fmt.Errorf("E4 sim run had violations: %v", res.Violations)
	}
	s := res.Stats
	t.AddRow("sim starved reader", s.LLTotal, s.LLHelped,
		100*s.HelpedFraction(), s.Handoffs, s.BankFixes, 100*s.SuccessFraction())
	return t, nil
}

// E5Substrate builds the substrate-ablation table: the paper's algorithm on
// the tagged vs pointer single-word constructions.
func E5Substrate(o Options) (*Table, error) {
	o = o.withDefaults()
	const n, w = 8, 16
	t := &Table{
		Title: "E5: single-word substrate ablation (N=8, W=16)",
		Note:  "tagged: packed value+unique tag (no allocation); ptr: pointer-to-cell (exact, allocates per mutation).",
		Cols:  []string{"substrate", "LL ns", "SC ns", "VL ns", "allocs/round", "rounds/s G=4"},
	}
	for _, name := range []string{"jp", "jp-ptr"} {
		f, err := impls.ByName(name)
		if err != nil {
			return nil, err
		}
		lat, err := MeasureLatency(f, n, w, o.Iters)
		if err != nil {
			return nil, err
		}
		allocs, err := AllocsPerRound(f, n, w)
		if err != nil {
			return nil, err
		}
		ops, _, err := Throughput(f, n, w, 4, o.Dur)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, lat.LL, lat.SC, lat.VL, allocs, ops)
	}
	return t, nil
}

// E6Applications builds the application table: snapshot and queue
// throughput over the paper's object vs baselines.
func E6Applications(o Options) (*Table, error) {
	o = o.withDefaults()
	const (
		comps = 16
		g     = 4
		n     = 8
	)
	t := &Table{
		Title: fmt.Sprintf("E6: applications on top of the multiword object (G=%d, %v/point)", g, o.Dur),
		Note:  "snapshot: C=16 components, 1 writer + 3 scanners (scans/s); queue: 2 producers + 2 consumers (ops/s).",
		Cols:  []string{"impl", "snapshot scans/s", "queue ops/s"},
	}
	for _, name := range o.Impls {
		f, err := impls.ByName(name)
		if err != nil {
			return nil, err
		}
		scans, err := snapshotScanThroughput(f, n, comps, g, o.Dur)
		if err != nil {
			return nil, fmt.Errorf("E6 %s snapshot: %w", name, err)
		}
		qops, err := queueThroughput(f, n, o.Dur)
		if err != nil {
			return nil, fmt.Errorf("E6 %s queue: %w", name, err)
		}
		t.AddRow(name, scans, qops)
	}
	return t, nil
}

// E7Allocation builds the allocation-cost table: B/op evidence that the
// paper's explicit buffer recycling avoids the GC pressure of the pointer
// approaches.
func E7Allocation(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title: "E7: steady-state heap allocations per LL;SC round (N=8)",
		Note:  "paper's algorithm recycles its 3N buffers: zero steady-state allocation on the tagged substrate.",
		Cols:  []string{"impl", "W=4", "W=64", "W=512"},
	}
	for _, name := range o.Impls {
		f, err := impls.ByName(name)
		if err != nil {
			return nil, err
		}
		row := []any{name}
		for _, w := range []int{4, 64, 512} {
			allocs, err := AllocsPerRound(f, 8, w)
			if err != nil {
				return nil, err
			}
			row = append(row, allocs)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// goroutineSweep returns the contention sweep 1..2*cores (capped at 16).
func goroutineSweep() []int {
	maxG := 2 * runtime.GOMAXPROCS(0)
	if maxG > 16 {
		maxG = 16
	}
	if maxG < 4 {
		maxG = 4
	}
	var gs []int
	for g := 1; g <= maxG; g *= 2 {
		gs = append(gs, g)
	}
	return gs
}
