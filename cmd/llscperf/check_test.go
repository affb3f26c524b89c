package main

import "testing"

func TestCheckFinalRejectsCorruptState(t *testing.T) {
	var tl tally
	tl.attempted[opUpdate], tl.done[opUpdate] = 7, 5
	tl.attempted[opMulti], tl.done[opMulti] = 3, 2
	state := func(w0, w1 uint64) [][]uint64 { return [][]uint64{{w0 - 1, 0}, {1, w1}} }

	for _, tc := range []struct {
		name   string
		w0, w1 uint64
		base   uint64
		exact  bool
		ok     bool
	}{
		{"exact totals", 5, 4, 0, true, true},
		{"exact, an update too many", 6, 4, 0, true, false},
		{"exact, an update lost", 4, 4, 0, true, false},
		{"exact, a multi-key update lost", 5, 2, 0, true, false},
		{"served, failed updates applied", 7, 6, 0, false, true},
		{"served, an acknowledged update lost", 4, 4, 0, false, false},
		{"served, more than attempted", 8, 4, 0, false, false},
		{"served, prefill counted", 105, 4, 100, false, true},
		{"served, prefill lost", 5, 4, 100, false, false},
		{"served, half a multi-key update", 5, 3, 0, false, false},
	} {
		errs := checkFinal(state(tc.w0, tc.w1), &tl, tc.base, tc.exact)
		if ok := len(errs) == 0; ok != tc.ok {
			t.Errorf("%s: checkFinal = %v, want ok=%v", tc.name, errs, tc.ok)
		}
	}
}

func TestReaderRejectsGoingBack(t *testing.T) {
	var tl tally
	rd := newReader(2)
	rd.observe(0, 5, &tl)
	rd.observe(1, 1, &tl)
	rd.observe(0, 5, &tl)
	rd.observe(0, 9, &tl)
	if tl.nViolations != 0 {
		t.Fatalf("non-decreasing reads flagged: %v", tl.violations)
	}
	rd.observe(0, 8, &tl)
	if tl.nViolations != 1 {
		t.Fatalf("word 0 going back from 9 to 8 not flagged")
	}
	rd.snapshot([][]uint64{{9, 1}, {1, 2}}, &tl)
	if tl.nViolations != 2 {
		t.Fatalf("snapshot with an odd word-1 total not flagged")
	}
	rd.snapshot([][]uint64{{9, 1}, {0, 1}}, &tl)
	if tl.nViolations != 3 {
		t.Fatalf("snapshot row going back not flagged")
	}
}
