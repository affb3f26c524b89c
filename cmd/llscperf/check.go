package main

import "fmt"

// maxViolations caps the violation messages one tally keeps; the count
// past the cap is still reported.
const maxViolations = 8

// tally counts one worker's operations by class and collects the
// correctness violations it observed.
type tally struct {
	attempted, done, failed [nClass]uint64
	nViolations             uint64
	violations              []string
}

func (t *tally) violate(format string, args ...any) {
	t.nViolations++
	if len(t.violations) < maxViolations {
		t.violations = append(t.violations, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	for c := range nClass {
		t.attempted[c] += o.attempted[c]
		t.done[c] += o.done[c]
		t.failed[c] += o.failed[c]
	}
	t.nViolations += o.nViolations
	for _, v := range o.violations {
		if len(t.violations) < maxViolations {
			t.violations = append(t.violations, v)
		}
	}
}

// sum adds up per-class counts.
func sum(counts [nClass]uint64) uint64 {
	var n uint64
	for _, c := range counts {
		n += c
	}
	return n
}

// reader remembers, per shard, the largest word 0 one worker has seen.
// Word 0 only ever grows (updates add 1 to it and nothing else writes
// it), so a later observation below an earlier one is a lost or
// reordered write.
type reader struct {
	last []uint64
}

func newReader(shards int) *reader { return &reader{last: make([]uint64, shards)} }

func (r *reader) observe(shard int, w0 uint64, t *tally) {
	if w0 < r.last[shard] {
		t.violate("shard %d word 0 went back from %d to %d", shard, r.last[shard], w0)
		return
	}
	r.last[shard] = w0
}

// snapshot checks one SnapshotAtomic result: every multi-key update adds
// 1 to word 1 of two keys, so a consistent cut holds an even word-1
// total; and each row's word 0 is an observation like a read's.
func (r *reader) snapshot(rows [][]uint64, t *tally) {
	var w1 uint64
	for i, row := range rows {
		r.observe(i, row[0], t)
		w1 += row[1]
	}
	if w1%2 != 0 {
		t.violate("snapshot word-1 total %d is odd: torn multi-key update", w1)
	}
}

// checkFinal compares the final state with the operation counts. base is
// the word-0 total the state started from (the durable prefill). With
// exact, every attempted operation completed in process and the totals
// must match exactly; otherwise an operation whose reply failed may or
// may not have taken effect, so the totals must lie between what was
// acknowledged and what was attempted.
func checkFinal(rows [][]uint64, t *tally, base uint64, exact bool) []string {
	var w0, w1 uint64
	for _, row := range rows {
		w0 += row[0]
		w1 += row[1]
	}
	var errs []string
	lo0, hi0 := base+t.done[opUpdate], base+t.attempted[opUpdate]
	lo1, hi1 := 2*t.done[opMulti], 2*t.attempted[opMulti]
	if exact {
		hi0, hi1 = lo0, lo1
	}
	if w0 < lo0 || w0 > hi0 {
		errs = append(errs, fmt.Sprintf("final word-0 total %d outside [%d, %d] (base %d + updates)", w0, lo0, hi0, base))
	}
	if w1 < lo1 || w1 > hi1 {
		errs = append(errs, fmt.Sprintf("final word-1 total %d outside [%d, %d] (2 × multi-key updates)", w1, lo1, hi1))
	}
	return errs
}
