package main

import "testing"

func TestGenStreamIsFixedBySeed(t *testing.T) {
	const n = 10_000
	stream := func(seed uint64, worker int, zipf bool) []op {
		g := newGen(seed, worker, mix{70, 20, 8, 2}, zipf)
		ops := make([]op, n)
		for i := range ops {
			ops[i] = g.next()
		}
		return ops
	}
	equal := func(a, b []op) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for _, zipf := range []bool{false, true} {
		for worker := range 4 {
			a := stream(7, worker, zipf)
			if !equal(a, stream(7, worker, zipf)) {
				t.Errorf("zipf=%v worker %d: seed 7 gave two different streams", zipf, worker)
			}
			if equal(a, stream(8, worker, zipf)) {
				t.Errorf("zipf=%v worker %d: seeds 7 and 8 gave the same stream", zipf, worker)
			}
			if equal(a, stream(7, worker+1, zipf)) {
				t.Errorf("zipf=%v: workers %d and %d share a stream", zipf, worker, worker+1)
			}
		}
	}
}

func TestGenFollowsMix(t *testing.T) {
	const n = 200_000
	mx := mix{75, 20, 4, 1}
	for _, zipf := range []bool{false, true} {
		g := newGen(1, 0, mx, zipf)
		var counts [nClass]int
		for range n {
			o := g.next()
			counts[o.class]++
			if o.key >= keySpace || o.key2 >= keySpace {
				t.Fatalf("key outside the key space: %+v", o)
			}
			if o.class == opMulti && o.key == o.key2 {
				t.Fatalf("multi-key update with one key twice: %+v", o)
			}
		}
		for c := range nClass {
			want := n * int(mx[c]) / 100
			if d := counts[c] - want; d*100 > n || -d*100 > n {
				t.Errorf("zipf=%v: %d %s ops, want about %d", zipf, counts[c], classNames[c], want)
			}
		}
	}
}
