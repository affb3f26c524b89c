package llscword

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewTaggedValidation(t *testing.T) {
	cases := []struct {
		name      string
		n         int
		valueBits uint
		init      uint64
		wantErr   bool
	}{
		{name: "ok small", n: 8, valueBits: 16, init: 0, wantErr: false},
		{name: "n zero", n: 0, valueBits: 16, init: 0, wantErr: true},
		{name: "valueBits zero", n: 2, valueBits: 0, init: 0, wantErr: true},
		{name: "valueBits too wide", n: 2, valueBits: 63, init: 0, wantErr: true},
		{name: "init too big", n: 2, valueBits: 4, init: 16, wantErr: true},
		{name: "counter squeeze", n: 1 << 20, valueBits: 40, init: 0, wantErr: true},
		{name: "max viable", n: 256, valueBits: 23, init: 1<<23 - 1, wantErr: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewTagged(tc.n, tc.valueBits, tc.init, false)
			if (err != nil) != tc.wantErr {
				t.Fatalf("NewTagged(%d, %d, %d) error = %v, wantErr %v",
					tc.n, tc.valueBits, tc.init, err, tc.wantErr)
			}
		})
	}
}

// TestTaggedPackRoundTrip checks that pack/value are inverse on the value
// field for arbitrary pids and counters, for several field geometries.
func TestTaggedPackRoundTrip(t *testing.T) {
	geometries := []struct {
		n         int
		valueBits uint
	}{
		{1, 1}, {1, 16}, {7, 9}, {64, 20}, {255, 12},
	}
	for _, g := range geometries {
		w := MustTagged(g.n, g.valueBits, 0)
		f := func(pid uint8, counter uint32, value uint64) bool {
			p := int(pid) % (g.n + 1) // include the reserved init pid
			v := value & w.valueMask
			packed := w.pack(p, uint64(counter), v)
			return w.value(packed) == v
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("geometry n=%d valueBits=%d: %v", g.n, g.valueBits, err)
		}
	}
}

// TestTaggedTagUniqueness exercises the core soundness property of the
// construction: no packed word (tag+value) is ever produced twice, even when
// the same values are written repeatedly by the same processes.
func TestTaggedTagUniqueness(t *testing.T) {
	const n = 4
	w := MustTagged(n, 8, 0)
	seen := map[uint64]bool{w.word.Load(): true}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		p := rng.Intn(n)
		v := uint64(rng.Intn(4)) // tiny value domain to maximize collision pressure
		if rng.Intn(2) == 0 {
			w.LL(p)
			if !w.SC(p, v) {
				continue
			}
		} else {
			w.Write(p, v)
		}
		packed := w.word.Load()
		if seen[packed] {
			t.Fatalf("packed word %#x repeated after %d mutations", packed, i)
		}
		seen[packed] = true
	}
}

func TestTaggedPanicsOnOversizeValue(t *testing.T) {
	w := MustTagged(2, 4, 0)
	w.LL(0)
	assertPanics(t, "SC oversize", func() { w.SC(0, 16) })
	assertPanics(t, "Write oversize", func() { w.Write(0, 16) })
}

func TestTaggedCounterExhaustionPanics(t *testing.T) {
	w := MustTagged(2, 16, 0)
	w.ctx[0].counter = w.maxCount // simulate an exhausted process
	w.LL(0)
	assertPanics(t, "exhausted SC", func() { w.SC(0, 1) })
}

// TestTaggedFailedSCSpendsNoTag pins that only a stored word spends a
// tag: once process 1's SC lands under process 0's link, process 0's
// failing SCs leave its tag counter where it was.
func TestTaggedFailedSCSpendsNoTag(t *testing.T) {
	w := MustTagged(2, 16, 0)
	w.LL(0)
	w.LL(1)
	if !w.SC(1, 1) {
		t.Fatal("uncontended SC by process 1 failed")
	}
	before := w.ctx[0].counter
	for i := 0; i < 1000; i++ {
		if w.SC(0, 2) {
			t.Fatalf("SC %d by process 0 landed after process 1's SC", i)
		}
	}
	if got := w.ctx[0].counter; got != before {
		t.Fatalf("1000 failed SCs moved process 0's tag counter from %d to %d", before, got)
	}
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic, got none", name)
		}
	}()
	f()
}
