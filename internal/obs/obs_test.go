package obs

import (
	"testing"
)

func TestCountersSumAcrossStripes(t *testing.T) {
	c := NewCounters(4, 3)
	if c.Stripes() != 4 || c.N() != 3 {
		t.Fatalf("geometry: stripes=%d n=%d", c.Stripes(), c.N())
	}
	for st := 0; st < 4; st++ {
		c.Add(st, 0, uint64(st+1))
		c.Inc(st, 2)
	}
	if got := c.Sum(0); got != 1+2+3+4 {
		t.Errorf("Sum(0) = %d, want 10", got)
	}
	if got := c.Sum(1); got != 0 {
		t.Errorf("Sum(1) = %d, want 0", got)
	}
	if got := c.Sum(2); got != 4 {
		t.Errorf("Sum(2) = %d, want 4", got)
	}
	dst := make([]uint64, 3)
	c.Sums(dst)
	if dst[0] != 10 || dst[1] != 0 || dst[2] != 4 {
		t.Errorf("Sums = %v, want [10 0 4]", dst)
	}
}

func TestCountersStripeIsolation(t *testing.T) {
	// Writes through stripe s must land only in stripe s: this is the
	// structural half of the no-shared-cache-line guarantee (the
	// alignment half is TestStripeAlignment).
	c := NewCounters(8, 4)
	c.Add(3, 1, 7)
	for st := 0; st < 8; st++ {
		want := uint64(0)
		if st == 3 {
			want = 7
		}
		if got := c.StripeSum(st, 1); got != want {
			t.Errorf("StripeSum(%d, 1) = %d, want %d", st, got, want)
		}
	}
}

func TestCountersOutOfRangeStripe(t *testing.T) {
	c := NewCounters(2, 1)
	c.Add(-1, 0, 5)
	c.Add(2, 0, 6)
	c.Add(99, 0, 7)
	if got := c.StripeSum(0, 0); got != 18 {
		t.Errorf("stripe 0 = %d, want 18 (out-of-range stripes redirect there)", got)
	}
	if got := c.StripeSum(1, 0); got != 0 {
		t.Errorf("stripe 1 = %d, want 0", got)
	}
}

func TestCountersDecrementWraps(t *testing.T) {
	// connsOpen is incremented on one stripe and may be decremented on
	// another; the cross-stripe sum must stay correct under wraparound.
	c := NewCounters(4, 1)
	c.Add(1, 0, 1)
	c.Add(2, 0, 1)
	c.Add(3, 0, ^uint64(0)) // -1 on a stripe that never incremented
	if got := c.Sum(0); got != 1 {
		t.Errorf("Sum = %d, want 1", got)
	}
}

func TestStripeAlignment(t *testing.T) {
	// Every stripe must start on a 128-byte boundary and stripes must
	// be >= 128 bytes apart, so no two stripes can share a cache line
	// (or an adjacent-line-prefetched pair).
	c := NewCounters(5, 10)
	for st := 0; st < c.Stripes(); st++ {
		a := c.stripeAddr(st)
		if a%stripeAlign != 0 {
			t.Errorf("counter stripe %d at %#x not %d-aligned", st, a, stripeAlign)
		}
		if st > 0 {
			if d := a - c.stripeAddr(st-1); d < stripeAlign {
				t.Errorf("counter stripes %d/%d only %d bytes apart", st-1, st, d)
			}
		}
	}
	h := NewHistogram(3)
	for st := 0; st < h.Stripes(); st++ {
		a := h.bank.stripeAddr(st)
		if a%stripeAlign != 0 {
			t.Errorf("hist stripe %d at %#x not %d-aligned", st, a, stripeAlign)
		}
		if st > 0 {
			if d := a - h.bank.stripeAddr(st-1); d < stripeAlign {
				t.Errorf("hist stripes %d/%d only %d bytes apart", st-1, st, d)
			}
		}
	}
}

func TestZeroAllocWritePath(t *testing.T) {
	c := NewCounters(4, 8)
	h := NewHistogram(4)
	if n := testing.AllocsPerRun(100, func() {
		c.Add(2, 3, 1)
		c.Inc(1, 0)
		h.Observe(2, 1234)
		h.ObserveN(3, 99, 7)
	}); n != 0 {
		t.Errorf("write path allocates %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		s := h.Snapshot()
		_ = s.Quantile(0.99)
	}); n != 0 {
		t.Errorf("snapshot path allocates %.1f allocs/op, want 0", n)
	}
}
