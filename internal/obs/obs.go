// Package obs is the observability layer: striped counters and
// zero-allocation log-bucketed histograms cheap enough to live on the
// serving hot path, plus a metric registry that renders them as
// Prometheus text and JSON for the llscd admin plane.
//
// The design constraint is the same one that shaped the serving path:
// no allocations and no shared cache lines per request. Counters
// stripe their state per registry process slot — the executor already
// holds a slot id for the duration of a batch — and pad each stripe to
// 128 bytes (two cache lines, defeating the adjacent-line prefetcher)
// so two slots bumping their own counters never write the same line.
// A Histogram keeps its buckets in a Counters bank, so it is striped
// the same way. Reads (Sum, Snapshot) walk every stripe; they are the
// rare path and pay for the writes' isolation.
package obs

import (
	"sync/atomic"
	"unsafe"
)

// stripeAlign is the byte alignment and padding granularity of a
// stripe: two 64-byte cache lines, so the adjacent-line prefetcher
// cannot couple neighboring stripes either.
const stripeAlign = 128

// stripeWords is stripeAlign in 8-byte words.
const stripeWords = stripeAlign / 8

// alignedWords allocates total words of atomic storage whose first
// element sits on a stripeAlign boundary. Go does not guarantee slice
// alignment beyond the element size, so it over-allocates one stripe
// and offsets the view.
func alignedWords(total int) []atomic.Uint64 {
	backing := make([]atomic.Uint64, total+stripeWords)
	off := 0
	if rem := uintptr(unsafe.Pointer(&backing[0])) % stripeAlign; rem != 0 {
		off = int((stripeAlign - rem) / 8)
	}
	return backing[off : off+total]
}

// Counters is a bank of n named counters striped over s independent
// cache-line-padded banks. Writers pick a stripe (their registry
// process slot id) and touch only that stripe's lines; Sum folds the
// stripes into the logical counter value. A stripe index outside
// [0, Stripes()) is redirected to stripe 0, so callers off the hot
// path (accept loops, decode errors) can pass a sentinel without
// branching themselves.
type Counters struct {
	words   []atomic.Uint64
	stripes int
	n       int
	stride  int // words per stripe, a multiple of stripeWords
}

// NewCounters builds a bank of n counters with stripes stripes.
// Values below 1 are raised to 1.
func NewCounters(stripes, n int) *Counters {
	if stripes < 1 {
		stripes = 1
	}
	if n < 1 {
		n = 1
	}
	stride := (n + stripeWords - 1) / stripeWords * stripeWords
	return &Counters{
		words:   alignedWords(stripes * stride),
		stripes: stripes,
		n:       n,
		stride:  stride,
	}
}

// Stripes returns the number of stripes.
func (c *Counters) Stripes() int { return c.stripes }

// N returns the number of counters per stripe.
func (c *Counters) N() int { return c.n }

// Add adds d to counter i on the given stripe. Out-of-range stripes
// fall back to stripe 0. Decrements are uint64 wraparound adds
// (Add(s, i, ^uint64(0)) subtracts one); the cross-stripe Sum stays
// correct under modular arithmetic.
func (c *Counters) Add(stripe, i int, d uint64) {
	if uint(stripe) >= uint(c.stripes) {
		stripe = 0
	}
	c.words[stripe*c.stride+i].Add(d)
}

// Inc adds one to counter i on the given stripe.
func (c *Counters) Inc(stripe, i int) { c.Add(stripe, i, 1) }

// Sum folds counter i across all stripes.
func (c *Counters) Sum(i int) uint64 {
	var s uint64
	for st := 0; st < c.stripes; st++ {
		s += c.words[st*c.stride+i].Load()
	}
	return s
}

// Sums writes the cross-stripe totals of counters 0..len(dst)-1 into
// dst (at most N of them), one registry walk instead of N.
func (c *Counters) Sums(dst []uint64) {
	n := len(dst)
	if n > c.n {
		n = c.n
	}
	for i := 0; i < n; i++ {
		dst[i] = 0
	}
	for st := 0; st < c.stripes; st++ {
		base := st * c.stride
		for i := 0; i < n; i++ {
			dst[i] += c.words[base+i].Load()
		}
	}
}

// StripeSum returns counter i's value on a single stripe — a test
// hook for proving writes land only in the writer's stripe.
func (c *Counters) StripeSum(stripe, i int) uint64 {
	if uint(stripe) >= uint(c.stripes) {
		stripe = 0
	}
	return c.words[stripe*c.stride+i].Load()
}

// stripeAddr returns the address of the stripe's first word, for the
// alignment test.
func (c *Counters) stripeAddr(stripe int) uintptr {
	return uintptr(unsafe.Pointer(&c.words[stripe*c.stride]))
}
