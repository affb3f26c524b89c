package llscword

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Tagged is a wait-free single-word LL/SC/VL object built from CAS by
// packing the value and a mutation-unique tag into one uint64:
//
//	| counter (counterBits) | pid (pidBits) | value (valueBits) |
//
// Every mutation (a landed SC or a Write) by process p stamps the word with
// p's next counter value, so no packed word is ever repeated during an
// execution. Hence "packed word unchanged" (what CAS/equality tests) is
// equivalent to "no successful mutation happened", which is exactly the
// LL/SC/VL rule. This sidesteps the ABA problem without garbage collection.
//
// The zero value is not usable; use NewTagged.
type Tagged struct {
	word   atomic.Uint64
	ctx    []taggedCtx // per-process link state, indexed p*stride
	stride int

	valueBits uint
	pidBits   uint
	valueMask uint64
	maxCount  uint64
}

// taggedCtx is one process's link state: 16 bytes, so in compact mode four
// processes share a cache line (cheap in space, some false sharing), and in
// padded mode each process owns a full line (fast under contention).
type taggedCtx struct {
	observed uint64 // packed word read by this process's latest LL
	counter  uint64 // next tag counter for this process (starts at 1)
}

// ctxStride values: compact = adjacent contexts, padded = one cache line
// per context.
const (
	strideCompact = 1
	stridePadded  = cacheLine / 16
)

// MinCounterBits is the smallest per-process tag counter width NewTagged
// accepts; the width is 64 − valueBits − bits.Len(n). With 32 bits a
// process may mutate one word (a landed SC or a Write) about 4.3·10^9
// times before exhausting its tag space: at n=600 the multiword object's
// X word has exactly 32, ~7 minutes of a tight one-process LL;SC loop.
// Exhausted tags cause a panic rather than silent ABA.
const MinCounterBits = 32

// NewTagged returns a Tagged word for n processes holding values of at most
// valueBits bits, initialized to init. If padded is true, per-process link
// contexts are padded to cache-line stride (use for heavily contended words;
// costs 64 bytes per process instead of 16). It returns an error if the tag
// space left after the value and pid fields is below MinCounterBits, in
// which case the caller should use Ptr instead.
func NewTagged(n int, valueBits uint, init uint64, padded bool) (*Tagged, error) {
	if n < 1 {
		return nil, fmt.Errorf("llscword: n must be >= 1, got %d", n)
	}
	if valueBits < 1 || valueBits > 62 {
		return nil, fmt.Errorf("llscword: valueBits must be in [1,62], got %d", valueBits)
	}
	// Reserve one extra pid value for the initialization tag so that the
	// initial packed word is also unique.
	pidBits := uint(bits.Len(uint(n)))
	counterBits := 64 - valueBits - pidBits
	if counterBits > 64 || counterBits < MinCounterBits { // > 64: unsigned underflow
		return nil, fmt.Errorf(
			"llscword: only %d counter bits left for n=%d, valueBits=%d (need >= %d); use Ptr",
			int64(64)-int64(valueBits)-int64(pidBits), n, valueBits, MinCounterBits)
	}
	stride := strideCompact
	if padded {
		stride = stridePadded
	}
	t := &Tagged{
		ctx:       make([]taggedCtx, n*stride),
		stride:    stride,
		valueBits: valueBits,
		pidBits:   pidBits,
		valueMask: 1<<valueBits - 1,
		maxCount:  1<<counterBits - 1,
	}
	if init > t.valueMask {
		return nil, fmt.Errorf("llscword: init value %d exceeds %d value bits", init, valueBits)
	}
	for p := 0; p < n; p++ {
		t.ctx[p*stride].counter = 1
	}
	// The initialization write uses pid = n (reserved) and counter = 0,
	// a combination no process ever produces.
	t.word.Store(t.pack(n, 0, init))
	return t, nil
}

// MustTagged is NewTagged (compact contexts) that panics on error; for
// tests and tools.
func MustTagged(n int, valueBits uint, init uint64) *Tagged {
	t, err := NewTagged(n, valueBits, init, false)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *Tagged) pack(pid int, counter, value uint64) uint64 {
	return counter<<(t.valueBits+t.pidBits) | uint64(pid)<<t.valueBits | value
}

func (t *Tagged) value(packed uint64) uint64 { return packed & t.valueMask }

// fresh mints the packed word carrying v with process p's next tag,
// whose context is c. It does not spend the tag: the caller advances
// c.counter once the word is stored. A failed SC stores nothing and no
// process ever sees its word, so its tag stays unspent.
func (t *Tagged) fresh(c *taggedCtx, p int, v uint64) uint64 {
	if c.counter >= t.maxCount {
		panic("llscword: per-process tag space exhausted; use Ptr for this workload")
	}
	return t.pack(p, c.counter, v)
}

// LL implements Word.
func (t *Tagged) LL(p int) uint64 {
	w := t.word.Load()
	t.ctx[p*t.stride].observed = w
	return t.value(w)
}

// SC implements Word.
func (t *Tagged) SC(p int, v uint64) bool {
	if v > t.valueMask {
		panic(fmt.Sprintf("llscword: SC value %d exceeds %d value bits", v, t.valueBits))
	}
	c := &t.ctx[p*t.stride]
	if !t.word.CompareAndSwap(c.observed, t.fresh(c, p, v)) {
		return false
	}
	c.counter++
	return true
}

// VL implements Word.
func (t *Tagged) VL(p int) bool {
	return t.word.Load() == t.ctx[p*t.stride].observed
}

// Read implements Word.
func (t *Tagged) Read(p int) uint64 {
	return t.value(t.word.Load())
}

// Write implements Word. The swap installs a fresh tag, so every
// outstanding link on this word is invalidated, exactly as a successful SC
// would — which is what the multiword algorithm's Help announcement (Line 1)
// relies on.
func (t *Tagged) Write(p int, v uint64) {
	if v > t.valueMask {
		panic(fmt.Sprintf("llscword: Write value %d exceeds %d value bits", v, t.valueBits))
	}
	c := &t.ctx[p*t.stride]
	t.word.Swap(t.fresh(c, p, v))
	c.counter++
}

// PhysBytes reports the physical memory footprint of this word object:
// the shared word plus all per-process link contexts.
func (t *Tagged) PhysBytes() int64 {
	return 8 + int64(len(t.ctx))*16
}

var _ Word = (*Tagged)(nil)
