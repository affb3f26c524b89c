package mem

import (
	"fmt"
	"sync/atomic"

	"mwllsc/internal/llscword"
)

// Substrate selects how Real memory realizes single-word LL/SC objects.
type Substrate uint8

// Substrate choices; see package llscword for the constructions.
const (
	// SubstrateTagged packs value+tag in one uint64 (no allocation,
	// bounded tag space). Falls back to SubstratePtr per word when the
	// configuration leaves too little tag space.
	SubstrateTagged Substrate = iota + 1
	// SubstratePtr uses CAS on pointers to immutable cells (exact,
	// unbounded, allocates per mutation).
	SubstratePtr
)

// String returns the substrate's name.
func (s Substrate) String() string {
	switch s {
	case SubstrateTagged:
		return "tagged"
	case SubstratePtr:
		return "ptr"
	default:
		return "?"
	}
}

// Real is the production Memory backend: words are llscword objects and
// buffers are RealBuffers. Trace events are discarded.
type Real struct {
	n         int
	substrate Substrate

	// fellBack counts words that requested SubstrateTagged but were given
	// SubstratePtr because the tag space was too small.
	fellBack atomic.Int64
}

// NewReal returns a Real memory for n processes using the given substrate.
func NewReal(n int, substrate Substrate) *Real {
	if n < 1 {
		panic(fmt.Sprintf("mem: n must be >= 1, got %d", n))
	}
	return &Real{n: n, substrate: substrate}
}

// NewWord implements Memory. The X word gets cache-line-padded link
// contexts (it is touched by every operation of every process); Bank and
// Help words get compact contexts.
func (r *Real) NewWord(kind WordKind, idx int, valueBits uint, init uint64) Word {
	padded := kind == WordX
	if r.substrate == SubstrateTagged {
		w, err := llscword.NewTagged(r.n, valueBits, init, padded)
		if err == nil {
			return w
		}
		r.fellBack.Add(1)
	}
	return llscword.NewPtr(r.n, init, padded)
}

// NewBuffers implements Memory.
func (r *Real) NewBuffers(count, w int) Buffers { return NewRealBuffers(count, w) }

// Trace implements Memory as a no-op.
func (r *Real) Trace(int, Event) {}

// Tracing implements Memory; Real memory never consumes events.
func (r *Real) Tracing() bool { return false }

// FellBack reports how many words silently used SubstratePtr despite
// SubstrateTagged being requested.
func (r *Real) FellBack() int64 { return r.fellBack.Load() }

var _ Memory = (*Real)(nil)

// RealBuffers is the Real backend's buffer array: count buffers of w
// words stored flat, buffer b in words [b*w, (b+1)*w). One build rule
// picks how a buffer is copied. Under amd64 && !race a copy is a plain
// memmove (copy_plain.go, which argues why that is sound); every other
// build, -race included, copies word by word through sync/atomic
// (copy_atomic.go).
type RealBuffers struct {
	w     int
	words []bufWord
}

// NewRealBuffers returns count zeroed buffers of w words each.
func NewRealBuffers(count, w int) *RealBuffers {
	return &RealBuffers{w: w, words: make([]bufWord, count*w)}
}

// W implements Buffers.
func (b *RealBuffers) W() int { return b.w }

// PhysBytes reports the buffer array's physical size.
func (b *RealBuffers) PhysBytes() int64 { return int64(len(b.words)) * 8 }

var _ Buffers = (*RealBuffers)(nil)
