// Package mem abstracts the shared-memory primitives the paper's algorithm
// is written against — single-word LL/SC/VL objects and W-word buffers of
// safe registers — behind interfaces, so that one implementation of the
// algorithm runs both on real sync/atomic memory (package mem's Real
// backend, for performance) and on the deterministic simulator (package sim,
// for adversarial-schedule verification).
//
// The Trace hook carries algorithm-level events (operation boundaries,
// buffer-ownership changes) that the simulator's invariant checkers consume;
// the real backend discards them.
package mem

import "mwllsc/internal/llscword"

// Word is a single-word LL/SC/VL/read object; see llscword.Word.
type Word = llscword.Word

// Buffers is an array of fixed-size multi-word buffers of safe registers
// (the paper's BUF[0..count-1], each of W words). The paper requires only
// safe-register semantics per word: a read overlapping a write may return
// anything. The Real backend gives exactly that on amd64 (plain copies) and
// per-word atomics elsewhere and under -race; see RealBuffers. The
// simulator models the weak semantics faithfully, torn reads included.
type Buffers interface {
	// W returns the number of words per buffer.
	W() int
	// ReadBuf copies buffer b into dst (len(dst) == W), on behalf of
	// process p.
	ReadBuf(p, b int, dst []uint64)
	// WriteBuf copies src (len(src) == W) into buffer b, on behalf of
	// process p.
	WriteBuf(p, b int, src []uint64)
}

// WordKind identifies which of the algorithm's shared variables a word
// realizes; the simulator uses it to key invariant checks.
type WordKind uint8

// Word kinds, one per shared-variable family in Figure 2 of the paper.
const (
	WordX    WordKind = iota + 1 // the tag X = (buf, seq)
	WordBank                     // Bank[idx]
	WordHelp                     // Help[idx]
)

// String returns the paper's name for the kind.
func (k WordKind) String() string {
	switch k {
	case WordX:
		return "X"
	case WordBank:
		return "Bank"
	case WordHelp:
		return "Help"
	default:
		return "?"
	}
}

// Memory is the factory for the shared variables of one multiword object,
// plus the trace sink. Implementations: Real (this package) and sim.Memory.
type Memory interface {
	// NewWord allocates a single-word LL/SC/VL object for n processes
	// holding values of at most valueBits bits, initialized to init.
	// kind/idx identify the variable (e.g. WordBank, 3 for Bank[3]).
	NewWord(kind WordKind, idx int, valueBits uint, init uint64) Word
	// NewBuffers allocates count buffers of w words each, zero-initialized.
	NewBuffers(count, w int) Buffers
	// Trace reports an algorithm-level event by process p. Real memory
	// ignores it; the simulator feeds invariant checkers and step
	// accounting.
	Trace(p int, ev Event)
	// Tracing reports whether Trace consumes events; callers may skip
	// building events when it returns false (keeps the hot path free of
	// interface calls).
	Tracing() bool
}

// EventKind enumerates algorithm-level events emitted by the core
// algorithm via Memory.Trace.
type EventKind uint8

// Trace event kinds. The Arg meaning is given per kind.
const (
	// EvLLStart marks entry into the LL procedure. Arg: current mybuf.
	EvLLStart EventKind = iota + 1
	// EvLLAnnounced marks completion of Line 1 (Help[p] = (1, mybuf)):
	// the paper's "PC in (2..10)" region begins. Arg: announced buffer.
	EvLLAnnounced
	// EvLLReadX marks completion of Line 2 (x_p = LL(X)). Arg: unused.
	// Lemma 4's interval starts here.
	EvLLReadX
	// EvLLCheckedHelp marks completion of the Line 4 check. Arg: 1 if the
	// process found itself helped (took the Lines 5-7 path), else 0.
	// Lemma 4's interval ends here: an unhelped LL must have seen at most
	// 2N-1 changes of X since EvLLReadX.
	EvLLCheckedHelp
	// EvLLWithdrawn marks completion of Line 10: the region ends and p's
	// ownership is settled. Arg: new mybuf.
	EvLLWithdrawn
	// EvLLDone marks return from LL (after Line 11). Arg: mybuf.
	EvLLDone
	// EvSCStart marks entry into the SC procedure. Arg: mybuf.
	EvSCStart
	// EvSCHandoff marks Line 16: p handed its buffer to a helped process
	// and took ownership of d. Arg: new mybuf (d).
	EvSCHandoff
	// EvSCPublished marks a successful Line 19 SC on X plus Line 20.
	// Arg: new mybuf (e).
	EvSCPublished
	// EvSCDone marks return from SC. Arg: 1 if the SC succeeded, else 0.
	EvSCDone
	// EvVLStart marks entry into the VL procedure. Arg: unused.
	EvVLStart
	// EvVLDone marks return from VL. Arg: 1 if VL returned true, else 0.
	EvVLDone
)

// String returns a short name for the event kind.
func (k EventKind) String() string {
	switch k {
	case EvLLStart:
		return "LLStart"
	case EvLLAnnounced:
		return "LLAnnounced"
	case EvLLReadX:
		return "LLReadX"
	case EvLLCheckedHelp:
		return "LLCheckedHelp"
	case EvLLWithdrawn:
		return "LLWithdrawn"
	case EvLLDone:
		return "LLDone"
	case EvSCStart:
		return "SCStart"
	case EvSCHandoff:
		return "SCHandoff"
	case EvSCPublished:
		return "SCPublished"
	case EvSCDone:
		return "SCDone"
	case EvVLStart:
		return "VLStart"
	case EvVLDone:
		return "VLDone"
	default:
		return "?"
	}
}

// Event is one algorithm-level trace event.
type Event struct {
	Kind EventKind
	Arg  int
}
