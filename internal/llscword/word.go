// Package llscword implements single-word (64-bit) Load-Linked /
// Store-Conditional / Validate objects on top of the compare-and-swap and
// swap primitives that Go's sync/atomic exposes.
//
// The paper assumes the hardware provides word-sized LL/SC/VL objects.
// Real processors do not (they provide CAS or restricted LL/SC), so this
// package closes that gap with two wait-free constructions:
//
//   - Tagged packs the value together with a tag that is unique across all
//     mutations of the word (pid + per-process counter). CAS equality on the
//     packed word is then exactly "no successful SC or Write since my LL",
//     which is the LL/SC success rule. The construction is bounded: a process
//     may mutate a given word (a landed SC or a Write; a failed SC spends
//     nothing) at most 2^counterBits − 2 times, then it panics.
//     counterBits is 64 − valueBits − bits.Len(n), and NewTagged refuses
//     fewer than 32. At n=600 the multiword object's X word keeps 32 bits:
//     about 4.3·10^9 mutations per process, or ~7 minutes of a tight
//     one-process LL;SC loop on it.
//
//   - Ptr stores an atomic pointer to an immutable cell. Go's garbage
//     collector cannot recycle a cell while some process's LL context still
//     references it, so pointer equality is exact (no ABA) and the
//     construction is unbounded — at the cost of one allocation per mutation.
//
// Both satisfy the Word interface used by the multiword algorithm. All
// operations are wait-free and run in O(1) steps.
//
// Usage rule (inherited from the paper's model): a process id p must be
// driven by at most one goroutine at a time.
package llscword

// Word is a single 64-bit LL/SC/VL object shared by n processes, with the
// semantics of Figure 1 of the paper, plus two auxiliary operations the
// multiword algorithm needs:
//
//   - Read returns the current value without creating an LL context.
//   - Write unconditionally replaces the value. It behaves like a successful
//     SC with respect to everyone else: any SC conditioned on an earlier LL
//     fails afterwards, and any VL on an earlier LL returns false.
//
// Implementations store only values that fit in the object's configured
// value width (valueBits); the remaining bits carry the tag.
type Word interface {
	// LL returns the object's current value and records it as process p's
	// link context for subsequent SC/VL calls.
	LL(p int) uint64
	// SC writes v and returns true iff no successful SC or Write occurred
	// since p's latest LL on this word; otherwise it leaves the value
	// unchanged and returns false.
	SC(p int, v uint64) bool
	// VL returns true iff no successful SC or Write occurred since p's
	// latest LL on this word.
	VL(p int) bool
	// Read returns the current value without affecting p's link context.
	Read(p int) uint64
	// Write unconditionally sets the value, invalidating all outstanding
	// links on this word.
	Write(p int, v uint64)
}

// cacheLine is the assumed cache-line size in bytes; per-process link
// contexts are padded to this size to avoid false sharing between processes.
const cacheLine = 64
