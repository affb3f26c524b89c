//go:build amd64 && !race

package mem

// bufWord is one buffer word: a plain uint64.
type bufWord = uint64

// Buffers are copied with plain moves in this build. The paper needs BUF
// to be only safe registers (Lamport, "On interprocess communication",
// 1986): a read that overlaps a write may return anything. Plain copies
// give that, and the algorithm needs no more:
//
//   - The algorithm tolerates garbage on overlap. It never returns a copy
//     that a write overlapped: Line 4 (helped) and Line 7 (X moved)
//     discard it. The simulator's torn-read adversary (sim.NewMemory with
//     tornReads) returns arbitrary words for every overlapped read, and
//     its checkers pass.
//   - A race on an aligned word has a defined outcome in Go: the load
//     observes some store to that word (the Go memory model), so an
//     overlapped copy holds stale or mixed words, nothing worse.
//   - The compiler keeps each copy in program order with the process's
//     steps on X and Help. copy with a length known only at run time is
//     a call to runtime.memmove, and the sync/atomic operations are
//     intrinsics that take and return the memory state, so no plain
//     access is moved across either.
//   - The hardware keeps that order. x86-TSO (Sewell et al., CACM 2010)
//     lets a later load pass an earlier store and reorders nothing else,
//     and every mutation of an LL/SC word (a CAS or an XCHG) is a locked
//     instruction that drains the store buffer. A fast-string memmove
//     may reorder its own stores but no store past a later store or
//     locked instruction. So each read copy (Lines 3, 6 and 7) completes
//     before the process's next load of X or Help, and each write copy
//     (Lines 11 and 17) is visible before the locked SC that hands the
//     buffer over (Line 15) or publishes it (Line 19). The one reordering
//     TSO allows lets a process load Bank, Help or X before its own write
//     copy lands; nobody else reads that buffer until such an SC.
//
// arm64 is excluded: there a plain load may pass a later load-acquire, so
// the Line 3 copy could finish after the Line 4 check that vouches for it.
// Race builds are excluded too: the copies race by design, and with the
// atomic copies the race detector still checks everything above this
// package.

// ReadBuf implements Buffers.
func (b *RealBuffers) ReadBuf(_, buf int, dst []uint64) {
	copy(dst, b.words[buf*b.w:])
}

// WriteBuf implements Buffers.
func (b *RealBuffers) WriteBuf(_, buf int, src []uint64) {
	copy(b.words[buf*b.w:], src)
}
