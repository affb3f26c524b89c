package baseline

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"mwllsc/internal/llscword"
	"mwllsc/internal/mem"
	"mwllsc/internal/mwobj"
)

// AMStyle is a wait-free W-word LL/SC/VL object with O(W)-time operations
// and Θ(N²W) space — the complexity profile of the previous best algorithm
// (Anderson & Moir 1995) that the paper's O(NW) construction improves on.
// It is labeled "AM-style" rather than "Anderson-Moir" because it is built
// from the complexity description in the paper's §1 (the AM'95 text is not
// available offline), so it matches the claimed bounds, not the original
// construction's internals.
//
// Construction:
//
//   - X is a single-word LL/SC object holding (pid, poolIdx, seq).
//   - Every process owns a private pool of 2N W-word buffers (2N²W words
//     total). An SC writes its value into the process's cursor slot and
//     swings X to it; the cursor advances only on success, so a slot is
//     reused only after its owner completed 2N more successful SCs — hence
//     at least 2N global successful SCs, mirroring the paper's reuse bound.
//   - LL announces itself in HelpTag[p] (a pointer CAS cell carrying an
//     announcement sequence number), reads X, copies the published buffer
//     and validates X. On validation failure it either consumes help or
//     falls back to the stale-but-valid copy (fewer than 2N SCs intervened,
//     so the slot was not reused).
//   - Helping: each successful SC moving the sequence number from s to s+1
//     first offers the value of its own latest LL to process s mod N by
//     copying it into the dedicated slot HelpBuf[helper][target] — N²W
//     words, the dominant space term — and publishing with a single CAS on
//     HelpTag[target]. Over any 2N consecutive successful SCs every process
//     is offered help twice, so a reader that overlaps 2N successful SCs is
//     guaranteed a valid value.
//
// The same JP-style "retry once, then fall back to the helped value"
// sequence (paper §2.5, Lines 5-7) resolves the obligation that an LL's
// return value be current exactly when the subsequent SC can succeed.
type AMStyle struct {
	n, w int

	x       llscword.Word
	pool    *mem.RealBuffers // buffer pid*2n+slot: n * 2n buffers
	helpBuf *mem.RealBuffers // buffer helper*n+target: n * n buffers
	helpTag []amHelpTag      // one pointer cell per process

	procs []amProc

	pidBits, idxBits, seqBits uint
}

type amHelpTag struct {
	ptr atomic.Pointer[amHelpState]
	_   [56]byte
}

// amHelpState is an announcement (pending) or a completed help (done).
// A fresh cell is allocated per transition, so pointer CAS has no ABA.
type amHelpState struct {
	asn     uint64
	pending bool
	helper  int
}

type amProc struct {
	asn     uint64
	cursor  int
	xval    uint64   // X value observed by this process's latest LL
	lastVal []uint64 // value returned by this process's latest LL (private)
	_       [24]byte
}

// NewAMStyle returns an AMStyle object for n processes and w-word values.
func NewAMStyle(n, w int, initial []uint64) (*AMStyle, error) {
	if n < 1 || w < 1 {
		return nil, fmt.Errorf("amstyle: invalid n=%d w=%d", n, w)
	}
	if len(initial) != w {
		return nil, fmt.Errorf("amstyle: initial value has %d words, want %d", len(initial), w)
	}
	o := &AMStyle{
		n:       n,
		w:       w,
		pool:    mem.NewRealBuffers(n*2*n, w),
		helpBuf: mem.NewRealBuffers(n*n, w),
		helpTag: make([]amHelpTag, n),
		procs:   make([]amProc, n),
		pidBits: uint(bits.Len(uint(n - 1))),
		idxBits: uint(bits.Len(uint(2*n - 1))),
		seqBits: uint(bits.Len(uint(2*n - 1))),
	}
	if n == 1 {
		o.pidBits = 1 // bits.Len(0) == 0; keep the field addressable
	}
	initX := o.packX(0, 0, 0)
	if t, err := llscword.NewTagged(n, o.pidBits+o.idxBits+o.seqBits, initX, true); err == nil {
		o.x = t
	} else {
		o.x = llscword.NewPtr(n, initX, true)
	}
	// POOL[0][0] holds the initial value; process 0's cursor starts past it.
	o.pool.WriteBuf(0, o.poolBuf(0, 0), initial)
	o.procs[0].cursor = 1
	for p := range o.procs {
		o.procs[p].lastVal = make([]uint64, w)
		copy(o.procs[p].lastVal, initial)
		o.procs[p].xval = initX
	}
	return o, nil
}

func (o *AMStyle) packX(pid, idx, seq int) uint64 {
	return (uint64(pid)<<o.idxBits|uint64(idx))<<o.seqBits | uint64(seq)
}

func (o *AMStyle) xPid(x uint64) int { return int(x >> (o.idxBits + o.seqBits)) }
func (o *AMStyle) xIdx(x uint64) int {
	return int(x>>o.seqBits) & (1<<o.idxBits - 1)
}
func (o *AMStyle) xSeq(x uint64) int { return int(x & (1<<o.seqBits - 1)) }

func (o *AMStyle) poolBuf(pid, slot int) int       { return pid*2*o.n + slot }
func (o *AMStyle) helpSlot(helper, target int) int { return helper*o.n + target }

// N implements mwobj.MW.
func (o *AMStyle) N() int { return o.n }

// W implements mwobj.MW.
func (o *AMStyle) W() int { return o.w }

// LL implements mwobj.MW. Wait-free, O(W): one announcement, at most two
// buffer copies plus one help copy.
func (o *AMStyle) LL(p int, dst []uint64) {
	if len(dst) != o.w {
		panic(fmt.Sprintf("amstyle: LL dst has %d words, want %d", len(dst), o.w))
	}
	pr := &o.procs[p]
	pr.asn++
	o.helpTag[p].ptr.Store(&amHelpState{asn: pr.asn, pending: true})

	x := o.x.LL(p)
	pr.xval = x
	o.pool.ReadBuf(p, o.poolBuf(o.xPid(x), o.xIdx(x)), dst)
	if o.x.VL(p) {
		// No successful SC overlapped the copy: dst is current and the
		// link is live; obligations O1 and O2 hold.
		copy(pr.lastVal, dst)
		return
	}

	if ht := o.helpTag[p].ptr.Load(); ht != nil && !ht.pending && ht.asn == pr.asn {
		// Helped: >= 2N successful SCs may have overlapped the first copy.
		// Retry once for the *current* value (fresh link); if X moves yet
		// again, fall back to the helped value — it is valid, and the
		// dead link correctly fails the subsequent SC.
		x = o.x.LL(p)
		pr.xval = x
		o.pool.ReadBuf(p, o.poolBuf(o.xPid(x), o.xIdx(x)), dst)
		if !o.x.VL(p) {
			o.helpBuf.ReadBuf(p, o.helpSlot(ht.helper, p), dst)
		}
	}
	// Not helped: fewer than 2N successful SCs overlapped, so the slot was
	// not reused and dst holds the (stale but valid) value from the LL(X)
	// instant; the dead link correctly fails the subsequent SC.
	copy(pr.lastVal, dst)
}

// SC implements mwobj.MW. Wait-free, O(W): at most one help copy, one
// buffer write, one CAS.
func (o *AMStyle) SC(p int, src []uint64) bool {
	if len(src) != o.w {
		panic(fmt.Sprintf("amstyle: SC src has %d words, want %d", len(src), o.w))
	}
	pr := &o.procs[p]

	// Help the process whose turn it is as seq moves from s to s+1.
	t := o.xSeq(pr.xval) % o.n
	if ht := o.helpTag[t].ptr.Load(); ht != nil && ht.pending {
		o.helpBuf.WriteBuf(p, o.helpSlot(p, t), pr.lastVal)
		// The value handed over must still be current at the handoff.
		if o.x.VL(p) {
			o.helpTag[t].ptr.CompareAndSwap(ht, &amHelpState{asn: ht.asn, helper: p})
		}
	}

	slot := pr.cursor
	o.pool.WriteBuf(p, o.poolBuf(p, slot), src)
	ok := o.x.SC(p, o.packX(p, slot, (o.xSeq(pr.xval)+1)%(2*o.n)))
	if ok {
		pr.cursor = (pr.cursor + 1) % (2 * o.n)
	}
	return ok
}

// VL implements mwobj.MW.
func (o *AMStyle) VL(p int) bool { return o.x.VL(p) }

// Space implements mwobj.Spacer: 3N²W register words (2N²W pool + N²W help
// buffers) and N+1 LL/SC words — the Θ(N²W) the paper cuts to O(NW).
func (o *AMStyle) Space() mwobj.Space {
	s := mwobj.Space{
		RegisterWords: 3 * int64(o.n) * int64(o.n) * int64(o.w),
		LLSCWords:     int64(o.n) + 1,
	}
	s.PhysBytes = o.pool.PhysBytes() + o.helpBuf.PhysBytes() +
		int64(len(o.helpTag))*64 + int64(o.n)*(int64(o.w)*8+64)
	if pb, ok := o.x.(mwobj.PhysByteser); ok {
		s.PhysBytes += pb.PhysBytes()
	}
	return s
}

var (
	_ mwobj.MW     = (*AMStyle)(nil)
	_ mwobj.Spacer = (*AMStyle)(nil)
)
