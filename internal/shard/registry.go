// Package shard scales the paper's N-process W-word LL/SC/VL object to
// goroutine-shaped workloads along two orthogonal axes:
//
//   - Registry multiplexes an unbounded set of goroutines onto an object's
//     N process slots, so callers no longer hand-assign process ids.
//   - Map spreads traffic over K independent multiword objects keyed by
//     hash, so SC traffic no longer serializes through a single X word.
//
// Both are built purely on the mwobj.MW interface, so any registered
// implementation (the paper's algorithm or a baseline) can sit underneath.
package shard

import (
	"fmt"
	"sync/atomic"
	"unsafe"
)

// slot is the per-process-id ownership flag, padded to its own cache line
// so concurrent acquire/release traffic on neighboring ids does not false
// share.
type slot struct {
	inUse atomic.Bool
	_     [64 - unsafe.Sizeof(atomic.Bool{})]byte
}

// Registry multiplexes an unbounded set of goroutines onto the N process
// slots of a multiword LL/SC object. The paper's wait-freedom guarantees
// attach to process ids; the registry's job is to hand each goroutine an
// exclusive id for the duration of its critical work and take it back
// after, so ids can be shared by far more goroutines than N.
//
// Acquire/Release themselves are not wait-free: with more than N
// concurrent goroutines some must wait for a slot (that bound is inherent
// — the object only has N identities). Within an acquired slot, every
// LL/SC/VL retains the paper's guarantees.
type Registry struct {
	n     int
	free  chan int
	slots []slot

	acquires atomic.Int64
	waited   atomic.Int64
}

// NewRegistry creates a registry over process ids [0, n).
func NewRegistry(n int) (*Registry, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: registry needs n >= 1 slots, got %d", n)
	}
	r := &Registry{
		n:     n,
		free:  make(chan int, n),
		slots: make([]slot, n),
	}
	for p := 0; p < n; p++ {
		r.free <- p
	}
	return r, nil
}

// N returns the number of process slots.
func (r *Registry) N() int { return r.n }

// Acquire checks out an exclusive process id, parking the goroutine until
// a Release if all n are in use. The id must be returned with Release and
// must be driven by only the acquiring goroutine in between.
func (r *Registry) Acquire() int {
	r.acquires.Add(1)
	var p int
	select {
	case p = <-r.free:
	default:
		r.waited.Add(1)
		p = <-r.free
	}
	if !r.slots[p].inUse.CompareAndSwap(false, true) {
		panic(fmt.Sprintf("shard: registry handed out process id %d twice", p))
	}
	return p
}

// Release returns a process id obtained from Acquire to the pool.
// Releasing an id that is not currently checked out panics — that is
// always a caller bug (double release or a fabricated id) and silently
// accepting it would let two goroutines share one process identity. The
// check is best-effort: a stale double-release that lands after another
// goroutine has re-acquired the same id is indistinguishable from a valid
// release and WILL alias two goroutines onto one process — release each
// acquired id exactly once (MapHandle.Release enforces this per handle).
func (r *Registry) Release(p int) {
	if p < 0 || p >= r.n {
		panic(fmt.Sprintf("shard: release of process id %d out of range [0,%d)", p, r.n))
	}
	if !r.slots[p].inUse.CompareAndSwap(true, false) {
		panic(fmt.Sprintf("shard: release of process id %d that is not acquired", p))
	}
	r.free <- p
}

// InUse reports how many slots are currently checked out.
func (r *Registry) InUse() int { return r.n - len(r.free) }

// RegistryStats is a point-in-time snapshot of registry counters.
type RegistryStats struct {
	// Acquires counts Acquire calls.
	Acquires int64
	// Waited counts Acquire calls that found no free slot and had to
	// wait; Waited/Acquires approximates slot pressure.
	Waited int64
}

// Stats returns a snapshot of the registry counters.
func (r *Registry) Stats() RegistryStats {
	return RegistryStats{Acquires: r.acquires.Load(), Waited: r.waited.Load()}
}
