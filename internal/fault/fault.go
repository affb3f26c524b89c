// Package fault is a deterministic, seeded fault-injection harness for
// tests: a net.Conn wrapper that adds chunked ("partial") writes and
// byte- or frame-boundary-aligned connection resets; a loopback TCP
// proxy that applies those faults to live traffic between a real client
// and a real server; and a file layer for internal/persist (plugged in
// via persist.Options.OpenLog) that injects torn and refused writes and
// fsync failures after a byte or round budget, and models a disk's
// bandwidth and fsync latency.
//
// Everything is driven by explicit counters and a splitmix64 generator
// seeded by the caller, so a failing run replays identically: the same
// seed splits the same write and cuts the same connection after the same
// bytes. No fault fires unless its knob is set, and the zero value of
// every config means "no faults".
package fault

import (
	"errors"
	"fmt"
)

// ErrInjected is wrapped by every error this package fabricates, so
// tests can tell an injected failure from a real one with errors.Is.
var ErrInjected = errors.New("fault: injected failure")

// ErrCut is returned by Conn.Read/Write after the connection was
// deliberately reset; it wraps ErrInjected.
var ErrCut = fmt.Errorf("connection cut: %w", ErrInjected)

// rng is splitmix64: tiny, seedable, and good enough to pick partial-write
// split points deterministically.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
