package main

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stallSystem is a fake server that serves one operation at a time and
// stalls for stall on its stallAt-th operation, holding up everything
// that arrives behind it.
type stallSystem struct {
	mu      sync.Mutex
	n       atomic.Int64
	stallAt int64
	stall   time.Duration
}

func (s *stallSystem) do(op, *worker) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n.Add(1) == s.stallAt {
		time.Sleep(s.stall)
	}
	return nil
}

// runFor offers arrivals at rate for d, all measured.
func runFor(t *testing.T, ol *openLoop, d time.Duration) {
	t.Helper()
	phase := &atomic.Int32{}
	phase.Store(phaseMeasure)
	done := make(chan error, 1)
	go func() { done <- ol.run(phase) }()
	time.Sleep(d)
	phase.Store(phaseStop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// slowerThan counts h's observations at or above d.
func slowerThan(h *hist, d time.Duration) uint64 {
	var n uint64
	for b := bucketOf(uint64(d)); b < histBuckets; b++ {
		n += h.counts[b]
	}
	return n
}

func TestOpenLoopChargesStallToQueuedArrivals(t *testing.T) {
	const (
		rate  = 5000 // one arrival every 200 µs
		stall = 5 * time.Millisecond
	)
	sys := &stallSystem{stallAt: 100, stall: stall}
	ol := &openLoop{rate: rate, maxOut: 256, next: func() op { return op{class: opRead} }, do: sys.do, lanes: newLanes(1)}
	runFor(t, ol, 200*time.Millisecond)
	h := &ol.lanes[0].lat[opRead]
	if ol.dropped != 0 {
		t.Fatalf("%d arrivals dropped with 256 goroutines available", ol.dropped)
	}
	// Arrivals due in the stall's first 3 ms waited at least 2 ms for it:
	// about 15 of them, each charged from its due time. Timing from the
	// send instead would charge the stall to the one stalled operation.
	if n := slowerThan(h, 2*time.Millisecond); n < 10 {
		t.Errorf("%d arrivals slower than 2ms, want the ~15 queued behind the stall", n)
	}
	if max := h.quantile(1); max < float64(stall)*0.9 {
		t.Errorf("slowest arrival took %v, want about the %v stall", time.Duration(max), stall)
	}
	if p50 := h.quantile(0.5); p50 > float64(time.Millisecond) {
		t.Errorf("median %v: the stall leaked into arrivals after it drained", time.Duration(p50))
	}
}

func TestOpenLoopCountsArrivalsItCannotSend(t *testing.T) {
	// With one goroutine, arrivals that come due while it is stalled
	// cannot be sent; they are dropped and counted as failures rather
	// than silently left out.
	sys := &stallSystem{stallAt: 20, stall: 5 * time.Millisecond}
	ol := &openLoop{rate: 5000, maxOut: 1, next: func() op { return op{class: opUpdate} }, do: sys.do, lanes: newLanes(1)}
	runFor(t, ol, 100*time.Millisecond)
	l := ol.lanes[0]
	if l.dropped < 10 {
		t.Errorf("%d arrivals dropped during a 5ms stall at one every 200µs, want about 25", l.dropped)
	}
	if l.lat[opUpdate].counts[histTop] != l.dropped {
		t.Errorf("%d failures recorded for %d drops", l.lat[opUpdate].counts[histTop], l.dropped)
	}
}
