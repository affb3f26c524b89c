//go:build !linux

package main

import "time"

// ticker falls back to a Go ticker outside Linux; the open loop reports
// the resulting lateness as lag.
type ticker struct {
	t      *time.Ticker
	start  time.Time // tick k is due at start + k·period
	period time.Duration
	ended  uint64 // periods ended by the previous wait
}

func newTicker(period time.Duration) (*ticker, error) {
	start := time.Now()
	return &ticker{t: time.NewTicker(period), start: start, period: period}, nil
}

// wait blocks until the next tick and returns how many periods have
// ended since the previous wait. A Go ticker drops the ticks a slow
// receiver misses, so the count comes from the clock.
func (t *ticker) wait() (uint64, error) {
	<-t.t.C
	ended := uint64(time.Since(t.start) / t.period)
	n := ended - t.ended
	t.ended = ended
	return n, nil
}

func (t *ticker) stop() { t.t.Stop() }
