package bench

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"mwllsc/internal/impls"
	"mwllsc/internal/shard"
	"mwllsc/internal/txn"
)

// TxnUpdateThroughput runs g goroutines (g <= n) against a k-shard map of
// the named implementation for roughly dur, each committing UpdateMulti
// transactions over span distinct keys drawn from a keyspace-sized window.
// A small keyspace makes the spans overlap almost totally (the
// high-conflict regime, where transactions keep aborting each other's
// collect phase and helping kicks in); a large one keeps them mostly
// disjoint. With yield set, the transaction function yields the scheduler,
// widening the collect-to-lock window across scheduler turns — the
// adversarial interleaving for optimistic concurrency, and the only way
// to provoke real conflicts on a single-core box. Returns committed
// transactions/sec and mean collect-lock attempts per transaction
// (1.0 = conflict-free).
func TxnUpdateThroughput(name string, k, n, w, g, span, keyspace int, yield bool, dur time.Duration) (opsPerSec, attemptsPerOp float64, err error) {
	if g > n {
		return 0, 0, fmt.Errorf("bench: %d goroutines > %d registry slots", g, n)
	}
	if span < 1 || keyspace < span {
		return 0, 0, fmt.Errorf("bench: bad span %d / keyspace %d", span, keyspace)
	}
	m, err := impls.NewSharded(name, k, n, w)
	if err != nil {
		return 0, 0, err
	}
	secs, total, tried := runWorkers(g, dur, func(i int, stop *atomic.Bool) (int64, int64) {
		h := m.Acquire()
		defer h.Release()
		return commitSpans(h, i, span, keyspace, yield, stop)
	})
	if total == 0 {
		return 0, 0, fmt.Errorf("bench: no transactions committed")
	}
	return float64(total) / secs, float64(tried) / float64(total), nil
}

// TxnSnapshotThroughput measures SnapshotAtomic against write pressure:
// one auditor takes cross-shard linearizable snapshots in a loop while
// g-1 goroutines commit span-key transactions from a keyspace-sized
// window. Returns snapshots/sec and the fraction that needed the
// descriptor fallback (the optimistic double collect kept failing).
func TxnSnapshotThroughput(name string, k, n, w, g, span, keyspace int, dur time.Duration) (snapsPerSec, fallbackFrac float64, err error) {
	if g > n {
		return 0, 0, fmt.Errorf("bench: %d goroutines > %d registry slots", g, n)
	}
	if g < 2 {
		return 0, 0, fmt.Errorf("bench: need >= 2 goroutines (1 auditor + writers), got %d", g)
	}
	m, err := impls.NewSharded(name, k, n, w)
	if err != nil {
		return 0, 0, err
	}
	secs, snaps, fallbacks := runWorkers(g, dur, func(i int, stop *atomic.Bool) (snaps, fallbacks int64) {
		h := m.Acquire()
		defer h.Release()
		if i == 0 { // the auditor
			buf := m.NewSnapshotBuffer()
			for { // at least one snapshot, even if the window already closed
				if h.SnapshotAtomic(buf) > txn.SnapshotRetries {
					fallbacks++
				}
				snaps++
				if stop.Load() {
					return snaps, fallbacks
				}
			}
		}
		commitSpans(h, i, span, keyspace, false, stop)
		return 0, 0
	})
	if snaps == 0 {
		return 0, 0, fmt.Errorf("bench: no snapshots completed")
	}
	return float64(snaps) / secs, float64(fallbacks) / float64(snaps), nil
}

// commitSpans is one transaction writer: until stop it commits
// UpdateMulti transactions through h over span consecutive keys from a
// keyspace-sized window, drawing window starts from worker i's own hash
// stream, and returns the commits and the collect-lock attempts they
// took. With yield set, the transaction function yields the scheduler.
func commitSpans(h *shard.MapHandle, i, span, keyspace int, yield bool, stop *atomic.Bool) (done, tried int64) {
	keys := make([]uint64, span)
	f := func(vals [][]uint64) {
		for _, v := range vals {
			v[0]++
		}
	}
	if yield {
		f = func(vals [][]uint64) {
			for _, v := range vals {
				v[0]++
			}
			runtime.Gosched()
		}
	}
	ctr := uint64(i) * 0x9e3779b97f4a7c15
	for !stop.Load() {
		for j := 0; j < 16; j++ {
			ctr++
			base := shard.HashUint64(ctr) % uint64(keyspace)
			for t := range keys {
				keys[t] = (base + uint64(t)) % uint64(keyspace)
			}
			tried += int64(h.UpdateMulti(keys, f))
			done++
		}
	}
	return done, tried
}

// E10Transactions builds the cross-shard transaction table: committed
// UpdateMulti throughput and mean attempts vs key-span at low and high
// conflict, plus the SnapshotAtomic rate an auditor sustains against the
// low-conflict writers.
func E10Transactions(o Options) (*Table, error) {
	o = o.withDefaults()
	const (
		w       = 4
		k       = 8
		lowKeys = 4096
	)
	g := fixedShardGoroutines()
	spans := []int{2, 4, 8}

	t := &Table{
		ID: "e10",
		Title: fmt.Sprintf("E10: cross-shard transactions — UpdateMulti throughput vs key-span and conflict (K=%d, G=%d, W=%d, %v/point)",
			k, g, w, o.Dur),
		Note: "txn = committed multi-key updates/sec; att = mean collect-lock attempts per commit (1.0 = conflict-free); " +
			fmt.Sprintf("low = spans from %d keys, back-to-back; high = spans from span+1 keys (near-total overlap) with a yielding modify step (long-RMW regime, constant aborts+helping); ", lowKeys) +
			"snap/s = cross-shard linearizable SnapshotAtomic rate of 1 auditor vs G-1 low-conflict writers (fb%% = descriptor-fallback share).",
		Cols: []string{"impl", "span", "low txn/s", "low att", "high txn/s", "high att", "snap/s", "fb%"},
	}
	for _, name := range o.Impls {
		for _, span := range spans {
			low, lowAtt, err := TxnUpdateThroughput(name, k, g, w, g, span, lowKeys, false, o.Dur)
			if err != nil {
				return nil, fmt.Errorf("E10 %s span=%d low: %w", name, span, err)
			}
			high, highAtt, err := TxnUpdateThroughput(name, k, g, w, g, span, span+1, true, o.Dur)
			if err != nil {
				return nil, fmt.Errorf("E10 %s span=%d high: %w", name, span, err)
			}
			snaps, fb, err := TxnSnapshotThroughput(name, k, g, w, g, span, lowKeys, o.Dur)
			if err != nil {
				return nil, fmt.Errorf("E10 %s span=%d snap: %w", name, span, err)
			}
			t.AddRow(name, span, low, lowAtt, high, highAtt, snaps, 100*fb)
		}
	}
	return t, nil
}
