package bench

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"mwllsc/internal/impls"
	"mwllsc/internal/mwobj"
	"mwllsc/internal/mwtest"
	"mwllsc/internal/shard"
)

// ShardedUpdateThroughput runs g goroutines (g <= n) against a k-shard map
// of the named implementation for roughly dur. Each goroutine pins one
// registry slot and performs Update(key, increment) on pseudo-random keys,
// so SC traffic spreads over the shards. Returns aggregate updates/sec.
//
// With yield set, each modify step calls runtime.Gosched, widening the
// LL..SC window across scheduler turns — the adversarial interleaving for
// optimistic concurrency (a long or IO-bound modify step). This is the
// regime where sharding pays most visibly: at K=1 every concurrent update
// conflicts, at K=k only ~1/k do.
func ShardedUpdateThroughput(name string, k, n, w, g int, yield bool, dur time.Duration) (opsPerSec float64, err error) {
	if g > n {
		return 0, fmt.Errorf("bench: %d goroutines > %d registry slots", g, n)
	}
	m, err := impls.NewSharded(name, k, n, w, shard.WithInitial(mwtest.Pattern(0, w)))
	if err != nil {
		return 0, err
	}
	secs, total, _ := runWorkers(g, dur, func(i int, stop *atomic.Bool) (done, _ int64) {
		h := m.Acquire()
		defer h.Release()
		f := func(v []uint64) { v[0]++ }
		if yield {
			f = func(v []uint64) {
				v[0]++
				runtime.Gosched()
			}
		}
		ctr := uint64(i) << 32 // disjoint per-goroutine counter ranges
		for !stop.Load() {
			for j := 0; j < 64; j++ {
				ctr++
				h.Update(shard.HashUint64(ctr), f)
				done++
			}
		}
		return done, 0
	})
	if total == 0 {
		return 0, fmt.Errorf("bench: no sharded updates completed")
	}
	return float64(total) / secs, nil
}

// RegistryUpdateThroughput measures Update throughput on a single-shard
// map of the named implementation in one of three slot-management modes,
// isolating the registry's cost:
//
//	raw      — no registry: each goroutine uses a hard-assigned process id
//	pinned   — registry: acquire one handle per goroutine, reuse for every op
//	peracq   — registry: acquire + release around every single Update
func RegistryUpdateThroughput(name, mode string, n, w, g int, dur time.Duration) (opsPerSec float64, err error) {
	if g > n {
		return 0, fmt.Errorf("bench: %d goroutines > %d registry slots", g, n)
	}
	// Build only what the mode drives: the raw object for "raw", the
	// registry-backed map for the other two.
	var m *shard.Map
	var raw mwobj.MW
	switch mode {
	case "raw":
		f, err := impls.ByName(name)
		if err != nil {
			return 0, err
		}
		if raw, err = f(n, w, mwtest.Pattern(0, w)); err != nil {
			return 0, err
		}
	case "pinned", "peracq":
		var err error
		if m, err = impls.NewSharded(name, 1, n, w, shard.WithInitial(mwtest.Pattern(0, w))); err != nil {
			return 0, err
		}
	default:
		return 0, fmt.Errorf("bench: unknown registry mode %q", mode)
	}
	secs, total, _ := runWorkers(g, dur, func(i int, stop *atomic.Bool) (done, _ int64) {
		switch mode {
		case "raw":
			v := make([]uint64, w)
			for !stop.Load() {
				for j := 0; j < 64; j++ {
					for {
						raw.LL(i, v)
						v[0]++
						if raw.SC(i, v) {
							break
						}
					}
					done++
				}
			}
		case "pinned":
			h := m.Acquire()
			defer h.Release()
			for !stop.Load() {
				for j := 0; j < 64; j++ {
					h.Update(0, func(v []uint64) { v[0]++ })
					done++
				}
			}
		case "peracq":
			for !stop.Load() {
				for j := 0; j < 64; j++ {
					m.Update(0, func(v []uint64) { v[0]++ })
					done++
				}
			}
		}
		return done, 0
	})
	if total == 0 {
		return 0, fmt.Errorf("bench: no registry-mode updates completed")
	}
	return float64(total) / secs, nil
}

// E8Sharding builds the horizontal-scaling table: aggregate Update
// throughput vs shard count K at a fixed goroutine count, for each
// implementation. The single-object bottleneck (all SCs through one X
// word) should dissolve as K grows.
func E8Sharding(o Options) (*Table, error) {
	o = o.withDefaults()
	const w = 4
	g := fixedShardGoroutines()
	ks := []int{1, 2, 4, 8, 16}

	t := &Table{
		ID: "e8",
		Title: fmt.Sprintf("E8: sharded aggregate throughput vs shard count K (G=%d goroutines, W=%d, %v/point)",
			g, w, o.Dur),
		Note: "updates = random-key read-modify-writes/sec across all goroutines, keys spread over K independent objects; " +
			"tight = back-to-back updates, yield = modify step yields the scheduler mid-transaction (long-RMW regime).",
		Cols: []string{"impl", "workload"},
	}
	for _, k := range ks {
		t.Cols = append(t.Cols, fmt.Sprintf("K=%d upd/s", k))
	}
	for _, name := range o.Impls {
		for _, workload := range []string{"tight", "yield"} {
			row := []any{name, workload}
			for _, k := range ks {
				ops, err := ShardedUpdateThroughput(name, k, g, w, g, workload == "yield", o.Dur)
				if err != nil {
					return nil, fmt.Errorf("E8 %s %s K=%d: %w", name, workload, k, err)
				}
				row = append(row, ops)
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// E9Registry builds the registry-overhead table: Update throughput through
// the handle registry (pinned handle, and acquire/release per op) against
// raw hand-assigned process ids, at 1 and G goroutines.
func E9Registry(o Options) (*Table, error) {
	o = o.withDefaults()
	const w = 4
	g := fixedShardGoroutines()

	t := &Table{
		ID:    "e9",
		Title: fmt.Sprintf("E9: handle-registry overhead on a single object (W=%d, %v/point)", w, o.Dur),
		Note:  "raw = hand-assigned ids (the seed API); pinned = one Acquire per goroutine; peracq = Acquire+Release per op.",
		Cols:  []string{"impl", "mode", "upd/s G=1", fmt.Sprintf("upd/s G=%d", g)},
	}
	for _, name := range o.Impls {
		for _, mode := range []string{"raw", "pinned", "peracq"} {
			one, err := RegistryUpdateThroughput(name, mode, g, w, 1, o.Dur)
			if err != nil {
				return nil, fmt.Errorf("E9 %s %s G=1: %w", name, mode, err)
			}
			many, err := RegistryUpdateThroughput(name, mode, g, w, g, o.Dur)
			if err != nil {
				return nil, fmt.Errorf("E9 %s %s G=%d: %w", name, mode, g, err)
			}
			t.AddRow(name, mode, one, many)
		}
	}
	return t, nil
}

// fixedShardGoroutines returns the fixed goroutine count for the sharding
// experiments: 8, the issue's reference point (K=1 -> K=8 at 8
// goroutines).
func fixedShardGoroutines() int { return 8 }
