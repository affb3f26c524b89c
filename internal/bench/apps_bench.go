package bench

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"mwllsc/internal/apps/shared"
	"mwllsc/internal/apps/snapshot"
	"mwllsc/internal/mwobj"
)

// snapshotScanThroughput measures scans/sec of a C-component snapshot with
// one writer (worker 0) and g-1 scanners over the given multiword
// implementation.
func snapshotScanThroughput(f mwobj.Factory, n, comps, g int, dur time.Duration) (float64, error) {
	if g < 2 || g > n {
		return 0, fmt.Errorf("bench: need 2 <= g <= n, got g=%d n=%d", g, n)
	}
	snap, err := snapshot.New(f, n, comps, make([]uint64, comps))
	if err != nil {
		return 0, err
	}
	secs, scans, _ := runWorkers(g, dur, func(p int, stop *atomic.Bool) (scans, _ int64) {
		if p == 0 {
			for i := uint64(1); !stop.Load(); i++ {
				snap.Update(0, int(i)%comps, i)
			}
			return 0, 0
		}
		dst := make([]uint64, comps)
		for !stop.Load() {
			for i := 0; i < 32; i++ {
				snap.Scan(p, dst)
				scans++
			}
		}
		return scans, 0
	})
	return float64(scans) / secs, nil
}

// queueThroughput measures enqueue+dequeue ops/sec of the wait-free queue
// (workers 0 and 1 produce, 2 and 3 consume) built on the given
// implementation.
func queueThroughput(f mwobj.Factory, n int, dur time.Duration) (float64, error) {
	if n < 4 {
		return 0, fmt.Errorf("bench: queue throughput needs n >= 4")
	}
	q, err := shared.NewQueue(f, n, 64)
	if err != nil {
		return 0, err
	}
	secs, ops, _ := runWorkers(4, dur, func(i int, stop *atomic.Bool) (ops, _ int64) {
		for v := uint64(1); !stop.Load(); v++ {
			var ok bool
			if i < 2 {
				ok = q.Enqueue(i, v)
			} else {
				_, ok = q.Dequeue(i)
			}
			if ok {
				ops++
			} else {
				runtime.Gosched()
			}
		}
		return ops, 0
	})
	return float64(ops) / secs, nil
}
