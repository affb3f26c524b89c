package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mwllsc/internal/mwobj"
	"mwllsc/internal/mwtest"
)

// Latency holds single-operation latencies in nanoseconds.
type Latency struct {
	LL, SC, VL float64
}

// MeasureLatency times uncontended LL, SC and VL on a fresh object from f
// (one process running alone — the paper's O(W) constants without
// interference). iters should be a few thousand.
func MeasureLatency(f mwobj.Factory, n, w, iters int) (Latency, error) {
	obj, err := f(n, w, mwtest.Pattern(0, w))
	if err != nil {
		return Latency{}, err
	}
	v := make([]uint64, w)

	start := time.Now()
	for i := 0; i < iters; i++ {
		obj.LL(0, v)
	}
	ll := time.Since(start)

	// SC requires a fresh link each time; time LL+SC and subtract LL.
	start = time.Now()
	for i := 0; i < iters; i++ {
		obj.LL(0, v)
		obj.SC(0, v)
	}
	llsc := time.Since(start)

	obj.LL(0, v)
	start = time.Now()
	for i := 0; i < iters; i++ {
		obj.VL(0)
	}
	vl := time.Since(start)

	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(iters) }
	sc := per(llsc) - per(ll)
	if sc < 0 {
		sc = 0
	}
	return Latency{LL: per(ll), SC: sc, VL: per(vl)}, nil
}

// runWorkers starts g workers, sleeps for dur, raises stop and waits for
// them; it returns the elapsed seconds and the sums of the two counts
// the workers return. Worker i polls stop and counts in locals, reporting
// once when it returns: per-operation stores to adjacent slots of a
// shared slice share cache lines and would perturb the measurement.
func runWorkers(g int, dur time.Duration, work func(i int, stop *atomic.Bool) (a, b int64)) (secs float64, a, b int64) {
	var (
		stop       atomic.Bool
		wg         sync.WaitGroup
		sumA, sumB atomic.Int64
	)
	start := time.Now()
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x, y := work(i, &stop)
			sumA.Add(x)
			sumB.Add(y)
		}(i)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	return time.Since(start).Seconds(), sumA.Load(), sumB.Load()
}

// Throughput runs g goroutines (each bound to a distinct process id of an
// n-process object, g <= n) doing LL;SC rounds for roughly dur, and
// returns completed rounds per second plus the fraction of successful SCs.
func Throughput(f mwobj.Factory, n, w, g int, dur time.Duration) (opsPerSec, scSuccessFrac float64, err error) {
	if g > n {
		return 0, 0, fmt.Errorf("bench: %d goroutines > %d processes", g, n)
	}
	obj, err := f(n, w, mwtest.Pattern(0, w))
	if err != nil {
		return 0, 0, err
	}
	secs, rounds, successes := runWorkers(g, dur, func(p int, stop *atomic.Bool) (rounds, successes int64) {
		v := make([]uint64, w)
		for !stop.Load() {
			// Batch the stop check to keep the loop tight.
			for i := 0; i < 64; i++ {
				obj.LL(p, v)
				v[0]++
				if obj.SC(p, v) {
					successes++
				}
				rounds++
			}
		}
		return rounds, successes
	})
	if rounds == 0 {
		return 0, 0, fmt.Errorf("bench: no rounds completed")
	}
	return float64(rounds) / secs, float64(successes) / float64(rounds), nil
}

// AllocsPerRound reports average heap allocations per LL+SC round for an
// implementation (steady state, after warmup) — experiment E7.
func AllocsPerRound(f mwobj.Factory, n, w int) (float64, error) {
	obj, err := f(n, w, mwtest.Pattern(0, w))
	if err != nil {
		return 0, err
	}
	v := make([]uint64, w)
	for i := 0; i < 100; i++ { // warmup
		obj.LL(0, v)
		obj.SC(0, v)
	}
	allocs := allocsPerRun(500, func() {
		obj.LL(0, v)
		obj.SC(0, v)
	})
	return allocs, nil
}

// SpaceOf returns the footprint report of a fresh object from f, or zeros
// if the implementation cannot report.
func SpaceOf(f mwobj.Factory, n, w int) (mwobj.Space, error) {
	obj, err := f(n, w, mwtest.Pattern(0, w))
	if err != nil {
		return mwobj.Space{}, err
	}
	if sp, ok := obj.(mwobj.Spacer); ok {
		return sp.Space(), nil
	}
	return mwobj.Space{}, nil
}
