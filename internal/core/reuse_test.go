//go:build !race

package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mwllsc/internal/mem"
)

// TestBufferReuseOnRealMemory runs two processes through LL;SC rounds on
// real memory until buffers have been reused many times over: with N=2 a
// buffer is rewritten after 2N = 4 successful SCs, so LL copies overlap
// writes to the buffer they read. Without -race on amd64 those are the
// plain copies (mem.RealBuffers); the race build copies atomically and
// leaves this file out. It fails on a torn LL value, on a final value that is
// not the number of successful SCs, and, when two goroutines can run at
// once, on a run in which no LL was helped (the overlap path never ran).
func TestBufferReuseOnRealMemory(t *testing.T) {
	const n = 2
	const minRun, maxRun = 300 * time.Millisecond, time.Second
	needHelp := runtime.GOMAXPROCS(0) >= 2
	for _, w := range []int{8, 64} {
		t.Run(fmt.Sprintf("w%d", w), func(t *testing.T) {
			var stats Stats
			o, err := New(mem.NewReal(n, mem.SubstrateTagged), n, w, make([]uint64, w), &stats)
			if err != nil {
				t.Fatal(err)
			}
			var stop atomic.Bool
			var wg sync.WaitGroup
			successes := make([]int64, n)
			for p := range n {
				wg.Add(1)
				go func() {
					defer wg.Done()
					v := make([]uint64, w)
					next := make([]uint64, w)
					for !stop.Load() {
						o.LL(p, v)
						for j := 1; j < w; j++ {
							if v[j] != v[0] {
								t.Errorf("p%d: torn LL value: word %d = %d, word 0 = %d", p, j, v[j], v[0])
								return
							}
						}
						for j := range next {
							next[j] = v[0] + 1
						}
						if o.SC(p, next) {
							successes[p]++
						}
					}
				}()
			}
			start := time.Now()
			for {
				time.Sleep(10 * time.Millisecond)
				run := time.Since(start)
				if run >= maxRun || run >= minRun && (!needHelp || stats.Snapshot().LLHelped > 0) {
					break
				}
			}
			stop.Store(true)
			wg.Wait()

			total := successes[0] + successes[1]
			final := make([]uint64, w)
			o.LL(0, final)
			for j, v := range final {
				if int64(v) != total {
					t.Fatalf("final word %d = %d, want %d successful SCs", j, v, total)
				}
			}
			helped := stats.Snapshot().LLHelped
			if needHelp && helped == 0 {
				t.Fatalf("no LL was helped in %v (%d successful SCs): the overlap path never ran",
					time.Since(start).Round(time.Millisecond), total)
			}
			t.Logf("%d successful SCs, %d helped LLs", total, helped)
		})
	}
}
