package main

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Run phases, shared by a workload's load goroutines.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// newPhase returns the phase a run's load follows: when traced, the
// probes' own, so that they record only inside the window.
func newPhase(p *probes) *atomic.Int32 {
	if p != nil {
		return p.phase
	}
	return &atomic.Int32{}
}

// nSlices is how many equal slices the measured window is cut into.
// Every end-to-end rate, latency and CPU figure is taken per slice and
// reported from the least disturbed slice (see sliceBest).
const nSlices = 10

// lane is a group of load goroutines' shared measurements since the
// last slice boundary. Served workloads give each client connection a
// lane and the embedded workload each goroutine one, so histograms are
// few and their locks uncontended.
type lane struct {
	mu      sync.Mutex
	lat     [nClass]hist
	lag     hist   // open loop: dispatch time minus due time
	failed  uint64 // measured operations that failed
	dropped uint64 // measured arrivals dropped with every goroutine busy
	ops     atomic.Uint64
}

func newLanes(n int) []*lane {
	ls := make([]*lane, n)
	for i := range ls {
		ls[i] = &lane{}
	}
	return ls
}

// slice is one slice of the window.
type slice struct {
	dur, cpu time.Duration
	ops      uint64
	p50, p99 [nClass]float64
	n        [nClass]uint64
}

// measure is what one workload run produced.
type measure struct {
	setup        []time.Duration
	slices       []slice
	window       time.Duration
	windowOps    uint64 // operations that completed inside the window
	windowFailed uint64 // window operations that failed or were dropped
	lat          [nClass]hist
	lag          hist
	tally        tally  // whole run, every phase
	dropped      uint64 // open-loop arrivals dropped, whole run
	heap         uint64
	checkErrs    []string // final-state check failures
	extra        []metric // workload-specific end-to-end metrics
	layers       []metric // traced runs only
}

type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     uint64  `json:"n"`
}

// runWindow runs the warm-up and the measured window around load that
// is already running, then flips phase to stop and measures the heap.
// It cuts the window into slices, draining the lanes and reading the
// clock and the process CPU time at every boundary; traced, it samples
// the layers' counters at the window's two edges.
func (m *measure) runWindow(cfg *config, phase *atomic.Int32, lanes []*lane, p *probes) {
	time.Sleep(cfg.warmup)
	phase.Store(phaseMeasure)
	if p != nil {
		p.edge(0)
	}
	start, cpu0 := time.Now(), cpuTime()
	prev, prevCPU := start, cpu0
	cur := new([nClass]hist)
	for i := 1; i <= nSlices; i++ {
		time.Sleep(time.Until(start.Add(cfg.window * time.Duration(i) / nSlices)))
		var s slice
		for _, l := range lanes {
			l.mu.Lock()
			for c := range nClass {
				cur[c].merge(&l.lat[c])
				l.lat[c] = hist{}
			}
			m.lag.merge(&l.lag)
			l.lag = hist{}
			m.windowFailed += l.failed + l.dropped
			l.failed, l.dropped = 0, 0
			s.ops += l.ops.Swap(0)
			l.mu.Unlock()
		}
		now, cpu := time.Now(), cpuTime()
		s.dur, s.cpu = now.Sub(prev), cpu-prevCPU
		for c := range nClass {
			if s.n[c] = cur[c].n; s.n[c] > 0 {
				s.p50[c], s.p99[c] = cur[c].quantile(0.5), cur[c].quantile(0.99)
			}
			m.lat[c].merge(&cur[c])
			cur[c] = hist{}
		}
		m.slices = append(m.slices, s)
		m.windowOps += s.ops
		prev, prevCPU = now, cpu
	}
	phase.Store(phaseStop)
	if p != nil {
		p.edge(1)
	}
	m.window = prev.Sub(start)
	m.heap = heapInuse()
}

// sliceBest is f's best value over the slices where it is defined.
// Interference from other tenants of a shared machine only ever slows a
// slice down, and on a 2-vCPU host it comes in episodes of seconds that
// can cover most of a window, so the best slice tracks the system itself
// where the median, or even the best quartile, tracks its neighbours.
// Over eight runs per served workload the best slice spread at most
// 0.20 (IQR/median) where the third best of ten spread up to 0.38. A
// change that slows every slice still shows in full.
func (m *measure) sliceBest(lowerIsBetter bool, f func(s *slice) (float64, bool)) float64 {
	var vs []float64
	for i := range m.slices {
		if v, ok := f(&m.slices[i]); ok {
			vs = append(vs, v)
		}
	}
	if len(vs) == 0 {
		return math.NaN()
	}
	if lowerIsBetter {
		return slices.Min(vs)
	}
	return slices.Max(vs)
}

// opsPerSec is the best slice's completed operations per second.
func (m *measure) opsPerSec() float64 {
	return m.sliceBest(false, func(s *slice) (float64, bool) { return float64(s.ops) / s.dur.Seconds(), true })
}

// cpuPerOp is the best slice's process CPU microseconds per completed
// operation.
func (m *measure) cpuPerOp() float64 {
	return m.sliceBest(true, func(s *slice) (float64, bool) { return us(float64(s.cpu)) / float64(s.ops), s.ops > 0 })
}

// cpuTime is the process's user plus system CPU time so far: client and
// server together, since both live in this process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapInuse forces a collection and returns the live heap's spans in use.
func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

func median[T cmp.Ordered](vs []T) T {
	s := slices.Clone(vs)
	slices.Sort(s)
	return s[len(s)/2]
}

func us(ns float64) float64 { return ns / 1e3 }

// finite maps the failure bucket's +Inf (or a missing value's NaN) to
// the histogram's ceiling, so every printed value is a number.
func finite(ns float64) float64 {
	if math.IsInf(ns, 0) || math.IsNaN(ns) {
		return float64(uint64(1) << histMaxBits)
	}
	return ns
}

// endToEnd derives the end-to-end metrics of one run and the violations
// of the sample-count rule. Rates, latencies and CPU per operation come
// from the best slice; n is the window's total count behind each.
// Failures are not hidden by that choice: they are error_frac.
func endToEnd(w *workload, m *measure) ([]metric, []string) {
	var errs []string
	ms := []metric{
		{"setup_s", median(m.setup).Seconds(), "s", uint64(len(m.setup))},
		{"ops_s", m.opsPerSec(), "1/s", m.windowOps},
	}
	for c := range nClass {
		if w.mix[c] == 0 {
			continue
		}
		n := m.lat[c].n
		if n < minSamples {
			errs = append(errs, fmt.Sprintf("%s: %d timed samples in the window, need %d", classNames[c], n, minSamples))
		}
		p50 := m.sliceBest(true, func(s *slice) (float64, bool) { return s.p50[c], s.n[c] > 0 })
		p99 := m.sliceBest(true, func(s *slice) (float64, bool) { return s.p99[c], s.n[c] > 0 })
		ms = append(ms,
			metric{classNames[c] + "_p50_us", us(finite(p50)), "us", n},
			metric{classNames[c] + "_p99_us", us(finite(p99)), "us", n})
	}
	offered := m.windowOps + m.windowFailed
	ms = append(ms,
		metric{"error_frac", float64(m.windowFailed) / float64(max(1, offered)), "frac", offered},
		metric{"cpu_us_per_op", finite(m.cpuPerOp()), "us", m.windowOps},
		metric{"heap_mib", float64(m.heap) / (1 << 20), "MiB", 1})
	return append(ms, m.extra...), errs
}
