package main

import (
	"sync"
	"sync/atomic"
	"time"

	"mwllsc/internal/client"
)

// worker is one load goroutine's own state: its correctness tally, its
// reader's view of word 0, and its client-side trace.
type worker struct {
	rd    *reader
	t     tally
	calls uint64
	tr    client.Trace
}

func newWorker() *worker { return &worker{rd: newReader(servedShards)} }

// openLoop offers operations on a fixed schedule, as independent users
// would send them: arrivals come in bursts of rate×burst every burst
// (one at a time every 1/rate when burst is 0), whatever became of
// earlier arrivals. A due arrival goes to an idle goroutine of a pool of
// maxOut; with all of them busy it is dropped and counted as a failure.
// Latency is timed from the due time, not from the send, so a stall is
// charged to every arrival that came due while it lasted.
type openLoop struct {
	rate    float64
	burst   time.Duration
	maxOut  int
	next    func() op                   // the next arrival's operation, called in order
	do      func(o op, w *worker) error // performs one operation
	lanes   []*lane
	workers []*worker // one per pool goroutine, kept for the correctness tally
	dropped uint64    // arrivals dropped, measured or not
}

type arrival struct {
	o        op
	due      time.Time
	measured bool
}

// run offers arrivals until phase reaches phaseStop, measuring those
// that come due while it is phaseMeasure, then waits for every
// outstanding operation to finish.
func (ol *openLoop) run(phase *atomic.Int32) error {
	perBurst := max(1, int(ol.rate*ol.burst.Seconds()))
	period := time.Duration(float64(perBurst) / ol.rate * float64(time.Second))
	tk, err := newTicker(period)
	if err != nil {
		return err
	}
	defer tk.stop()
	work := make(chan arrival, ol.maxOut) // never blocks: at most maxOut outstanding
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	for i := range ol.maxOut {
		w := newWorker()
		ol.workers = append(ol.workers, w)
		l := ol.lanes[i%len(ol.lanes)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range work {
				start := time.Now()
				err := ol.do(a.o, w)
				end := time.Now()
				outstanding.Add(-1)
				if !a.measured {
					continue
				}
				l.mu.Lock()
				l.lag.observe(start.Sub(a.due))
				if err != nil {
					l.lat[a.o.class].fail()
					l.failed++
				} else {
					l.lat[a.o.class].observe(end.Sub(a.due))
					l.ops.Add(1)
				}
				l.mu.Unlock()
			}
		}()
	}
	err = ol.pace(tk, period, perBurst, phase, work, &outstanding)
	close(work)
	wg.Wait()
	return err
}

// pace hands each tick's burst of arrivals to the pool until phase
// reaches phaseStop. A late tick reports every period that ended since
// the last one, and each of those bursts keeps its own due time.
func (ol *openLoop) pace(tk *ticker, period time.Duration, perBurst int, phase *atomic.Int32, work chan<- arrival, outstanding *atomic.Int64) error {
	l0 := ol.lanes[0]
	for tick := 1; ; {
		n, err := tk.wait()
		if err != nil {
			return err
		}
		for ; n > 0; n, tick = n-1, tick+1 {
			ph := phase.Load()
			if ph == phaseStop {
				return nil
			}
			due := tk.start.Add(time.Duration(tick) * period)
			for range perBurst {
				a := arrival{o: ol.next(), due: due, measured: ph == phaseMeasure}
				if outstanding.Load() >= int64(ol.maxOut) {
					ol.dropped++
					if a.measured {
						l0.mu.Lock()
						l0.lat[a.o.class].fail()
						l0.dropped++
						l0.mu.Unlock()
					}
					continue
				}
				outstanding.Add(1)
				work <- a
			}
		}
	}
}
