package bench

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"mwllsc/internal/client"
	"mwllsc/internal/fault"
	"mwllsc/internal/persist"
	"mwllsc/internal/server"
	"mwllsc/internal/shard"
	"mwllsc/internal/trace"
)

// E16: overload behavior with and without admission control.
//
// The experiment is the classic open- vs closed-loop contrast. A
// closed-loop run (each worker waits for its response) can never offer
// more than capacity — push it harder and latency absorbs the excess.
// Real overload is open-loop: requests arrive on their own clock,
// indifferent to how the server is doing. Under sustained 2× offered
// load a work-conserving server still completes operations at capacity,
// but the queue in front of it grows until every response is late —
// throughput looks healthy while goodput (responses within an SLO)
// collapses to zero. Admission control trades that silent collapse for
// explicit, cheap busy rejections: excess batches bounce before
// touching the map, the admitted ones run at capacity latency, and
// goodput holds near capacity.

// sloResult is one open-loop measurement window.
type sloResult struct {
	ok, errs  int64 // completed ops / failed ops
	dropped   int64 // arrivals shed at the generator because outstanding was full
	withinSLO int64 // completed ops whose arrival-to-response time met the SLO
	elapsed   float64
	lats      []time.Duration // sorted completion latencies (bounded)
	// genLate is the most any arrival was enqueued after its due time:
	// how far the pacer fell behind the schedule it charges latency from.
	genLate time.Duration
}

// netLoadOpenLoop drives addr at a fixed arrival rate (ops/sec) for
// roughly dur, with at most outstanding operations in flight at the
// client. Arrival i falls due at start + i/rate and is stamped with
// that time, not with when the pacer woke to issue it (a sleep can
// overshoot by a millisecond). An operation's latency runs from its
// arrival stamp to its response, so client-side queueing — the first
// symptom of an overloaded server — is charged to the operation,
// exactly as a caller upstream of this client would experience it.
// Arrivals that find all outstanding slots taken are counted as
// dropped: by then the backlog alone guarantees they would miss any
// SLO. Each worker keeps a uniform sample of its latencies
// (latSampler), as NetLoadClosedLoop's workers do.
func netLoadOpenLoop(addr string, conns, w int, rate float64, outstanding int,
	dur time.Duration, slo time.Duration, opts ...client.Option) (sloResult, error) {
	c, err := client.Dial(addr, append([]client.Option{client.WithConns(conns)}, opts...)...)
	if err != nil {
		return sloResult{}, err
	}
	defer c.Close()

	var (
		res    sloResult
		mu     sync.Mutex
		wg     sync.WaitGroup
		tokens = make(chan time.Time, outstanding)
		lats   []time.Duration
		deltas = make([]uint64, w)
		ctx    = context.Background()
	)
	deltas[0] = 1
	for g := 0; g < outstanding; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := uint64(g) << 40
			lat := newLatSampler(uint64(g))
			var ok, errs, within int64
			for ts := range tokens {
				key++
				_, err := c.Add(ctx, shard.HashUint64(key), deltas)
				d := time.Since(ts)
				if err != nil {
					errs++
					continue
				}
				ok++
				if d <= slo {
					within++
				}
				lat.add(d)
			}
			mu.Lock()
			res.ok += ok
			res.errs += errs
			res.withinSLO += within
			lats = append(lats, lat.kept...)
			mu.Unlock()
		}(g)
	}

	// Pacer: every tick, top the issued count up to rate*elapsed,
	// stamping each arrival with its due time. Arrivals beyond the
	// outstanding window are shed and counted.
	start := time.Now()
	issued := 0
	for {
		elapsed := time.Since(start)
		if elapsed >= dur {
			break
		}
		for target := int(rate * elapsed.Seconds()); issued < target; issued++ {
			due := time.Duration(float64(issued) / rate * float64(time.Second))
			select {
			case tokens <- start.Add(due):
				res.genLate = max(res.genLate, elapsed-due)
			default:
				res.dropped++
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(tokens)
	wg.Wait() // drain: at most `outstanding` stragglers past the window

	res.elapsed = time.Since(start).Seconds()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	res.lats = lats
	if res.ok == 0 && res.errs == 0 {
		return res, fmt.Errorf("bench: open-loop window completed no ops")
	}
	return res, nil
}

// E16Overload builds the overload-control table: capacity under
// closed-loop load, then goodput and tail latency under 2× open-loop
// offered load with admission control off versus on. The acceptance
// bar for the on arm is sustaining ≥ 90% of capacity goodput while the
// off arm collapses.
func E16Overload(o Options) (*Table, error) {
	o = o.withDefaults()
	const (
		// A group-commit round makes one fsync whatever the shard
		// count, so k sizes only the map.
		k        = 4
		w        = 2
		maxBatch = 64
		// The capacity probe saturates the disk with moderate inflight:
		// enough concurrent ops to keep the write path busy, few enough
		// that the probe's own queueing does not inflate the p99 the SLO
		// is derived from.
		capConns   = 8
		capWorkers = 16
		// The overload arms arrive through more connections and a
		// client-side window deep enough that, at 2x capacity, the backlog
		// alone pushes waiting time far past any SLO the capacity run can
		// set — collapse by queueing, not by connection starvation.
		ovConns     = 32
		outstanding = 8192
		// Admitted batches queue for the bandwidth-bound disk; maxInflight
		// is sized so the admitted backlog drains well inside the SLO at
		// disk speed while still keeping the disk saturated at 2x offered
		// load.
		maxInflight = 8
	)
	// The off arm's story needs room to unfold: its queue grows at
	// roughly capacity ops per second, so latency crosses the SLO only
	// (SLO) seconds into the window and goodput decays from there. A
	// short -dur would end the window before the collapse; floor it.
	dur := o.Dur
	if dur < time.Second {
		dur = time.Second
	}

	// Every arm serves durably with group-commit fsync on every ack —
	// llscd's production arrangement, and the configuration where
	// overload is a server-side phenomenon: acks gate on fsync rounds,
	// so under excess load batches pile up inside the durability wait
	// (where the admission token is held) instead of vanishing into
	// scheduler queues. A purely in-memory map on this benchmark's
	// loopback setup never holds more than a core's worth of batches
	// in flight at once, and admission would have nothing to reject.
	//
	// The log runs behind the fault harness's file layer modeling a
	// bandwidth-bound disk: writes are throttled to a fixed byte rate,
	// serialized like one device. A byte-rate cost
	// — unlike a per-write cost — is identical per record however
	// records coalesce into writes, so the ops/sec ceiling it pins is
	// independent of batch size and concurrency: the capacity probe and
	// the small-batch admission-on arm meter against the same disk.
	// Capacity is then IO-bound by construction, deterministic across
	// machines instead of reading the CI box's filesystem, and the CPU
	// headroom left over is what lets the admission-on arm reject the
	// excess cheaply, the way a server whose bottleneck is its disk (not
	// its core count) can.
	// The byte rate is chosen well below what this serving stack can
	// push through the persist layer even on one core, so the modeled
	// disk — not the scheduler — is the binding constraint in every arm.
	const (
		diskBytesPerSec = 24 << 10 // ~42 B/record (w=2) => ~585 ops/s ceiling
		fsyncLatency    = 500 * time.Microsecond
	)
	startServer := func(extra ...server.Option) (srv *server.Server, addr string, cleanup func(), err error) {
		m, err := shard.NewMap(k, ovConns+2, w)
		if err != nil {
			return nil, "", nil, err
		}
		dir, err := os.MkdirTemp("", "llscbench-e16-")
		if err != nil {
			return nil, "", nil, err
		}
		ff := fault.NewFiles(fault.FilesConfig{
			WriteBytesPerSec: diskBytesPerSec,
			SyncLatency:      fsyncLatency,
		})
		st, _, err := persist.Open(dir, m, persist.Options{
			Policy:  persist.SyncAlways,
			OpenLog: func(path string) (persist.LogFile, error) { return ff.Open(path) },
		})
		if err != nil {
			os.RemoveAll(dir)
			return nil, "", nil, err
		}
		opts := append([]server.Option{
			server.WithMaxBatch(maxBatch),
			server.WithMetrics(server.NewMetrics(ovConns + 2)),
			server.WithTracer(trace.New(trace.Config{})),
			server.WithPersist(st),
		}, extra...)
		s := server.New(m, opts...)
		a, err := s.Listen("127.0.0.1:0")
		if err != nil {
			st.Close()
			os.RemoveAll(dir)
			return nil, "", nil, err
		}
		go s.Serve()
		return s, a.String(), func() { s.Close(); st.Close(); os.RemoveAll(dir) }, nil
	}

	// Arm 1 — capacity: closed-loop saturation throughput, and the SLO
	// every later arm is held to: 4× the capacity p99, floored at 1ms so
	// a fast machine does not set an unmeetable bar.
	_, capAddr, capCleanup, err := startServer()
	if err != nil {
		return nil, err
	}
	capRes, err := NetLoadClosedLoop(capAddr, capConns, capWorkers, w, dur, 0)
	capCleanup()
	if err != nil {
		return nil, fmt.Errorf("E16 capacity arm: %w", err)
	}
	slo := 4 * capRes.P99
	if slo < time.Millisecond {
		slo = time.Millisecond
	}
	capWithin := 0
	for _, l := range capRes.Lats {
		if l <= slo {
			capWithin++
		}
	}
	capGoodput := capRes.OpsPerSec * float64(capWithin) / float64(len(capRes.Lats))
	rate := 2 * capRes.OpsPerSec

	// Overload arms: identical 2× open-loop offered load; the only
	// difference is WithMaxInflight. Retries are off — at sustained
	// overload the goodput-optimal client policy is drop-and-move-on
	// (each arrival is replaced by a fresh one anyway); the retry path
	// is exercised by the client resilience tests, not priced here.
	type armOut struct {
		res  sloResult
		busy uint64
	}
	overloadArm := func(extra ...server.Option) (armOut, error) {
		srv, addr, cleanup, err := startServer(extra...)
		if err != nil {
			return armOut{}, err
		}
		defer cleanup()
		res, err := netLoadOpenLoop(addr, ovConns, w, rate, outstanding, dur, slo,
			client.WithRetries(0))
		if err != nil {
			return armOut{}, err
		}
		return armOut{res, srv.Stats().BusyRejects}, nil
	}
	off, err := overloadArm()
	if err != nil {
		return nil, fmt.Errorf("E16 admission-off arm: %w", err)
	}
	on, err := overloadArm(server.WithMaxInflight(maxInflight))
	if err != nil {
		return nil, fmt.Errorf("E16 admission-on arm: %w", err)
	}

	t := &Table{
		ID: "e16",
		Title: fmt.Sprintf("E16: goodput under 2x open-loop overload, admission control off vs on "+
			"(K=%d shards, W=%d, maxbatch=%d, fsync=always, SLO=%v, %v/arm)", k, w, maxBatch, slo, dur),
		Note: "goodput = OK responses within the SLO per second, SLO = max(4x capacity p99, 1ms), " +
			"latency charged from each arrival's due time (client queueing included); " +
			"gen late = the most the pacer enqueued an arrival after its due time; " +
			"all arms serve durably with group-commit fsync gating each ack; " +
			fmt.Sprintf("admission on = WithMaxInflight(%d), excess batches bounced StatusBusy; ", maxInflight) +
			"the off arm's goodput collapses toward zero by design.",
		Cols: []string{"arm", "load", "conns", "admit",
			"ok ops/s", "goodput", "%cap", "p50 ms", "p99 ms", "busy rejects", "errs", "drops", "gen late ms"},
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	t.AddRow("capacity", "closed", capConns, "off",
		capRes.OpsPerSec, capGoodput, 100.0,
		ms(capRes.P50), ms(capRes.P99), uint64(0), capRes.Errs, 0, "-")
	addOv := func(name, admit string, a armOut) {
		goodput := float64(a.res.withinSLO) / a.res.elapsed
		t.AddRow(name, "2x open", ovConns, admit,
			float64(a.res.ok)/a.res.elapsed, goodput, 100*goodput/capGoodput,
			ms(Quantile(a.res.lats, 0.50)), ms(Quantile(a.res.lats, 0.99)),
			a.busy, a.res.errs, a.res.dropped, ms(a.res.genLate))
	}
	addOv("overload", "off", off)
	addOv("overload", fmt.Sprintf("on(%d)", maxInflight), on)
	return t, nil
}
