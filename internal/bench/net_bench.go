package bench

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"time"

	"mwllsc/internal/client"
	"mwllsc/internal/server"
	"mwllsc/internal/shard"
	"mwllsc/internal/trace"
	"mwllsc/internal/wire"
)

// StartLoopbackServer builds a k×w map with n slots and serves it on a
// free loopback port — the in-process llscd the serving benchmarks (and
// cmd/llscload without -addr) measure against. Callers own Close.
func StartLoopbackServer(k, n, w, maxBatch int) (*server.Server, string, error) {
	m, err := shard.NewMap(k, n, w)
	if err != nil {
		return nil, "", err
	}
	// Metrics and tracer on, matching the daemon's always-on
	// configuration: the numbers the serving benchmarks record are the
	// numbers production pays, llscload's server-side latency columns
	// need the histograms populated, and its -trace exemplars need a
	// tracer answering. Sampling stays off, so the tracer's untraced
	// cost is one clock read per batch (priced by E15).
	s := server.New(m,
		server.WithMaxBatch(maxBatch),
		server.WithMetrics(server.NewMetrics(n)),
		server.WithTracer(trace.New(trace.Config{})))
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	go s.Serve()
	return s, addr.String(), nil
}

// NetLoadResult is one closed-loop load measurement point.
type NetLoadResult struct {
	Ops       int64           // operations completed
	Errs      int64           // operations that returned an error (not in Ops)
	LastErr   string          // one representative error when Errs > 0
	OpsPerSec float64         // aggregate throughput
	P50       time.Duration   // median request latency
	P99       time.Duration   // tail request latency
	AvgBatch  float64         // server-side requests per registry acquisition (0 if unknown)
	SrvP50    time.Duration   // server-side batch-execute latency p50 (0 if the server has no histograms)
	SrvP99    time.Duration   // server-side batch-execute latency p99 (0 if unknown)
	Traces    []client.Trace  // end-to-end stage samples, when tracing was requested
	Lats      []time.Duration // sorted latency samples behind P50/P99 (bounded per worker,
	// a uniform sample on long runs) — E16 computes SLO goodput from them
}

// latencySamples bounds per-worker latency recording so long runs do
// not grow memory without bound; beyond it, a reservoir keeps a uniform
// sample.
const latencySamples = 1 << 15

// latSampler keeps a uniform random sample of at most latencySamples
// latencies from a stream of unknown length (reservoir sampling,
// Vitter's Algorithm R): once full, the n-th latency replaces a random
// kept one with probability latencySamples/n, so early and late
// latencies stay equally represented however long the run.
type latSampler struct {
	kept []time.Duration
	seen uint64
	rng  *rand.Rand
}

func newLatSampler(seed uint64) *latSampler {
	return &latSampler{kept: make([]time.Duration, 0, 4096), rng: rand.New(rand.NewPCG(seed, 0x6c617473))}
}

func (s *latSampler) add(d time.Duration) {
	s.seen++
	if len(s.kept) < latencySamples {
		s.kept = append(s.kept, d)
	} else if j := s.rng.Uint64N(s.seen); j < latencySamples {
		s.kept[j] = d
	}
}

// traceSamples bounds per-worker trace collection, like latencySamples
// bounds latency recording.
const traceSamples = 256

// NetLoadClosedLoop drives addr with `workers` closed-loop goroutines
// (each waits for its response before issuing the next request — the
// load a synchronous service client applies) spread over a pool of
// `conns` connections, for roughly dur. Every operation is a W-word
// Add on a pseudo-random key. Workers sharing a connection pipeline
// through it, so conns controls server-side parallelism and
// workers/conns the pipelining depth per connection.
//
// Op errors are counted, not fatal: workers keep driving load so one
// failing request cannot silently halve the offered load mid-window.
// The caller sees the count (and one representative error) in the
// result; only a window with zero successes is an error.
//
// With traceEvery > 0 every traceEvery-th op per worker runs traced
// (client.WithTrace): its client-side queue/round-trip split — and,
// against a tracer-equipped server, the server stage breakdown — is
// collected into Traces (bounded per worker).
//
// Extra client options are applied after the pool size — llscload's
// -timeout passes client.WithOpTimeout so a stalled server turns into
// counted op errors instead of a hung loadgen, and the E16 overload
// benchmark shapes the retry policy per arm.
func NetLoadClosedLoop(addr string, conns, workers, w int, dur time.Duration, traceEvery int, opts ...client.Option) (NetLoadResult, error) {
	c, err := client.Dial(addr, append([]client.Option{client.WithConns(conns)}, opts...)...)
	if err != nil {
		return NetLoadResult{}, err
	}
	defer c.Close()

	var before wire.ServerStats
	if before, err = c.Stats(context.Background()); err != nil {
		return NetLoadResult{}, err
	}

	var (
		wg       sync.WaitGroup
		stopped  = make(chan struct{})
		counts   = make([]int64, workers)
		errCount = make([]int64, workers)
		lastErr  = make([]error, workers)
		lats     = make([][]time.Duration, workers)
		traces   = make([][]client.Trace, workers)
	)
	ctx := context.Background()
	deltas := make([]uint64, w)
	deltas[0] = 1
	start := time.Now()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lat := newLatSampler(uint64(g))
			var trs []client.Trace
			var done, failed int64
			var err1 error
			key := uint64(g) << 40
			for {
				select {
				case <-stopped:
					counts[g], lats[g] = done, lat.kept
					errCount[g], lastErr[g] = failed, err1
					traces[g] = trs
					return
				default:
				}
				key++
				opCtx := ctx
				var tr *client.Trace
				if traceEvery > 0 && key%uint64(traceEvery) == 0 && len(trs) < traceSamples {
					tr = &client.Trace{}
					opCtx = client.WithTrace(ctx, tr)
				}
				t0 := time.Now()
				if _, err := c.Add(opCtx, shard.HashUint64(key), deltas); err != nil {
					// Count and keep going: a closed-loop worker that aborts
					// on the first error silently removes its share of the
					// offered load for the rest of the window.
					failed++
					err1 = fmt.Errorf("bench: net worker %d: %w", g, err)
					continue
				}
				d := time.Since(t0)
				done++
				if tr != nil {
					trs = append(trs, *tr)
				}
				lat.add(d)
			}
		}(g)
	}
	time.Sleep(dur)
	close(stopped)
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	var total, totalErrs int64
	var someErr error
	var all []time.Duration
	for g := range counts {
		total += counts[g]
		totalErrs += errCount[g]
		if lastErr[g] != nil {
			someErr = lastErr[g]
		}
		all = append(all, lats[g]...)
	}
	if total == 0 {
		if someErr != nil {
			return NetLoadResult{}, fmt.Errorf("bench: no net ops completed (%d errors, e.g. %v)", totalErrs, someErr)
		}
		return NetLoadResult{}, fmt.Errorf("bench: no net ops completed")
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res := NetLoadResult{
		Ops:       total,
		Errs:      totalErrs,
		OpsPerSec: float64(total) / elapsed,
		P50:       all[len(all)/2],
		P99:       all[len(all)*99/100],
		Lats:      all,
	}
	if someErr != nil {
		res.LastErr = someErr.Error()
	}
	for g := range traces {
		res.Traces = append(res.Traces, traces[g]...)
	}
	if after, err := c.Stats(context.Background()); err == nil {
		if db := after.Batches - before.Batches; db > 0 {
			res.AvgBatch = float64(after.Reqs-before.Reqs) / float64(db)
		}
		// Cumulative quantiles, not windowed — fine for a loadgen run
		// against a fresh or steady-state server, and zero when the
		// target predates the latency words (tolerant decode).
		res.SrvP50 = time.Duration(after.LatP50)
		res.SrvP99 = time.Duration(after.LatP99)
	}
	return res, nil
}

// E11NetServing builds the serving-layer load table: closed-loop Add
// throughput and latency over loopback TCP vs connection count and
// per-connection pipelining depth, against one in-process llscd. This
// is the experiment that turns the in-process E8 numbers into
// end-to-end service numbers: the deltas between the two are the wire,
// syscall and batching costs.
func E11NetServing(o Options) (*Table, error) {
	o = o.withDefaults()
	const (
		k        = 16
		w        = 2
		maxBatch = 64
	)
	type point struct{ conns, perConn int }
	points := []point{
		{1, 1}, {1, 8}, {1, 32},
		{2, 8}, {2, 32},
		{4, 8}, {4, 32},
	}
	maxConns := 0
	for _, p := range points {
		if p.conns > maxConns {
			maxConns = p.conns
		}
	}

	t := &Table{
		ID: "e11",
		Title: fmt.Sprintf("E11: networked serving over loopback TCP (K=%d shards, W=%d, maxbatch=%d, %v/point)",
			k, w, maxBatch, o.Dur),
		Note: "closed-loop Add(key, deltas) load; procs = GOMAXPROCS for the point; " +
			"conns = client pool size (server-side parallelism), " +
			"inflight = concurrent workers (pipelining depth = inflight/conns); " +
			"avg batch = server requests per registry acquisition.",
		Cols: []string{"procs", "conns", "inflight", "ops/s", "p50 us", "p99 us", "avg batch"},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0)) // restore the ambient setting
	for _, procs := range o.Procs {
		runtime.GOMAXPROCS(procs)
		// A fresh server per procs value: goroutines parked on the old
		// setting's run queues must not color the next sweep point.
		err := func() error {
			// Each in-flight batch pins one registry slot; a couple of spares
			// keep Stats and stragglers from queueing behind the loadgen.
			srv, addr, err := StartLoopbackServer(k, maxConns+2, w, maxBatch)
			if err != nil {
				return err
			}
			defer srv.Close()
			for _, p := range points {
				res, err := NetLoadClosedLoop(addr, p.conns, p.conns*p.perConn, w, o.Dur, 0)
				if err != nil {
					return fmt.Errorf("conns=%d inflight=%d: %w", p.conns, p.conns*p.perConn, err)
				}
				t.AddRow(procs, p.conns, p.conns*p.perConn, res.OpsPerSec,
					float64(res.P50.Nanoseconds())/1e3, float64(res.P99.Nanoseconds())/1e3, res.AvgBatch)
			}
			return nil
		}()
		if err != nil {
			return nil, fmt.Errorf("E11 procs=%d: %w", procs, err)
		}
	}
	return t, nil
}
