package main

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mwllsc/internal/client"
	"mwllsc/internal/impls"
	"mwllsc/internal/persist"
	"mwllsc/internal/server"
	"mwllsc/internal/shard"
	"mwllsc/internal/trace"
	"mwllsc/internal/wire"
)

// The served stack mirrors llscd's defaults: K=16 shards, N=16 slots,
// W=2 words, the paper's algorithm, maxbatch 64, metrics on and a tracer
// attached with sampling off.
const (
	servedShards   = 16
	servedSlots    = 16
	servedWords    = 2
	servedMaxBatch = 64
	// servedSetups and durableSetups are how many set-ups setup_s is the
	// median of. A served set-up's thread wake-ups and loopback connects
	// vary twofold from one to the next; a durable one replays the whole
	// prefill and varies less.
	servedSetups = 201

	// pipelinedRate is the fixed offered rate: about half the capacity
	// the max-rate search finds on a quiet 2-core machine. Arrivals come in
	// bursts every pipelinedBurst (5 at a time at this rate), so the
	// client's writer and the server's batch executor have something to
	// coalesce, as they would under independent users' clustered arrivals.
	pipelinedRate  = 20_000
	pipelinedBurst = 250 * time.Microsecond
	// pipelinedMaxOut bounds the operations outstanding at once. Only a
	// stall fills the pool at the fixed rate, and 1024 outlasts a 50 ms
	// one: with 256, stalls of the shared host past 13 ms dropped
	// arrivals in 4 of 20 runs.
	pipelinedMaxOut = 1024
	// The max-rate search starts at searchStart ops/s, doubles until a
	// probe fails, then bisects to searchPrecision.
	searchStart     = 50_000
	searchPrecision = 0.025
	sloP99          = time.Millisecond
	// servedTraceEvery is how often a traced run asks the server for a
	// request's stage breakdown.
	servedTraceEvery = 16

	durableSetups      = 15
	durablePrefill     = 200_000
	durableOutstanding = 16 // closed-loop callers per connection
	// prefillWorker is the generator stream the durable prefill draws
	// from, apart from the load workers' streams.
	prefillWorker = 1 << 21
)

var (
	addWord0Args = []uint64{1, 0}
	addWord1Args = [][]uint64{{0, 1}, {0, 1}}
)

// servedSpanNames names a served operation's root span after the client
// call the benchmark makes.
var servedSpanNames = [nClass]string{"client.update", "client.read", "client.multi", "client.snapshot"}

// stack is one in-process deployment: map, optional durability store,
// server on a loopback port, and a pooled client.
type stack struct {
	m        *shard.Map
	st       *persist.Store
	srv      *server.Server
	served   chan error
	c        *client.Client
	tracer   *trace.Tracer
	recovery persist.Recovery
	openTime time.Duration // persist.Open, recovery included
}

// startStack brings a deployment up the way llscd does with default
// flags plus -dir dir -fsync always when dir is set, and connects a
// client with conns connections. It returns once a Ping has round-tripped.
func startStack(conns int, dir string, p *probes) (*stack, error) {
	s := &stack{}
	if err := s.start(conns, dir, p); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *stack) start(conns int, dir string, p *probes) error {
	factory, err := impls.ByName(impls.JP)
	if err != nil {
		return err
	}
	tcfg := trace.Config{}
	if p != nil {
		factory = p.core.factory()
		// A ring big enough to still hold the window's traced requests
		// when it ends, for the flush stage.
		tcfg = trace.Config{Recent: 1 << 14, MaxLive: 1024}
	}
	if s.m, err = shard.NewMap(servedShards, servedSlots, servedWords, shard.WithFactory(factory)); err != nil {
		return err
	}
	s.tracer = trace.New(tcfg)
	opts := []server.Option{
		server.WithMaxBatch(servedMaxBatch),
		server.WithMetrics(server.NewMetrics(servedSlots)),
		server.WithTracer(s.tracer),
	}
	if dir != "" {
		popts := persist.Options{Policy: persist.SyncAlways}
		if p != nil {
			popts.OpenLog = p.disk.open
		}
		t0 := time.Now()
		if s.st, s.recovery, err = persist.Open(dir, s.m, popts); err != nil {
			return err
		}
		s.openTime = time.Since(t0)
		opts = append(opts, server.WithPersist(s.st))
	}
	s.srv = server.New(s.m, opts...)
	addr, err := s.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve() }()
	if s.c, err = client.Dial(addr.String(), client.WithConns(conns)); err != nil {
		return err
	}
	return s.c.Ping(context.Background())
}

// close shuts the deployment down in llscd's order: clients, server
// (draining every connection), then the store's final fsync. Closing
// twice is harmless.
func (s *stack) close() error {
	var err error
	if s.c != nil {
		s.c.Close()
		s.c = nil
	}
	if s.served != nil {
		s.srv.Close()
		if e := <-s.served; !errors.Is(e, server.ErrClosed) {
			err = e
		}
		s.served = nil
	}
	if s.st != nil {
		if e := s.st.Close(); err == nil {
			err = e
		}
		s.st = nil
	}
	return err
}

// startStacks times setups deployments into m.setup and keeps the last
// one running. With a durability directory it also returns each
// startup's recovery rate in replayed records per second.
func startStacks(setups, conns int, dir string, p *probes, m *measure) (s *stack, rates []float64, err error) {
	for range setups {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		if s, err = startStack(conns, dir, p); err != nil {
			return nil, nil, err
		}
		m.setup = append(m.setup, time.Since(t0))
		if s.st != nil {
			rates = append(rates, float64(s.recovery.Replayed)/s.openTime.Seconds())
		}
	}
	return s, rates, nil
}

// do performs one operation through the client and checks what it
// returns.
func (s *stack) do(ctx context.Context, o op, w *worker) error {
	w.t.attempted[o.class]++
	var err error
	switch o.class {
	case opUpdate:
		var v []uint64
		if v, err = s.c.Add(ctx, o.key, addWord0Args); err == nil {
			w.rd.observe(s.m.ShardIndex(o.key), v[0], &w.t)
		}
	case opRead:
		var v []uint64
		if v, err = s.c.Read(ctx, o.key); err == nil {
			w.rd.observe(s.m.ShardIndex(o.key), v[0], &w.t)
		}
	case opMulti:
		_, err = s.c.AddMulti(ctx, []uint64{o.key, o.key2}, addWord1Args)
	case opSnapshot:
		var rows [][]uint64
		if rows, err = s.c.SnapshotAtomic(ctx); err == nil {
			w.rd.snapshot(rows, &w.t)
		}
	}
	if err != nil {
		w.t.failed[o.class]++
	} else {
		w.t.done[o.class]++
	}
	return err
}

// call is do, tracing one call in servedTraceEvery per worker in traced
// runs.
func (s *stack) call(o op, w *worker, p *probes) error {
	ctx := context.Background()
	w.calls++
	if p == nil || w.calls%servedTraceEvery != 0 {
		return s.do(ctx, o, w)
	}
	w.tr = client.Trace{ServerStages: w.tr.ServerStages[:0]}
	t0 := time.Now()
	err := s.do(client.WithTrace(ctx, &w.tr), o, w)
	if err == nil {
		p.stages.record(p.spans, servedSpanNames[o.class], &w.tr, t0, time.Now(), p.phase.Load() == phaseMeasure)
	}
	return err
}

// closedLoop runs callers goroutines that each wait for a reply before
// sending their next operation, through the warm-up and the window. The
// callers share conns lanes, one per client connection.
func closedLoop(cfg *config, s *stack, conns, callers int, mx mix, p *probes, m *measure) {
	phase := newPhase(p)
	lanes := newLanes(conns)
	workers := make([]*worker, callers)
	var wg sync.WaitGroup
	for i := range callers {
		w, g, l := newWorker(), newGen(cfg.seed, i, mx, false), lanes[i%conns]
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ph := phase.Load()
				if ph == phaseStop {
					return
				}
				o := g.next()
				t0 := time.Now()
				err := s.call(o, w, p)
				d := time.Since(t0)
				if ph != phaseMeasure {
					continue
				}
				l.mu.Lock()
				if err != nil {
					l.lat[o.class].fail()
					l.failed++
				} else {
					l.lat[o.class].observe(d)
					l.ops.Add(1)
				}
				l.mu.Unlock()
			}
		}()
	}
	m.runWindow(cfg, phase, lanes, p)
	wg.Wait()
	for _, w := range workers {
		m.tally.merge(&w.t)
	}
}

func runRPC(cfg *config, wl *workload, p *probes) (*measure, error) {
	if p != nil {
		p.core = newCoreProbe(servedSlots, p.phase)
		p.stages = &stageProbe{}
	}
	m := &measure{}
	s, _, err := startStacks(servedSetups, 1, "", p, m)
	if err != nil {
		return nil, err
	}
	defer s.close()
	p.attach(s)
	closedLoop(cfg, s, 1, 1, wl.mix, p, m)
	return m, finishServed(cfg, wl, s, p, m, 0)
}

// finishServed checks the final state through the client and, traced,
// collects the per-layer metrics.
func finishServed(cfg *config, wl *workload, s *stack, p *probes, m *measure, base uint64) error {
	rows, err := s.c.SnapshotAtomic(context.Background())
	if err != nil {
		return fmt.Errorf("final snapshot: %w", err)
	}
	m.checkErrs = append(m.checkErrs, checkFinal(rows, &m.tally, base, false)...)
	if p == nil {
		return nil
	}
	m.layers = append(m.layers, p.coreMetrics(m.windowOps)...)
	m.layers = append(m.layers, p.windowMetrics(m.windowOps, m.lat[opMulti].n)...)
	m.layers = append(m.layers, p.stages.metrics(s.tracer)...)
	lm, err := ladders(cfg, servedShards, servedWords, wl.mix, wl.name == "pipelined")
	if err != nil {
		return err
	}
	m.layers = append(m.layers, lm...)
	return nil
}

func runPipelined(cfg *config, wl *workload, p *probes) (*measure, error) {
	if p != nil {
		p.core = newCoreProbe(servedSlots, p.phase)
		p.stages = &stageProbe{}
	}
	conns := min(2, cfg.procs)
	m := &measure{}
	s, _, err := startStacks(servedSetups, conns, "", p, m)
	if err != nil {
		return nil, err
	}
	defer s.close()
	p.attach(s)
	phase := newPhase(p)
	g := newGen(cfg.seed, 0, wl.mix, true)
	do := func(o op, w *worker) error { return s.call(o, w, p) }
	ol := &openLoop{rate: pipelinedRate, burst: pipelinedBurst, maxOut: pipelinedMaxOut, next: g.next, do: do, lanes: newLanes(conns)}
	done := make(chan error, 1)
	go func() { done <- ol.run(phase) }()
	m.runWindow(cfg, phase, ol.lanes, p)
	if err := <-done; err != nil {
		return nil, err
	}
	for _, w := range ol.workers {
		m.tally.merge(&w.t)
	}
	m.dropped += ol.dropped
	m.extra = append(m.extra,
		metric{"loadgen.lag_p50_us", us(finite(m.lag.quantile(0.5))), "us", m.lag.n},
		metric{"loadgen.lag_p99_us", us(finite(m.lag.quantile(0.99))), "us", m.lag.n})
	if p == nil && cfg.search {
		rate, probes, err := maxRate(cfg, s, g.next, m)
		if err != nil {
			return nil, err
		}
		m.extra = append(m.extra, metric{"max_rate_ops_s", rate, "1/s", uint64(probes)})
	}
	return m, finishServed(cfg, wl, s, p, m, 0)
}

// maxRate finds the highest offered rate that still meets the SLO: every
// class's p99 within sloP99, no arrival dropped, and at least 99% of the
// offered operations completed. It doubles from searchStart until a probe
// fails, then bisects to searchPrecision. Probe operations count toward
// the correctness checks but not toward the window's metrics.
func maxRate(cfg *config, s *stack, next func() op, m *measure) (rate float64, probes int, err error) {
	pass := func(rate float64) bool {
		if err != nil {
			return false
		}
		probes++
		do := func(o op, w *worker) error { return s.call(o, w, nil) }
		ol := &openLoop{rate: rate, burst: pipelinedBurst, maxOut: pipelinedMaxOut, next: next, do: do, lanes: newLanes(1)}
		phase := &atomic.Int32{}
		phase.Store(phaseMeasure)
		done := make(chan error, 1)
		go func() { done <- ol.run(phase) }()
		time.Sleep(cfg.probe)
		phase.Store(phaseStop)
		if err = <-done; err != nil {
			return false
		}
		for _, w := range ol.workers {
			m.tally.merge(&w.t)
		}
		l := ol.lanes[0]
		ops := l.ops.Load()
		ok := l.dropped == 0 && ops*100 >= (ops+l.failed)*99
		for c := range nClass {
			if l.lat[c].n > 0 && l.lat[c].quantile(0.99) > float64(sloP99) {
				ok = false
			}
		}
		return ok
	}
	lo, hi := 0.0, float64(searchStart)
	for pass(hi) {
		lo, hi = hi, 2*hi
	}
	for lo == 0 && hi > 1000 {
		if hi /= 2; pass(hi) {
			lo, hi = hi, 2*hi
		}
	}
	for lo > 0 && (hi-lo)/lo > searchPrecision {
		mid := (lo + hi) / 2
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probes, err
}

func runDurable(cfg *config, wl *workload, p *probes) (*measure, error) {
	dir, err := os.MkdirTemp("", "llscperf-durable-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := prefill(dir, cfg.seed); err != nil {
		return nil, fmt.Errorf("prefill: %w", err)
	}
	if p != nil {
		p.core = newCoreProbe(servedSlots, p.phase)
		p.stages = &stageProbe{}
		p.disk = &diskProbe{phase: p.phase, spans: p.spans}
	}
	conns := min(2, cfg.procs)
	m := &measure{}
	s, rates, err := startStacks(durableSetups, conns, dir, p, m)
	if err != nil {
		return nil, err
	}
	defer s.close()
	p.attach(s)
	before := s.st.Stats()
	closedLoop(cfg, s, conns, conns*durableOutstanding, wl.mix, p, m)
	after := s.st.Stats()
	m.extra = append(m.extra, metric{"log_bytes_per_update", ratio(after.Bytes-before.Bytes, after.Records-before.Records), "B", after.Records - before.Records})
	if err := finishServed(cfg, wl, s, p, m, durablePrefill); err != nil {
		return nil, err
	}
	if p != nil {
		m.layers = append(m.layers, p.disk.metrics()...)
		m.layers = append(m.layers, metric{"persist.recover_records_per_s", median(rates), "1/s", uint64(len(rates))})
	}
	if err := checkRecovery(s, dir); err != nil {
		m.checkErrs = append(m.checkErrs, err.Error())
	}
	return m, nil
}

// prefill writes durablePrefill seeded Add records straight into the
// store's log, so every restart replays them.
func prefill(dir string, seed uint64) error {
	m, err := shard.NewMap(servedShards, 1, servedWords)
	if err != nil {
		return err
	}
	st, _, err := persist.Open(dir, m, persist.Options{Policy: persist.SyncNone})
	if err != nil {
		return err
	}
	g := newGen(seed, prefillWorker, mix{100, 0, 0, 0}, false)
	batch := make([]persist.Record, 0, 1024)
	for i := range durablePrefill {
		o := g.next()
		batch = append(batch, persist.Record{
			Seq: st.NextSeq(), Op: wire.OpUpdate, Mode: wire.ModeAdd,
			Key: o.key, Args: addWord0Args, Shard: m.ShardIndex(o.key),
		})
		if len(batch) == cap(batch) || i == durablePrefill-1 {
			// Same-shard runs coalesce into one write; replay orders by Seq.
			slices.SortStableFunc(batch, func(a, b persist.Record) int { return cmp.Compare(a.Shard, b.Shard) })
			if err := st.Append(batch); err != nil {
				st.Close()
				return err
			}
			batch = batch[:0]
		}
	}
	return st.Close()
}

// checkRecovery shuts the deployment down gracefully and recovers the
// directory into a fresh map: the recovered state must equal the state
// the server held at shutdown, so no acknowledged update was lost.
func checkRecovery(s *stack, dir string) error {
	want, err := s.c.SnapshotAtomic(context.Background())
	if err != nil {
		return fmt.Errorf("snapshot before shutdown: %w", err)
	}
	if err := s.close(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	m, err := shard.NewMap(servedShards, 1, servedWords)
	if err != nil {
		return err
	}
	st, _, err := persist.Open(dir, m, persist.Options{Policy: persist.SyncNone})
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	defer st.Close()
	got := m.NewSnapshotBuffer()
	m.SnapshotAtomic(got)
	for i := range want {
		if !slices.Equal(want[i], got[i]) {
			return fmt.Errorf("recovered shard %d is %v, the server held %v at shutdown", i, got[i], want[i])
		}
	}
	return nil
}
