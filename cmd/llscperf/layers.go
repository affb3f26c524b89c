package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mwllsc/internal/client"
	"mwllsc/internal/core"
	"mwllsc/internal/impls"
	"mwllsc/internal/mwobj"
	"mwllsc/internal/persist"
	"mwllsc/internal/server"
	"mwllsc/internal/shard"
	"mwllsc/internal/trace"
	"mwllsc/internal/txn"
	"mwllsc/internal/wire"
)

// probes is a traced run's instrumentation. Every probe sits outside the
// program, at a layer's public boundary: a wrapper the layer accepts as
// an option, a stats call, or a trace the client asks the server for.
type probes struct {
	phase  *atomic.Int32
	spans  *spanLog
	core   *coreProbe
	stages *stageProbe // served only
	disk   *diskProbe  // durable only

	// The layers whose counters the window edges sample, set by the
	// workload once its stack is up; nil when it has no such layer.
	m     *shard.Map
	srv   *server.Server
	cl    *client.Client
	st    *persist.Store
	edges [2]counters
}

func newProbes(workload string, spans *spanLog) *probes {
	spans.begin(workload)
	return &probes{phase: &atomic.Int32{}, spans: spans}
}

// attach points the window edges at a served deployment's layers.
func (p *probes) attach(s *stack) {
	if p != nil {
		p.m, p.srv, p.cl, p.st = s.m, s.srv, s.c, s.st
	}
}

// counters is every layer's counters at one window edge.
type counters struct {
	core    core.StatsSnapshot
	calls   [nCalls]uint64
	txn     txn.Stats
	reg     shard.RegistryStats
	srv     wire.ServerStats
	retries uint64
	disk    persist.Stats
}

// edge samples the counters at the window's start (0) or end (1).
func (p *probes) edge(i int) {
	c := &p.edges[i]
	if p.core != nil {
		c.core = p.core.stats.Snapshot()
		for k := range nCalls {
			for l := range p.core.lanes {
				c.calls[k] += p.core.lanes[l].calls[k].Load()
			}
		}
	}
	if p.m != nil {
		c.txn, c.reg = p.m.TxnStats(), p.m.Registry().Stats()
	}
	if p.srv != nil {
		c.srv = p.srv.Stats()
	}
	if p.cl != nil {
		c.retries = p.cl.Retries()
	}
	if p.st != nil {
		c.disk = p.st.Stats()
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// windowMetrics derives the per-layer ratios from the counters the two
// window edges sampled. multis is the number of multi-key updates in
// the window; ratios over zero operations are left out.
func (p *probes) windowMetrics(ops, multis uint64) []metric {
	a, b := &p.edges[0], &p.edges[1]
	var ms []metric
	if p.m != nil {
		acq := uint64(b.reg.Acquires - a.reg.Acquires)
		ms = append(ms, metric{"shard.slot_wait_frac", ratio(uint64(b.reg.Waited-a.reg.Waited), acq), "frac", acq})
		if multis > 0 {
			ms = append(ms,
				metric{"txn.retries_per_multi", ratio(b.txn.Retries-a.txn.Retries, multis), "count", multis},
				metric{"txn.helps_per_multi", ratio(b.txn.Helps-a.txn.Helps, multis), "count", multis})
		}
	}
	if p.srv != nil {
		batches := b.srv.Batches - a.srv.Batches
		ms = append(ms, metric{"server.batch_mean", ratio(b.srv.Reqs-a.srv.Reqs, batches), "count", batches})
	}
	if p.cl != nil {
		ms = append(ms, metric{"client.retries_per_op", ratio(b.retries-a.retries, ops), "count", ops})
	}
	if p.st != nil {
		syncs := b.disk.Syncs - a.disk.Syncs
		ms = append(ms, metric{"persist.records_per_fsync", ratio(b.disk.Records-a.disk.Records, syncs), "count", syncs})
	}
	return ms
}

// LL/SC/VL call kinds, as the core probe counts them.
const (
	callLL = iota
	callSC
	callVL
	nCalls
)

var callNames = [nCalls]string{"core.ll", "core.sc", "core.vl"}

// coreTimeEvery is the core probe's sampling period: it times one call
// in this many per process id and counts all of them.
const coreTimeEvery = 64

// coreProbe wraps every shard's object (the paper's algorithm, with
// core.Stats attached) to count and time LL, SC and VL at the core's
// boundary.
type coreProbe struct {
	stats core.Stats
	phase *atomic.Int32
	lanes []coreLane // one per process id

	mu  sync.Mutex
	lat [nCalls]hist
}

// coreLane is one process id's counters, padded to its own cache lines.
// Only the goroutine holding the id touches trace and children.
type coreLane struct {
	calls    [nCalls]atomic.Uint64
	trace    bool
	children []childSpan
	_        [64]byte
}

type childSpan struct {
	kind       int
	start, end time.Time
}

func newCoreProbe(n int, phase *atomic.Int32) *coreProbe {
	return &coreProbe{phase: phase, lanes: make([]coreLane, n)}
}

// factory builds the paper's algorithm with the probe's stats and wraps
// each object in the timing shim.
func (c *coreProbe) factory() mwobj.Factory {
	inner := impls.JPWithStats(&c.stats)
	return func(n, w int, initial []uint64) (mwobj.MW, error) {
		obj, err := inner(n, w, initial)
		if err != nil {
			return nil, err
		}
		return &timedMW{MW: obj, c: c}, nil
	}
}

type timedMW struct {
	mwobj.MW
	c *coreProbe
}

func (t *timedMW) LL(p int, dst []uint64) {
	l := &t.c.lanes[p]
	sampled := l.calls[callLL].Add(1)%coreTimeEvery == 0
	if !sampled && !l.trace {
		t.MW.LL(p, dst)
		return
	}
	t0 := time.Now()
	t.MW.LL(p, dst)
	t.c.record(l, callLL, sampled, t0, time.Now())
}

func (t *timedMW) SC(p int, src []uint64) bool {
	l := &t.c.lanes[p]
	sampled := l.calls[callSC].Add(1)%coreTimeEvery == 0
	if !sampled && !l.trace {
		return t.MW.SC(p, src)
	}
	t0 := time.Now()
	ok := t.MW.SC(p, src)
	t.c.record(l, callSC, sampled, t0, time.Now())
	return ok
}

func (t *timedMW) VL(p int) bool {
	l := &t.c.lanes[p]
	sampled := l.calls[callVL].Add(1)%coreTimeEvery == 0
	if !sampled && !l.trace {
		return t.MW.VL(p)
	}
	t0 := time.Now()
	ok := t.MW.VL(p)
	t.c.record(l, callVL, sampled, t0, time.Now())
	return ok
}

func (c *coreProbe) record(l *coreLane, kind int, sampled bool, t0, t1 time.Time) {
	if sampled && c.phase.Load() == phaseMeasure {
		c.mu.Lock()
		c.lat[kind].observe(t1.Sub(t0))
		c.mu.Unlock()
	}
	if l.trace {
		l.children = append(l.children, childSpan{kind, t0, t1})
	}
}

// begin marks process p's next operation as traced: its core calls are
// kept as child spans until end.
func (c *coreProbe) begin(p int) {
	l := &c.lanes[p]
	l.trace, l.children = true, l.children[:0]
}

// end records the traced operation's span and its core children.
func (c *coreProbe) end(p int, spans *spanLog, name string, t0, t1 time.Time) {
	l := &c.lanes[p]
	l.trace = false
	id := spans.newTrace()
	parent := spans.add(id, 0, name, t0, t1)
	for _, ch := range l.children {
		spans.add(id, parent, callNames[ch.kind], ch.start, ch.end)
	}
}

// coreMetrics reports the core layer over the window the edges bracket;
// ops is the workload's completed operations in that window.
func (p *probes) coreMetrics(ops uint64) []metric {
	a, b, c := &p.edges[0], &p.edges[1], p.core
	var ms []metric
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range nCalls {
		ms = append(ms, metric{callNames[k] + "_ns", finite(c.lat[k].quantile(0.5)), "ns", c.lat[k].n})
	}
	scs := uint64(b.core.SCTotal - a.core.SCTotal)
	lls := uint64(b.core.LLTotal - a.core.LLTotal)
	return append(ms,
		metric{"core.sc_success_frac", ratio(uint64(b.core.SCSuccess-a.core.SCSuccess), scs), "frac", scs},
		metric{"core.ll_helped_frac", ratio(uint64(b.core.LLHelped-a.core.LLHelped), lls), "frac", lls},
		metric{"core.llsc_per_op", ratio(b.calls[callLL]-a.calls[callLL]+b.calls[callSC]-a.calls[callSC], ops), "count", ops})
}

// diskProbe is a persist.Options.OpenLog wrapper timing every log write
// and fsync the store issues.
type diskProbe struct {
	phase *atomic.Int32
	spans *spanLog

	mu           sync.Mutex
	write, fsync hist
	bytes        uint64
}

func (d *diskProbe) open(path string) (persist.LogFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &timedLog{f: f, d: d}, nil
}

type timedLog struct {
	f *os.File
	d *diskProbe
}

func (l *timedLog) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := l.f.Write(b)
	l.d.record(&l.d.write, "persist.write", n, t0, time.Now())
	return n, err
}

func (l *timedLog) Sync() error {
	t0 := time.Now()
	err := l.f.Sync()
	l.d.record(&l.d.fsync, "persist.fsync", 0, t0, time.Now())
	return err
}

func (l *timedLog) Close() error { return l.f.Close() }

func (d *diskProbe) record(h *hist, name string, n int, t0, t1 time.Time) {
	if d.phase.Load() != phaseMeasure {
		return
	}
	d.mu.Lock()
	h.observe(t1.Sub(t0))
	d.bytes += uint64(n)
	sample := h.n%traceEvery == 0
	d.mu.Unlock()
	if sample {
		d.spans.add(d.spans.newTrace(), 0, name, t0, t1)
	}
}

func (d *diskProbe) metrics() []metric {
	d.mu.Lock()
	defer d.mu.Unlock()
	return []metric{
		{"persist.write_p50_us", us(finite(d.write.quantile(0.5))), "us", d.write.n},
		{"persist.write_p99_us", us(finite(d.write.quantile(0.99))), "us", d.write.n},
		{"persist.fsync_p50_us", us(finite(d.fsync.quantile(0.5))), "us", d.fsync.n},
		{"persist.fsync_p99_us", us(finite(d.fsync.quantile(0.99))), "us", d.fsync.n},
		{"persist.bytes_per_write", ratio(d.bytes, d.write.n), "B", d.write.n},
	}
}

// stageProbe collects the client-side trace of 1 in servedTraceEvery served
// requests: the client's send-queue wait and round trip, and the server
// stage breakdown the response echoes.
type stageProbe struct {
	mu     sync.Mutex
	queue  hist
	rtt    hist
	net    hist
	stages [trace.WireStages]hist
}

// record records one traced request that completed at t1, when it ran
// inside the window: spans for the client call, its queue wait and
// round trip, and the server stages laid end to end inside the round
// trip. Only durations cross the wire, so the server span is centred in
// the round trip.
func (s *stageProbe) record(spans *spanLog, name string, tr *client.Trace, t0, t1 time.Time, measuring bool) {
	if !measuring {
		return
	}
	var srv time.Duration
	for _, ns := range tr.ServerStages {
		srv += time.Duration(ns)
	}
	s.mu.Lock()
	s.queue.observe(tr.QueueWait)
	s.rtt.observe(tr.RoundTrip)
	if len(tr.ServerStages) == trace.WireStages {
		s.net.observe(tr.RoundTrip - srv)
		for i, ns := range tr.ServerStages {
			s.stages[i].observe(time.Duration(ns))
		}
	}
	s.mu.Unlock()
	root := spans.add(tr.ID, 0, name, t0, t1)
	q0 := t1.Add(-tr.Total)
	spans.add(tr.ID, root, "client.queue", q0, q0.Add(tr.QueueWait))
	r0 := t1.Add(-tr.RoundTrip)
	rtt := spans.add(tr.ID, root, "client.round_trip", r0, t1)
	if len(tr.ServerStages) == 0 {
		return
	}
	s0 := r0.Add((tr.RoundTrip - srv) / 2)
	sid := spans.add(tr.ID, rtt, "server", s0, s0.Add(srv))
	for i, ns := range tr.ServerStages {
		s1 := s0.Add(time.Duration(ns))
		spans.add(tr.ID, sid, "server."+trace.StageName(trace.Stage(i)), s0, s1)
		s0 = s1
	}
}

// metrics reports the client and server stages; flush comes from the
// server tracer's ring, since the response cannot carry the stage that
// is still sending it.
func (s *stageProbe) metrics(tr *trace.Tracer) []metric {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ms []metric
	q := func(name string, h *hist, p99 bool) {
		ms = append(ms, metric{name + "_p50_us", us(finite(h.quantile(0.5))), "us", h.n})
		if p99 {
			ms = append(ms, metric{name + "_p99_us", us(finite(h.quantile(0.99))), "us", h.n})
		}
	}
	q("client.queue_wait", &s.queue, true)
	q("client.round_trip", &s.rtt, false)
	q("client.net", &s.net, false)
	for i := range s.stages {
		q("server."+trace.StageName(trace.Stage(i)), &s.stages[i], true)
	}
	var flush hist
	for _, sp := range tr.Recent(nil, 0) {
		flush.observe(time.Duration(sp.Stages[trace.StageFlush]))
	}
	q("server.flush", &flush, true)
	return ms
}

// maxSpans bounds the spans one workload keeps in memory; later spans
// are counted and dropped.
const maxSpans = 1 << 14

// span is one timed call at a layer boundary. Spans of one request share
// Trace; Parent is the id of the span that made the call (0 for a root).
type span struct {
	Workload string `json:"workload"`
	Trace    uint64 `json:"trace"`
	ID       uint32 `json:"id"`
	Parent   uint32 `json:"parent"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// spanLog keeps a run's spans in memory until write.
type spanLog struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	kept     int // spans kept for workload
	spans    []span
	dropped  uint64
	traces   atomic.Uint64
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// begin starts keeping the next workload's spans.
func (l *spanLog) begin(workload string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.workload, l.kept = workload, 0
}

func (l *spanLog) newTrace() uint64 { return l.traces.Add(1) }

// add records a span and returns its id, or 0 once the log is full.
func (l *spanLog) add(traceID uint64, parent uint32, name string, start, end time.Time) uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.kept >= maxSpans {
		l.dropped++
		return 0
	}
	l.kept++
	id := uint32(len(l.spans) + 1)
	l.spans = append(l.spans, span{l.workload, traceID, id, parent, name,
		start.Sub(l.epoch).Nanoseconds(), end.Sub(l.epoch).Nanoseconds()})
	return id
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := json.Marshal(map[string]any{
		"epoch_unix_ns": l.epoch.UnixNano(),
		"dropped":       l.dropped,
		"spans":         l.spans,
	})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
