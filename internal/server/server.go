// Package server exposes a shard.Map over TCP with the wire protocol
// (internal/wire): the serving layer that turns the in-process
// data structure into a system other processes can reach.
//
// Each accepted connection runs one goroutine. It decodes request frames
// and gathers them into batches: it blocks for the first request, then
// drains whatever else has already arrived (up to MaxBatch), so under
// pipelined load one registry Acquire/Release pays for many operations.
// A batch executes in arrival order and its responses leave in that
// order, behind the answer to any malformed frame among them; clients
// still match responses to requests by the id every frame carries.
//
// A batch runs as the stages internal/trace names: admit (take an
// inflight token, or answer the whole batch busy), run (acquire a
// registry slot, execute, release it), persist (log append and, under
// SyncAlways, the group-commit fsync), then emit. Emit encodes all of
// the batch's responses into one buffer and writes it with one call, so
// a pipelined batch's responses share a syscall and an unpipelined round
// trip pays no goroutine handoff.
//
// Consistency is exactly the in-process contract: per-key operations
// are linearizable per shard, UpdateMulti is a cross-shard atomic
// commit, Snapshot is per-shard atomic, SnapshotAtomic cross-shard
// linearizable. Batching never weakens this — a batch is just the same
// sequence of linearizable operations issued by one process slot, in
// the order the connection sent them.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"mwllsc/internal/obs"
	"mwllsc/internal/persist"
	"mwllsc/internal/shard"
	"mwllsc/internal/trace"
	"mwllsc/internal/wire"
)

// Option configures New.
type Option func(*Server)

// WithMaxBatch caps how many pipelined requests one handle acquisition
// may execute (default 64). Larger batches amortize registry traffic
// further but hold a process slot longer.
func WithMaxBatch(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxBatch = n
		}
	}
}

// WithLogf installs a logger for per-connection errors (default: drop
// them; a dying connection is the client's problem, not the server's).
func WithLogf(logf func(format string, args ...any)) Option {
	return func(s *Server) { s.logf = logf }
}

// WithTracer attaches a per-request tracing layer (internal/trace).
// Requests become traced when the client flags them on the wire or the
// tracer head-samples them (Config.SampleN); everything else pays one
// branch per request plus one clock read per batch. nil (the default)
// disables tracing entirely.
func WithTracer(t *trace.Tracer) Option {
	return func(s *Server) { s.tracer = t }
}

// WithPersist attaches a durability store (internal/persist): a batch's
// committed Updates and UpdateMultis are appended to the store's log in
// one write after the batch executes — outside the registry slot, so
// disk I/O never pins a process id — and, under persist.SyncAlways, the
// batch's responses are held until a group-commit fsync covers its
// records. The store must have been opened over the same map this
// server serves.
func WithPersist(st *persist.Store) Option {
	return func(s *Server) { s.persist = st }
}

// WithMaxConns caps concurrently open connections (default 0 =
// unlimited). A connection accepted past the cap is closed immediately
// without serving a byte — shedding at the door is the one overload
// defense that costs the server nothing per rejected client — and
// counted as ShedConns in the stats.
func WithMaxConns(n int) Option {
	return func(s *Server) { s.maxConns = n }
}

// WithIdleTimeout closes a connection whose next request does not
// arrive within d (default 0 = never). The deadline is re-armed before
// each batch-head read, so it also evicts peers that stall mid-frame;
// an active pipelining client never notices it. Closures are counted
// as IdleCloses.
func WithIdleTimeout(d time.Duration) Option {
	return func(s *Server) { s.idleTimeout = d }
}

// WithWriteTimeout evicts a connection whose peer stops draining its
// responses: each batch's write must complete within d (default 0 =
// never). Without it a non-reading client eventually fills its TCP
// window and parks the connection's goroutine in that write forever,
// pinning its buffers; with it the write fails, the connection is
// closed, and the eviction is counted as Evictions.
func WithWriteTimeout(d time.Duration) Option {
	return func(s *Server) { s.writeTimeout = d }
}

// WithMaxInflight bounds how many batches may be executing (registry
// slot through durability) at once (default 0 = unbounded). A batch
// that finds all n admission tokens taken is rejected whole with
// StatusBusy — before acquiring a slot, touching the map, or logging
// anything — which clients treat as an explicit not-executed promise
// and retry with backoff. This converts overload from queueing collapse
// (every request slower) into cheap early rejection (admitted requests
// at full speed, the rest bounced in microseconds); the E16 benchmark
// measures exactly this difference. Rejections count as BusyRejects.
func WithMaxInflight(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.sem = make(chan struct{}, n)
		}
	}
}

// WithDegradeOnDiskError turns a sick durability store into read-only
// degraded mode: once the store has refused an append (torn write,
// fsync failure — persist.Store.Sick), updates are rejected with
// StatusUnavailable before touching the map, while reads, snapshots,
// pings and stats keep serving from memory. Without it (the default)
// the server keeps accepting updates that are applied in memory but
// never durable — visibly, via PersistErrs, but a restart silently
// rewinds them. Rejections count as DegradedRejects.
func WithDegradeOnDiskError(on bool) Option {
	return func(s *Server) { s.degrade = on }
}

// Server serves a shard.Map over TCP.
type Server struct {
	m        *shard.Map
	maxBatch int
	logf     func(format string, args ...any)
	persist  *persist.Store
	metrics  *Metrics
	tracer   *trace.Tracer

	// Overload controls; zero values mean "off" (see the With* options).
	maxConns     int
	idleTimeout  time.Duration
	writeTimeout time.Duration
	sem          chan struct{} // admission tokens; nil = unbounded
	degrade      bool

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	// ctrs are the server counters (see the c* indices in metrics.go),
	// striped per registry slot: per-request bumps from the batch
	// executor write only the cache lines of the slot it holds, so two
	// executors at high GOMAXPROCS never contend on stats. Events with
	// no slot in hand (accepts, decode rejects) use stripe 0 — they are
	// per-connection or error-path rare, not per-request.
	ctrs *obs.Counters
}

// New creates a server over m. The map is shared: in-process callers may
// keep using it concurrently with remote traffic.
func New(m *shard.Map, opts ...Option) *Server {
	s := &Server{
		m:        m,
		maxBatch: 64,
		logf:     func(string, ...any) {},
		conns:    make(map[net.Conn]struct{}),
		ctrs:     obs.NewCounters(m.N(), numCounters),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Map returns the served map.
func (s *Server) Map() *shard.Map { return s.m }

// Tracer returns the attached tracer, nil when none.
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// ErrClosed is returned by Serve after Close.
var ErrClosed = errors.New("server: closed")

// Listen binds addr (e.g. "127.0.0.1:7787"; port 0 picks a free port)
// and remembers the listener so Addr works before Serve is called.
func (s *Server) Listen(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		l.Close()
		return nil, ErrClosed
	}
	if s.listener != nil {
		l.Close()
		return nil, errors.New("server: already listening")
	}
	s.listener = l
	return l.Addr(), nil
}

// Addr returns the bound address, or nil before Listen.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return nil
	}
	return s.listener.Addr()
}

// Serve accepts connections on the listener bound by Listen until Close.
// It always returns a non-nil error; after a clean Close that error is
// ErrClosed, and it returns before Close only when the listener is
// closed under it. Any other Accept error, such as running out of file
// descriptors, is logged and retried after a backoff that starts at
// 5 ms and doubles up to 1 s.
func (s *Server) Serve() error {
	s.mu.Lock()
	l := s.listener
	closed := s.closed
	s.mu.Unlock()
	if l == nil {
		return errors.New("server: Serve before Listen")
	}
	if closed {
		return ErrClosed
	}
	var delay time.Duration // backoff after a failed Accept, as net/http does
	for {
		c, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrClosed
			}
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			// Transient, such as EMFILE: back off and keep serving.
			delay = min(max(2*delay, 5*time.Millisecond), time.Second)
			s.logf("server: accept: %v; retrying in %v", err, delay)
			time.Sleep(delay)
			continue
		}
		delay = 0
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return ErrClosed
		}
		if s.maxConns > 0 && len(s.conns) >= s.maxConns {
			// Shed at the door: closing before serving a byte is the only
			// rejection whose cost does not grow with load. The client sees
			// a reset/EOF and treats it like any broken connection.
			s.mu.Unlock()
			c.Close()
			s.ctrs.Inc(0, cConnsShed)
			continue
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.ctrs.Inc(0, cConnsTotal)
		s.ctrs.Inc(0, cConnsOpen)
		go s.serveConn(c)
	}
}

// ListenAndServe is Listen followed by Serve.
func (s *Server) ListenAndServe(addr string) error {
	if _, err := s.Listen(addr); err != nil {
		return err
	}
	return s.Serve()
}

// Close stops accepting, closes every open connection, and waits for
// all connection goroutines to drain. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	l := s.listener
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

// Stats returns a point-in-time snapshot of the server counters plus
// the served map's geometry, folding the striped banks into the wire
// totals. The latency quantile words are filled from the attached
// Metrics histograms (zero with observability off) and FsyncP99 from
// the durability store (zero without one).
func (s *Server) Stats() wire.ServerStats {
	var c [numCounters]uint64
	s.ctrs.Sums(c[:])
	st := wire.ServerStats{
		Shards:      uint64(s.m.Shards()),
		Slots:       uint64(s.m.N()),
		Words:       uint64(s.m.W()),
		ConnsTotal:  c[cConnsTotal],
		ConnsOpen:   c[cConnsOpen],
		Reqs:        c[cReqs],
		Updates:     c[cUpdates],
		Reads:       c[cReads],
		Snapshots:   c[cSnapshots],
		Multis:      c[cMultis],
		Batches:     c[cBatches],
		BadReqs:     c[cBadReqs],
		PersistErrs: c[cPersistErrs],

		ShedConns:       c[cConnsShed],
		BusyRejects:     c[cBusy],
		Evictions:       c[cEvictions],
		IdleCloses:      c[cIdleClosed],
		DegradedRejects: c[cDegraded],
	}
	if s.metrics != nil {
		snap := s.metrics.Service.Snapshot()
		st.LatP50 = uint64(snap.Quantile(0.50))
		st.LatP99 = uint64(snap.Quantile(0.99))
		st.LatP999 = uint64(snap.Quantile(0.999))
	}
	if s.persist != nil {
		snap := s.persist.SyncHist().Snapshot()
		st.FsyncP99 = uint64(snap.Quantile(0.99))
	}
	return st
}

// respDataSoftCap bounds (in words) the Data backing array a response
// slot may keep: a rare snapshot-sized response would otherwise pin K×W
// words in the slot for the connection's lifetime.
const respDataSoftCap = 4096

// connState is one connection's reusable serving state — the reason the
// hot path is allocation-free in steady state. It holds the batch's
// slots (whose requests recycle their Keys/Args backing arrays and whose
// responses recycle their Data), the log records of the batch's
// committed updates, the per-batch map handle (re-armed with Reacquire
// instead of reallocated), the write buffer, and the merge closures
// pre-bound at connection setup, which would otherwise be allocated per
// update to capture that request's arguments. Only the connection's own
// goroutine touches it.
type connState struct {
	s     *Server
	c     net.Conn
	h     *shard.MapHandle // lazily acquired, then Reacquire per batch
	batch []batchReq
	recs  []persist.Record
	rows  [][]uint64 // snapshot row scratch over resp.Data
	buf   []byte     // response frames awaiting one write
	// failed records a write that failed and closed the connection.
	failed bool

	// Update/UpdateMulti state read by the pre-bound merge closures,
	// which leave the commit's Seq in seq when a store is attached.
	args       []uint64
	dst        []uint64
	mode       wire.Mode
	w          int
	seq        uint64
	mergeOne   func(v []uint64)
	mergeMulti func(vals [][]uint64)

	// degraded is the per-batch verdict of the disk-sick check: set once
	// per batch in run, read by update for every update in it.
	degraded bool

	// Tracing state. tRead is the batch head's arrival stamp — the one
	// clock read the untraced path pays per batch when a tracer is
	// attached. traced says the batch holds a span; stamps[st] is the end
	// of stage st in it (see mark). sampleCtr counts toward the next head
	// sample.
	tRead     time.Time
	traced    bool
	stamps    [trace.WireStages]time.Time
	sampleCtr uint64
}

// newConnState builds the serving state of connection c.
func (s *Server) newConnState(c net.Conn) *connState {
	cs := &connState{
		s:   s,
		c:   c,
		buf: make([]byte, 0, writeBufCap),
	}
	cs.mergeOne = func(v []uint64) {
		wire.Merge(v, cs.args, cs.mode)
		copy(cs.dst, v)
		if s.persist != nil {
			cs.seq = s.persist.NextSeq()
		}
	}
	cs.mergeMulti = func(vals [][]uint64) {
		for i, v := range vals {
			wire.Merge(v, cs.args[i*cs.w:(i+1)*cs.w], cs.mode)
			copy(cs.dst[i*cs.w:(i+1)*cs.w], v)
		}
		if s.persist != nil {
			cs.seq = s.persist.NextSeq()
		}
	}
	return cs
}

// sizedData returns resp.Data resized to n words, reusing its capacity.
func sizedData(resp *wire.Response, n int) []uint64 {
	if cap(resp.Data) < n {
		resp.Data = make([]uint64, n)
	}
	resp.Data = resp.Data[:n]
	return resp.Data
}

func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer s.ctrs.Add(0, cConnsOpen, ^uint64(0))
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	s.readLoop(s.newConnState(c))
}

const (
	// writeBufCap pre-sizes a connection's write buffer (and is the cap
	// an oversized one shrinks back to): room for a batch of small-op
	// responses. Busier connections grow it once and keep it.
	writeBufCap = 4 << 10
	// coalesceMax bounds the bytes one write carries, so a batch of
	// snapshot responses goes out in pieces instead of one huge buffer.
	// A buffer grown past it is released after its write.
	coalesceMax = 256 << 10
)

// batchReq is one slot of a batch: a decoded request, its response,
// its trace span when the request is traced (nil otherwise) and, for an
// update committed with a store attached, the Seq its log record
// carries (0 otherwise).
type batchReq struct {
	req  wire.Request
	resp wire.Response
	span *trace.Span
	seq  uint64
}

// readLoop decodes frames into batches and executes them. It returns on
// any read or protocol error, or once a write has failed (the
// connection is then closed).
func (s *Server) readLoop(cs *connState) {
	c := cs.c
	br := bufio.NewReaderSize(c, 64<<10)
	var frame []byte
	for !cs.failed {
		// Block for the head of the next batch, for at most the idle
		// timeout when one is set. Re-arming before each head read means
		// the deadline also covers a peer that stalls mid-frame; the
		// drain reads below never block (frameBuffered), so an active
		// client pays one SetReadDeadline syscall per batch, not per
		// request.
		if s.idleTimeout > 0 {
			c.SetReadDeadline(time.Now().Add(s.idleTimeout))
		}
		var err error
		frame, err = wire.ReadFrame(br, frame)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				s.ctrs.Inc(0, cIdleClosed)
				s.logf("server: closing idle connection %v", c.RemoteAddr())
			}
			return
		}
		if s.tracer != nil {
			// The batch head's arrival anchors every span in the batch;
			// stamping it here (after the blocking read, before decode) is
			// tracing's only per-batch cost on the untraced path.
			cs.tRead = time.Now()
		}
		cs.batch, cs.traced = cs.batch[:0], false
		frame = s.appendDecoded(cs, frame)
		// Drain requests that already arrived, without blocking: only
		// frames whose payload is fully buffered are taken — a partially
		// arrived frame would block ReadFrame mid-batch on a slow peer
		// while the already-gathered batch sat waiting.
		for len(cs.batch) < s.maxBatch && frameBuffered(br) {
			frame, err = wire.ReadFrame(br, frame)
			if err != nil {
				s.executeBatch(cs)
				return
			}
			frame = s.appendDecoded(cs, frame)
		}
		s.executeBatch(cs)
	}
}

// frameBuffered reports whether br holds one complete frame — the
// 4-byte length prefix and its full payload — so reading it cannot
// block. An oversized length also reports true: ReadFrame rejects it
// from the buffered header alone, without blocking.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	hdr, err := br.Peek(4)
	if err != nil {
		return false
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > wire.MaxFrame {
		return true
	}
	return br.Buffered() >= 4+int(n)
}

// appendDecoded decodes frame into a new batch slot and resets the
// slot's response to an empty OK answer. The slots grow with the batches
// that arrive, never to maxBatch up front: readLoop takes only fully
// buffered frames, so a batch never outgrows what the 64 KiB read buffer
// holds. A malformed request is not batched: its StatusBadRequest answer
// goes straight into the write buffer, ahead of the batch's own
// responses. For wire-flagged or head-sampled requests it also draws the
// trace span the batch's stages will stamp.
func (s *Server) appendDecoded(cs *connState, frame []byte) []byte {
	// Reslice over a recycled slot when possible: DecodeRequest resets
	// every field and reuses the slot's Keys/Args backing arrays, and the
	// response keeps its Data and Stages capacity, which is where the
	// per-request allocations would otherwise be.
	batch := cs.batch
	if len(batch) < cap(batch) {
		batch = batch[:len(batch)+1]
	} else {
		batch = append(batch, batchReq{})
	}
	br := &batch[len(batch)-1]
	if err := wire.DecodeRequest(&br.req, frame); err != nil {
		s.ctrs.Inc(0, cBadReqs)
		// A frame too mangled to carry an id gets id 0; the client will
		// drop it but the stream stays framed.
		cs.put(&wire.Response{ID: br.req.ID, Status: wire.StatusBadRequest, Err: err.Error()})
		return frame
	}
	// A recycled slot may hold a retired span's pointer and the last
	// batch's Seq.
	br.resp = wire.Response{ID: br.req.ID, Data: br.resp.Data[:0], Stages: br.resp.Stages[:0]}
	br.span, br.seq = nil, 0
	if tr := s.tracer; tr != nil {
		if br.req.Traced {
			br.span = tr.Get() // nil when the free list is dry: serve untraced
		} else if n := tr.SampleN(); n > 0 {
			if cs.sampleCtr++; cs.sampleCtr >= n {
				cs.sampleCtr = 0
				br.span = tr.Get()
			}
		}
		cs.traced = cs.traced || br.span != nil
	}
	cs.batch = batch
	return frame
}

// executeBatch answers the gathered batch, stage by stage: admit, run,
// persist, then the Service and Batch histograms and emit. A batch
// admission turns away is answered busy and skips straight to emit.
//
// Emit comes after the registry slot is released and the admission
// token returned: the write blocks when the peer stops reading its
// responses, and blocking while holding a registry slot would let one
// non-reading connection pin a process id that every other connection
// (and in-process callers) may be waiting for.
func (s *Server) executeBatch(cs *connState) {
	if n := len(cs.batch); n > 0 && s.admit(cs) {
		p := s.run(cs)
		s.persistBatch(cs, p)
		// The token covers slot acquisition through durability — the
		// stages whose concurrency overload actually multiplies.
		if s.sem != nil {
			<-s.sem
		}
		if m := s.metrics; m != nil {
			// One window per batch, decode end through durability,
			// attributed to every request in it. Under SyncAlways this is
			// the client-visible service time minus queueing and wire
			// transfer.
			m.Service.ObserveN(p, uint64(time.Since(cs.stamps[trace.StageDecode])), uint64(n))
			m.Batch.Observe(p, uint64(n))
		}
	}
	cs.emit()
}

// mark stamps the end of stage st of a traced batch. An untraced batch
// takes no clock read here.
func (cs *connState) mark(st trace.Stage) {
	if cs.traced {
		cs.stamps[st] = time.Now()
	}
}

// busyMsg and degradedMsg are the constant rejection texts: both paths
// run under load (busy: every over-capacity batch; degraded: every
// update while sick), so they must not format anything per request.
const (
	busyMsg     = "server busy: inflight batch limit reached, retry with backoff"
	degradedMsg = "server degraded: durability log failed, updates disabled (reads still serve)"
)

// admit takes an inflight token before any resources are committed to
// the batch. With none free the server is already executing its
// configured maximum, so every request of the batch is answered
// StatusBusy now, in microseconds, rather than queued behind work that
// is itself queued — the server's explicit promise that none of them
// reached the map, which is what lets clients retry even updates. The
// rejection holds no registry slot, so it counts on stripe 0 (like the
// other no-slot paths). The non-blocking send is the entire cost on the
// admitted path.
func (s *Server) admit(cs *connState) bool {
	if s.sem == nil {
		return true
	}
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	n := uint64(len(cs.batch))
	s.ctrs.Add(0, cBusy, n)
	s.ctrs.Add(0, cBadReqs, n)
	for i := range cs.batch {
		reject(&cs.batch[i].resp, wire.StatusBusy, busyMsg)
	}
	return false
}

// run executes the batch through one acquired handle, in arrival order,
// and returns the counter stripe of the registry slot it held. Another
// executor necessarily holds a different slot and therefore writes
// different cache lines.
func (s *Server) run(cs *connState) int {
	batch := cs.batch
	// The end of decode anchors the Service histogram's window as well as
	// the traced stages, so it is stamped when either is on.
	if cs.traced || s.metrics != nil {
		cs.stamps[trace.StageDecode] = time.Now()
	}
	// Degraded mode is decided once per batch: the store's sick flag is
	// a single atomic load, and every update in the batch sees the same
	// verdict.
	cs.degraded = s.degrade && s.persist != nil && s.persist.Sick()
	cs.mark(trace.StageQueue)
	if cs.h == nil {
		cs.h = s.m.Acquire()
	} else {
		cs.h.Reacquire()
	}
	h := cs.h
	cs.mark(trace.StageAcquire)
	p := h.Process()
	s.ctrs.Inc(p, cBatches)
	s.ctrs.Add(p, cReqs, uint64(len(batch)))
	for i := range batch {
		s.execute(cs, h, p, &batch[i])
	}
	h.Release()
	cs.mark(trace.StageExecute)
	return p
}

// persistBatch makes the batch's committed updates — the slots with a
// nonzero Seq — durable: after execution, outside the registry slot,
// before the responses are written. The record slices alias the batch's
// decode buffers, which stay untouched until the next batch.
func (s *Server) persistBatch(cs *connState, p int) {
	if s.persist == nil {
		return
	}
	cs.recs = cs.recs[:0]
	for i := range cs.batch {
		if br := &cs.batch[i]; br.seq != 0 {
			r := &br.req
			cs.recs = append(cs.recs, persist.Record{Seq: br.seq, Op: r.Op, Mode: r.Mode, Key: r.Key, Keys: r.Keys, Args: r.Args})
		}
	}
	if len(cs.recs) == 0 {
		return
	}
	err := s.persist.Append(cs.recs)
	cs.mark(trace.StagePersist)
	always := s.persist.Policy() == persist.SyncAlways
	if err == nil && always {
		err = s.persist.Sync()
		cs.mark(trace.StageFsync)
	}
	if err == nil {
		return
	}
	s.logf("server: persistence: %v", err)
	s.ctrs.Inc(p, cPersistErrs)
	if !always {
		return
	}
	// The in-memory commit stands, but the durability the policy
	// promises does not — fail the acknowledgment rather than lie about
	// it. The conversions count as BadReqs so the drift is visible in
	// the stats.
	s.ctrs.Add(p, cBadReqs, uint64(len(cs.recs)))
	msg := fmt.Sprintf("persistence failure: %v", err)
	for i := range cs.batch {
		if br := &cs.batch[i]; br.seq != 0 {
			reject(&br.resp, wire.StatusBadRequest, msg)
		}
	}
}

// emit closes the batch's spans, encodes its responses behind whatever
// decode-error answers are already buffered, and writes them out; the
// spans then finish and retire into the tracer's rings. The write can
// block on a peer that stops reading, so emit runs with no registry
// slot or admission token in hand.
func (cs *connState) emit() {
	for i := range cs.batch {
		br := &cs.batch[i]
		if br.span != nil {
			cs.closeSpan(br)
		}
		cs.put(&br.resp)
		if cap(br.resp.Data) > respDataSoftCap {
			br.resp.Data = nil
		}
	}
	cs.flush()
	if cs.traced {
		now := time.Now()
		for i := range cs.batch {
			if sp := cs.batch[i].span; sp != nil {
				sp.Err = sp.Err || cs.failed
				sp.Finish(now)
				cs.s.tracer.Retire(sp)
			}
		}
	}
	// Yield once after the write. A handoff to another goroutine would
	// also start an idle processor, whose thread then polls the network
	// and runs the reply's reader (an in-process client's, for one) the
	// moment it becomes ready; with no handoff, that reader waits for a
	// sleeping thread instead. Gosched starts an idle processor as it
	// yields: on a 2-vCPU host it cut an in-process single-caller round
	// trip from about 25 µs to about 15 µs.
	runtime.Gosched()
}

// closeSpan fills a traced slot's span from the batch's stage stamps
// and its response, and echoes the breakdown on a wire-flagged request's
// OK response. A stage the batch skipped — every stage of a busy batch,
// persist and fsync without a store — has zero width: its stamp is left
// from an earlier batch, before this one's head arrived. The flush stage
// and the total close after the write (emit).
func (cs *connState) closeSpan(br *batchReq) {
	sp, req, resp := br.span, &br.req, &br.resp
	sp.Begin(cs.tRead) // resets the span; set fields after
	last := cs.tRead
	for st, t := range cs.stamps {
		if t.After(last) {
			last = t
		}
		sp.Stamp(trace.Stage(st), last)
	}
	sp.Op = uint8(req.Op)
	sp.Key = req.Key
	sp.Attempts = resp.Attempts
	sp.Batch = uint32(len(cs.batch))
	sp.Err = resp.Status != wire.StatusOK
	if !req.Traced {
		sp.Sampled = true
		sp.TraceID = trace.NewID()
		return
	}
	sp.TraceID = req.TraceID
	if resp.Status == wire.StatusOK {
		resp.Traced, resp.TraceID = true, sp.TraceID
		resp.Stages = append(resp.Stages[:0], sp.Stages[:trace.WireStages]...)
	}
}

// put encodes r onto the write buffer, first writing the buffer out
// when it already holds coalesceMax bytes.
func (cs *connState) put(r *wire.Response) {
	if len(cs.buf) >= coalesceMax {
		cs.flush()
	}
	cs.buf = wire.AppendResponseFrame(cs.buf, r)
}

// flush writes the buffer in one call, under the write-stall deadline
// when one is set. A failed write closes the connection itself: an
// evicted-but-alive peer would otherwise keep the connection (and its
// buffers) open until it went away on its own. After a failure the
// buffer is only discarded.
func (cs *connState) flush() {
	s := cs.s
	if !cs.failed && len(cs.buf) > 0 {
		if s.writeTimeout > 0 {
			cs.c.SetWriteDeadline(time.Now().Add(s.writeTimeout))
		}
		if _, err := cs.c.Write(cs.buf); err != nil {
			cs.failed = true
			if errors.Is(err, os.ErrDeadlineExceeded) {
				s.ctrs.Inc(0, cEvictions)
				s.logf("server: evicting stalled reader %v: %v", cs.c.RemoteAddr(), err)
			} else {
				s.logf("server: write to %v: %v", cs.c.RemoteAddr(), err)
			}
			cs.c.Close()
		}
	}
	// A snapshot-sized response grows the buffer past any steady-state
	// need; release the oversized array instead of pinning it.
	if cap(cs.buf) > coalesceMax {
		cs.buf = make([]byte, 0, writeBufCap)
	}
	cs.buf = cs.buf[:0]
}

// Checkpoint rewrites the durability store's snapshot file and
// truncates its logs (see persist.Store.Checkpoint). The watermark
// capture runs as an identity transaction over all shards: cross-shard
// atomic, so the snapshot is one consistent cut, and conflicting with
// every shard, so the sequence number drawn inside the callback cleanly
// separates the updates the snapshot contains from those it does not.
// Serving continues concurrently; only the capture's brief all-shard
// lock is shared with foreground traffic.
func (s *Server) Checkpoint() error {
	if s.persist == nil {
		return errors.New("server: no durability store attached")
	}
	return s.persist.Checkpoint(func() ([][]uint64, uint64, error) {
		rows := s.m.NewSnapshotBuffer()
		keys := make([]uint64, s.m.Shards())
		for i := range keys {
			keys[i] = s.m.KeyForShard(i)
		}
		var watermark uint64
		h := s.m.Acquire()
		defer h.Release()
		h.UpdateMulti(keys, func(vals [][]uint64) {
			watermark = s.persist.NextSeq()
			for i, v := range vals {
				copy(rows[i], v)
			}
		})
		return rows, watermark, nil
	})
}

// execute runs one slot's request, filling its response (reset when
// the frame decoded).
func (s *Server) execute(cs *connState, h *shard.MapHandle, p int, br *batchReq) {
	req, resp := &br.req, &br.resp
	w := s.m.W()
	switch req.Op {
	case wire.OpPing:
		// Empty OK response.

	case wire.OpRead:
		s.ctrs.Inc(p, cReads)
		resp.Rows, resp.Words = 1, uint32(w)
		h.Read(req.Key, sizedData(resp, w))

	case wire.OpUpdate, wire.OpUpdateMulti:
		s.update(cs, h, p, br)

	case wire.OpSnapshot, wire.OpSnapshotAtomic:
		s.ctrs.Inc(p, cSnapshots)
		k := s.m.Shards()
		// A K×W beyond one frame would be encoded and then kill the
		// client connection at its MaxFrame check; refuse it with a
		// clear error instead (llscd also refuses the geometry at
		// startup).
		if !SnapshotFits(k, w) {
			s.fail(p, resp, fmt.Sprintf("snapshot of %d×%d words exceeds the %d-byte frame limit", k, w, wire.MaxFrame))
			return
		}
		resp.Rows, resp.Words = uint32(k), uint32(w)
		data := sizedData(resp, k*w)
		if cap(cs.rows) < k {
			cs.rows = make([][]uint64, k)
		}
		rows := cs.rows[:k]
		for i := range rows {
			rows[i] = data[i*w : (i+1)*w]
		}
		if req.Op == wire.OpSnapshotAtomic {
			resp.Attempts = uint32(h.SnapshotAtomic(rows))
		} else {
			h.Snapshot(rows)
		}

	case wire.OpStats:
		st := s.Stats()
		resp.Data = st.Append(resp.Data[:0])
		resp.Rows, resp.Words = 1, uint32(len(resp.Data))

	default:
		s.fail(p, resp, fmt.Sprintf("unknown opcode %d", uint8(req.Op)))
	}
}

// update runs an Update or UpdateMulti. With a store attached, the
// merge callback draws a Seq on every run; the final (committing) run
// leaves the number that orders the update's log record against every
// other committed update on its shards, and update keeps it in the slot.
func (s *Server) update(cs *connState, h *shard.MapHandle, p int, br *batchReq) {
	req, resp := &br.req, &br.resp
	multi := req.Op == wire.OpUpdateMulti
	ctr, nk := cUpdates, 1
	if multi {
		ctr, nk = cMultis, len(req.Keys)
	}
	s.ctrs.Inc(p, ctr)
	if cs.degraded {
		s.ctrs.Inc(p, cDegraded)
		s.ctrs.Inc(p, cBadReqs)
		reject(resp, wire.StatusUnavailable, degradedMsg)
		return
	}
	w := s.m.W()
	if msg := badUpdate(req, w); msg != "" {
		s.fail(p, resp, msg)
		return
	}
	resp.Rows, resp.Words = uint32(nk), uint32(w)
	cs.args, cs.mode, cs.dst, cs.w, cs.seq = req.Args, req.Mode, sizedData(resp, nk*w), w, 0
	if multi {
		resp.Attempts = uint32(h.UpdateMulti(req.Keys, cs.mergeMulti))
	} else {
		resp.Attempts = uint32(h.Update(req.Key, cs.mergeOne))
	}
	if s.metrics != nil {
		s.metrics.Attempts.Observe(p, uint64(resp.Attempts))
	}
	br.seq = cs.seq
}

// badUpdate returns why the Update or UpdateMulti req cannot run on a
// map of width w, or "" when it can.
func badUpdate(req *wire.Request, w int) string {
	switch {
	case req.Op == wire.OpUpdate && len(req.Args) != w:
		return fmt.Sprintf("update args have %d words, map width is %d", len(req.Args), w)
	case req.Op == wire.OpUpdateMulti && len(req.Args) != len(req.Keys)*w:
		return fmt.Sprintf("updatemulti args have %d words, want %d keys × width %d", len(req.Args), len(req.Keys), w)
	case req.Mode > wire.ModeSet:
		return fmt.Sprintf("unknown update mode %d", req.Mode)
	}
	return ""
}

// SnapshotFits reports whether a K×W snapshot response fits in one wire
// frame — the only response whose size is set by server geometry rather
// than by a (already frame-bounded) request.
func SnapshotFits(k, w int) bool {
	const respHeader = 9 + 12 // id+status, attempts+rows+words
	return k*w <= (wire.MaxFrame-respHeader)/8
}

// fail answers resp StatusBadRequest with msg, counting it on stripe p.
func (s *Server) fail(p int, resp *wire.Response, msg string) {
	s.ctrs.Inc(p, cBadReqs)
	reject(resp, wire.StatusBadRequest, msg)
}

// reject turns resp into a non-OK answer carrying msg and no data.
func reject(resp *wire.Response, status wire.Status, msg string) {
	resp.Status, resp.Err = status, msg
	resp.Attempts, resp.Rows, resp.Words = 0, 0, 0
	resp.Data = resp.Data[:0]
}
