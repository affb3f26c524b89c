// Package server exposes a shard.Map over TCP with the wire protocol
// (internal/wire): the serving layer that turns the in-process
// data structure into a system other processes can reach.
//
// Each accepted connection runs two goroutines. The reader decodes
// request frames and gathers them into batches: it blocks for the first
// request, then drains whatever else has already arrived (up to
// MaxBatch), so under pipelined load one registry Acquire/Release pays
// for many operations. Within a batch, single-key operations execute
// grouped by target shard — touching each shard's memory once while it
// is hot — which reorders responses relative to arrival; the request id
// in every response frame is what lets clients match them back up.
//
// Who writes a batch's responses depends on the writer goroutine. When
// nothing is queued for it and it is idle, the reader encodes the
// responses and writes them itself, so an unpipelined round trip pays no
// goroutine handoff. Otherwise the reader queues them, and the writer
// goroutine streams them out and flushes only when its queue runs empty,
// coalescing many small frames into few syscalls. Either way the
// responses of different batches may leave out of order, which the
// request ids already allow.
//
// Consistency is exactly the in-process contract: per-key operations
// are linearizable per shard, UpdateMulti is a cross-shard atomic
// commit, Snapshot is per-shard atomic, SnapshotAtomic cross-shard
// linearizable. Batching never weakens this — a batch is just the same
// sequence of linearizable operations issued by one process slot, and
// operations of one connection that target the same key execute in
// arrival order (shard grouping is order-preserving per shard).
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
	"sync/atomic"
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

// WithPersist attaches a durability store (internal/persist): every
// committed Update/UpdateMulti is appended to the store's per-shard log
// after its batch executes — outside the registry slot, so disk I/O
// never pins a process id — and, under persist.SyncAlways, the batch's
// responses are held until a group-commit fsync covers its records. The
// store must have been opened over the same map this server serves.
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
// responses: each coalesced write must complete within d (default 0 =
// never). Without it a non-reading client eventually fills its TCP
// window and parks the connection's writer forever, pinning its
// buffers; with it the write fails, the connection is closed, and the
// eviction is counted as Evictions.
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
// ErrClosed.
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
	for {
		c, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrClosed
			}
			return err
		}
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

// respDataSoftCap bounds (in words) the Data backing array a recycled
// response may keep: a rare snapshot-sized response would otherwise pin
// K×W words in the arena for the connection's lifetime.
const respDataSoftCap = 4096

// connState is one connection's reusable serving state — the reason the
// hot path is allocation-free in steady state. It holds the decoded
// batch (whose Request slots recycle their Keys/Args backing arrays),
// the response arena cycled between the executor and whoever writes the
// responses, the executor's collection slices, the per-batch map handle
// (re-armed with Reacquire instead of reallocated), the outbound half's
// buffers, and the merge closures pre-bound at connection setup, which
// would otherwise be allocated per update to capture that request's
// arguments.
type connState struct {
	s       *Server
	c       net.Conn
	h       *shard.MapHandle // lazily acquired, then Reacquire per batch
	batch   []batchReq
	outs    []outResp // the batch's responses, in batch order
	recs    []persist.Record
	recResp []int               // recs[i] belongs to outs[recResp[i]]
	free    chan *wire.Response // arena: the write side returns, executor takes
	rows    [][]uint64          // snapshot row scratch over resp.Data

	// out queues responses for the writer goroutine while it is busy.
	// It holds a few batches, so the executor can run ahead of a
	// writer that is still coalescing.
	out chan outResp
	wr  connWriter

	// Update/UpdateMulti state read by the pre-bound merge closures.
	args       []uint64
	dst        []uint64
	mode       wire.Mode
	w          int
	rec        *persist.Record // nil when the op is not persisted
	mergeOne   func(v []uint64)
	mergeMulti func(vals [][]uint64)

	// degraded is the per-batch verdict of the disk-sick check: set once
	// per batch in executeBatch, read by execute for every update in it.
	degraded bool

	// Tracing state. tRead is the batch head's arrival stamp — the one
	// clock read the untraced path pays per batch when a tracer is
	// attached. sampleCtr counts toward the next head sample; rng is the
	// per-connection trace-id generator (splitmix64), contention-free
	// because it is never shared.
	tRead     time.Time
	sampleCtr uint64
	rng       uint64
}

// connSeed differentiates the per-connection trace-id rng streams.
var connSeed atomic.Uint64

// nextTraceID returns the next generated trace id (for head-sampled
// spans; wire-flagged spans carry the client's id).
func (cs *connState) nextTraceID() uint64 {
	cs.rng += 0x9e3779b97f4a7c15
	z := cs.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// newConnState builds the serving state of connection c.
func (s *Server) newConnState(c net.Conn) *connState {
	cs := &connState{
		s:     s,
		c:     c,
		batch: make([]batchReq, 0, s.maxBatch),
		outs:  make([]outResp, 0, s.maxBatch),
		// Room for everything in flight at once: the out channel's worth
		// plus one executing batch, so recycled responses are almost
		// never dropped.
		free: make(chan *wire.Response, 5*s.maxBatch),
		out:  make(chan outResp, 4*s.maxBatch),
		rng:  uint64(time.Now().UnixNano()) ^ connSeed.Add(1)<<32,
	}
	cs.wr.buf = make([]byte, 0, writeBufCap)
	cs.mergeOne = func(v []uint64) {
		wire.Merge(v, cs.args, cs.mode)
		copy(cs.dst, v)
		if cs.rec != nil {
			cs.rec.Seq = s.persist.NextSeq()
		}
	}
	cs.mergeMulti = func(vals [][]uint64) {
		for i, v := range vals {
			wire.Merge(v, cs.args[i*cs.w:(i+1)*cs.w], cs.mode)
			copy(cs.dst[i*cs.w:(i+1)*cs.w], v)
		}
		if cs.rec != nil {
			cs.rec.Seq = s.persist.NextSeq()
		}
	}
	return cs
}

// getResp takes a recycled response from the arena (or allocates when
// the arena is dry) and resets it for reuse.
func (cs *connState) getResp() *wire.Response {
	select {
	case r := <-cs.free:
		r.Status = wire.StatusOK
		r.Attempts, r.Rows, r.Words = 0, 0, 0
		r.Data, r.Err = r.Data[:0], ""
		r.Traced, r.TraceID, r.Stages = false, 0, r.Stages[:0]
		return r
	default:
		return &wire.Response{}
	}
}

// putResp returns an encoded response to the arena. Oversized data
// backing arrays (snapshots) are dropped first, mirroring
// wire.ReadFrame's shrink of oversized frame buffers.
func (cs *connState) putResp(r *wire.Response) {
	if cap(r.Data) > respDataSoftCap {
		r.Data = nil
	}
	select {
	case cs.free <- r:
	default:
	}
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

	cs := s.newConnState(c)
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		cs.writeLoop()
	}()
	s.readLoop(cs)
	close(cs.out)
	writerWG.Wait()
}

const (
	// writeBufCap pre-sizes a connection's write buffer (and is the cap
	// an oversized one shrinks back to): room for a batch of small-op
	// responses. Busier connections grow it once and keep it.
	writeBufCap = 4 << 10
	// coalesceMax bounds the bytes one coalesced write carries, so a run
	// of snapshot responses goes out in pieces instead of one huge
	// buffer. A buffer grown past it is released after its write.
	coalesceMax = 256 << 10
)

// outResp is one completed response on its way to the peer, paired
// with its trace span when the request was traced (nil otherwise). The
// span travels with the response because its final stage — coalesce +
// write — only closes after the write that carries it.
type outResp struct {
	resp *wire.Response
	span *trace.Span
}

// connWriter is a connection's outbound half, shared by the writer
// goroutine and the executor's inline path. Whoever holds mu owns the
// buffer and writes it out before letting go, so frames never
// interleave.
type connWriter struct {
	mu    sync.Mutex
	buf   []byte        // whole frames awaiting one write
	spans []*trace.Span // spans riding in buf, finished after its write
	// failed records a write that failed and closed the connection:
	// later responses are only recycled, and their spans retire as Err.
	failed bool
}

// emit sends the responses gathered in cs.outs toward the peer. When
// nothing is queued for the writer goroutine and no one holds the
// writer, the calling executor encodes and writes them itself, sparing
// the round trip a goroutine handoff; otherwise they queue on out and
// the writer goroutine coalesces them with whatever else is queued. The
// inline write can block on a peer that stops reading, so emit runs
// with no registry slot or admission token in hand.
func (cs *connState) emit() {
	w := &cs.wr
	if len(cs.out) == 0 && w.mu.TryLock() {
		for _, or := range cs.outs {
			cs.put(or)
			if len(w.buf) >= coalesceMax {
				cs.flush()
			}
		}
		cs.flush()
		w.mu.Unlock()
		// Yield once after the inline write. Waking the writer goroutine
		// also started an idle processor, whose thread then polled the
		// network and ran the reply's reader (an in-process client's, for
		// one) the moment it became ready; with no handoff, the reader
		// waits for a sleeping thread instead. Gosched starts an idle
		// processor as it yields: on a 2-vCPU host it cut an in-process
		// single-caller round trip from about 25 µs to about 15 µs.
		runtime.Gosched()
		return
	}
	for _, or := range cs.outs {
		cs.out <- or
	}
}

// writeLoop is the writer goroutine: it drains out, coalescing every
// response already queued into one buffer before a single write. After
// a failed write it keeps draining, so the executor never blocks on a
// dead connection and in-flight spans still retire.
func (cs *connState) writeLoop() {
	w := &cs.wr
	for or := range cs.out {
		w.mu.Lock()
		cs.put(or)
	coalesce:
		for len(w.buf) < coalesceMax {
			select {
			case next, ok := <-cs.out:
				if !ok {
					break coalesce
				}
				cs.put(next)
			default:
				break coalesce
			}
		}
		cs.flush()
		w.mu.Unlock()
	}
}

// put encodes one response onto the write buffer and returns it to the
// arena. The caller holds cs.wr.mu.
func (cs *connState) put(or outResp) {
	w := &cs.wr
	if !w.failed {
		w.buf = wire.AppendResponseFrame(w.buf, or.resp)
	}
	cs.putResp(or.resp)
	if or.span != nil {
		w.spans = append(w.spans, or.span)
	}
}

// flush writes the buffer in one call, under the write-stall deadline
// when one is set, then finishes the spans that rode in it (flush stage
// + total) and retires them into the tracer's rings. A failed write
// closes the connection itself: an evicted-but-alive peer would
// otherwise keep the read loop (and the connection's buffers) parked
// until it went away on its own. The caller holds cs.wr.mu.
func (cs *connState) flush() {
	s, w := cs.s, &cs.wr
	if !w.failed && len(w.buf) > 0 {
		if s.writeTimeout > 0 {
			cs.c.SetWriteDeadline(time.Now().Add(s.writeTimeout))
		}
		if _, err := cs.c.Write(w.buf); err != nil {
			w.failed = true
			if errors.Is(err, os.ErrDeadlineExceeded) {
				s.ctrs.Inc(0, cEvictions)
				s.logf("server: evicting stalled reader %v: %v", cs.c.RemoteAddr(), err)
			} else {
				s.logf("server: write to %v: %v", cs.c.RemoteAddr(), err)
			}
			cs.c.Close()
		}
	}
	if len(w.spans) > 0 {
		now := time.Now()
		for _, sp := range w.spans {
			if w.failed {
				sp.Err = true
			}
			sp.Finish(now)
			s.tracer.Retire(sp)
		}
		w.spans = w.spans[:0]
	}
	// A snapshot-sized response grows the buffer past any steady-state
	// need; release the oversized array instead of pinning it.
	if cap(w.buf) > coalesceMax {
		w.buf = make([]byte, 0, writeBufCap)
	}
	w.buf = w.buf[:0]
}

// batchReq is one decoded request waiting in a batch, with its target
// shard precomputed for grouping and its trace span when the request is
// traced (nil otherwise).
type batchReq struct {
	req    wire.Request
	shardI int // target shard for Read/Update; -1 otherwise
	span   *trace.Span
}

// readLoop decodes frames into batches and executes them. It returns on
// any read or protocol error (the connection is then closed).
func (s *Server) readLoop(cs *connState) {
	c := cs.c
	br := bufio.NewReaderSize(c, 64<<10)
	var frame []byte
	for {
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
		cs.batch = cs.batch[:0]
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

// appendDecoded decodes frame into a new batch slot; malformed requests
// are answered immediately with StatusBadRequest and not batched. For
// wire-flagged or head-sampled requests it also draws the trace span the
// batch executor will stamp.
func (s *Server) appendDecoded(cs *connState, frame []byte) []byte {
	// Reslice over a recycled slot when possible: DecodeRequest resets
	// every field and reuses the slot's Keys/Args backing arrays, which
	// is where the per-request allocations would otherwise be.
	batch := cs.batch
	if len(batch) < cap(batch) {
		batch = batch[:len(batch)+1]
	} else {
		batch = append(batch, batchReq{})
	}
	br := &batch[len(batch)-1]
	br.span = nil // recycled slot may hold a retired span's pointer
	if err := wire.DecodeRequest(&br.req, frame); err != nil {
		s.ctrs.Inc(0, cBadReqs)
		// A frame too mangled to carry an id gets id 0; the client will
		// drop it but the stream stays framed.
		resp := cs.getResp()
		resp.ID, resp.Status, resp.Err = br.req.ID, wire.StatusBadRequest, err.Error()
		cs.outs = append(cs.outs[:0], outResp{resp: resp})
		cs.emit()
		cs.batch = batch[:len(batch)-1]
		return frame
	}
	if tr := s.tracer; tr != nil {
		if br.req.Traced {
			br.span = tr.Get() // nil when the free list is dry: serve untraced
		} else if n := tr.SampleN(); n > 0 {
			if cs.sampleCtr++; cs.sampleCtr >= n {
				cs.sampleCtr = 0
				br.span = tr.Get()
			}
		}
	}
	switch br.req.Op {
	case wire.OpRead, wire.OpUpdate:
		br.shardI = s.m.ShardIndex(br.req.Key)
	default:
		br.shardI = -1
	}
	cs.batch = batch
	return frame
}

// executeBatch runs a batch through one acquired handle: single-key
// operations grouped by shard, everything else in arrival order.
//
// Grouping must not reorder operations whose effects could be observed
// in issue order by the issuing client: two single-key ops on the same
// shard keep their order under the stable sort, and every op that can
// touch more than one shard (UpdateMulti, the snapshots) acts as a
// barrier — only the runs of single-key ops *between* barriers are
// shard-sorted. Without the barrier, an Update(k) pipelined before an
// UpdateMulti([k,...]) would execute after it.
//
// Responses are collected locally and emitted only after the handle is
// released and the admission token returned: emitting blocks when the
// peer stops reading its responses, and blocking while holding a
// registry slot would let one non-reading connection pin a process id
// that every other connection (and in-process callers) may be waiting
// for.
func (s *Server) executeBatch(cs *connState) {
	batch := cs.batch
	if len(batch) == 0 {
		return
	}
	// Admission: try to take an inflight token before committing any
	// resources to the batch. No token means the server is already
	// executing its configured maximum — reject the whole batch with
	// StatusBusy now, in microseconds, rather than queue it behind work
	// that is itself queued. The non-blocking send is the entire cost on
	// the admitted path.
	if s.sem != nil {
		select {
		case s.sem <- struct{}{}:
		default:
			s.rejectBusy(cs)
			return
		}
	}
	// Degraded mode is decided once per batch: the store's sick flag is
	// a single atomic load, and every update in the batch sees the same
	// verdict.
	cs.degraded = s.degrade && s.persist != nil && s.persist.Sick()
	// One branch decides whether this batch pays for stage stamping:
	// every timestamp below is taken once per batch and attributed to
	// every traced span in it (the same batch-window attribution the
	// Metrics histograms use), which also makes each span's stage sum
	// equal its total by construction.
	traced := false
	if s.tracer != nil {
		for i := range batch {
			if batch[i].span != nil {
				traced = true
				break
			}
		}
	}
	var t0 time.Time
	if s.metrics != nil || traced {
		t0 = time.Now() // end of decode: frames read + batch gathered
	}
	for lo := 0; lo < len(batch); {
		if batch[lo].shardI < 0 {
			lo++
			continue
		}
		hi := lo + 1
		for hi < len(batch) && batch[hi].shardI >= 0 {
			hi++
		}
		sortRunByShard(batch[lo:hi])
		lo = hi
	}
	cs.outs = cs.outs[:0]
	cs.recs = cs.recs[:0]
	cs.recResp = cs.recResp[:0]
	var tQueue time.Time
	if traced {
		tQueue = time.Now() // sort + queue wait over, acquire begins
	}
	if cs.h == nil {
		cs.h = s.m.Acquire()
	} else {
		cs.h.Reacquire()
	}
	h := cs.h
	var tAcquire time.Time
	if traced {
		tAcquire = time.Now()
	}
	// Stats stripe for everything this batch does: the registry slot we
	// just acquired. Another executor necessarily holds a different slot
	// and therefore writes different cache lines.
	p := h.Process()
	s.ctrs.Inc(p, cBatches)
	s.ctrs.Add(p, cReqs, uint64(len(batch)))
	for i := range batch {
		var rec *persist.Record
		if s.persist != nil {
			cs.recs = append(cs.recs, persist.Record{})
			rec = &cs.recs[len(cs.recs)-1]
		}
		resp := cs.getResp()
		s.execute(cs, h, p, &batch[i].req, rec, resp)
		if rec != nil {
			if rec.Op == 0 { // not a committed update; nothing to log
				cs.recs = cs.recs[:len(cs.recs)-1]
			} else {
				cs.recResp = append(cs.recResp, len(cs.outs))
			}
		}
		cs.outs = append(cs.outs, outResp{resp: resp, span: batch[i].span})
	}
	h.Release()
	var tExecute time.Time
	if traced {
		tExecute = time.Now()
	}
	tPersist, tFsync := tExecute, tExecute // stay zero-width without persistence
	// Durability happens here: after execution, outside the registry
	// slot, before the responses flush. The record slices alias the
	// batch's decode buffers, which stay untouched until the next batch.
	if len(cs.recs) > 0 {
		err := s.persist.Append(cs.recs)
		if traced {
			tPersist = time.Now()
			tFsync = tPersist
		}
		if err == nil && s.persist.Policy() == persist.SyncAlways {
			err = s.persist.Sync()
			if traced {
				tFsync = time.Now()
			}
		}
		if err != nil {
			s.logf("server: persistence: %v", err)
			s.ctrs.Inc(p, cPersistErrs)
			if s.persist.Policy() == persist.SyncAlways {
				// The in-memory commit stands, but the durability the
				// policy promises does not — fail the acknowledgment
				// rather than lie about it. The conversions count as
				// BadReqs so the drift is visible in the stats.
				s.ctrs.Add(p, cBadReqs, uint64(len(cs.recResp)))
				for _, ri := range cs.recResp {
					r := cs.outs[ri].resp
					r.Status = wire.StatusBadRequest
					r.Err = fmt.Sprintf("persistence failure: %v", err)
					r.Attempts, r.Rows, r.Words = 0, 0, 0
					r.Data = r.Data[:0]
				}
			}
		}
	}
	// The admission token covers slot acquisition through durability —
	// the stages whose concurrency overload actually multiplies; the
	// stamping and emit below are per-connection bookkeeping.
	if s.sem != nil {
		<-s.sem
	}
	if s.metrics != nil {
		// One timestamp pair per batch: the whole execute+persist window,
		// attributed to every request in it. Under SyncAlways this is the
		// client-visible service time minus queueing and wire transfer.
		d := uint64(time.Since(t0))
		s.metrics.Service.ObserveN(p, d, uint64(len(batch)))
		s.metrics.Batch.Observe(p, uint64(len(batch)))
	}
	if traced {
		// Stamp every traced span with the batch's stage windows and echo
		// the breakdown on wire-flagged requests' responses. The flush
		// stage and the total close after the write that carries the
		// response out.
		for i := range batch {
			sp := batch[i].span
			if sp == nil {
				continue
			}
			req, resp := &batch[i].req, cs.outs[i].resp
			sp.Begin(cs.tRead)
			sp.Stamp(trace.StageDecode, t0)
			sp.Stamp(trace.StageQueue, tQueue)
			sp.Stamp(trace.StageAcquire, tAcquire)
			sp.Stamp(trace.StageExecute, tExecute)
			sp.Stamp(trace.StagePersist, tPersist)
			sp.Stamp(trace.StageFsync, tFsync)
			sp.Op = uint8(req.Op)
			sp.Key = req.Key
			sp.Attempts = resp.Attempts
			sp.Batch = uint32(len(batch))
			sp.Err = resp.Status != wire.StatusOK
			if req.Traced {
				sp.TraceID = req.TraceID
				if resp.Status == wire.StatusOK {
					resp.Traced, resp.TraceID = true, sp.TraceID
					resp.Stages = append(resp.Stages[:0], sp.Stages[:trace.WireStages]...)
				}
			} else {
				sp.Sampled = true
				sp.TraceID = cs.nextTraceID()
			}
		}
	}
	cs.emit()
}

// busyMsg and degradedMsg are the constant rejection texts: both paths
// run under load (busy: every over-capacity batch; degraded: every
// update while sick), so they must not format anything per request.
const (
	busyMsg     = "server busy: inflight batch limit reached, retry with backoff"
	degradedMsg = "server degraded: durability log failed, updates disabled (reads still serve)"
)

// rejectBusy answers every request of the gathered batch with
// StatusBusy — the server's explicit promise that none of them reached
// the map, which is what lets clients safely retry even updates. It
// runs with no registry slot in hand, so counting uses stripe 0 (like
// the other no-slot paths); traced requests still produce spans so an
// overloaded server remains observable through /tracez.
func (s *Server) rejectBusy(cs *connState) {
	batch := cs.batch
	s.ctrs.Add(0, cBusy, uint64(len(batch)))
	s.ctrs.Add(0, cBadReqs, uint64(len(batch)))
	cs.outs = cs.outs[:0]
	for i := range batch {
		req := &batch[i].req
		resp := cs.getResp()
		resp.ID = req.ID
		resp.Status = wire.StatusBusy
		resp.Err = busyMsg
		if sp := batch[i].span; sp != nil {
			sp.Begin(cs.tRead) // resets the span; set fields after
			sp.Op = uint8(req.Op)
			sp.Key = req.Key
			sp.Batch = uint32(len(batch))
			sp.Err = true
			if req.Traced {
				sp.TraceID = req.TraceID
			} else {
				sp.Sampled = true
				sp.TraceID = cs.nextTraceID()
			}
		}
		cs.outs = append(cs.outs, outResp{resp: resp, span: batch[i].span})
	}
	cs.emit()
}

// sortRunByShard stably sorts a run of single-key requests by target
// shard: an insertion sort, because runs are small (≤ maxBatch), arrival
// order within a shard must be preserved, and sort.SliceStable's closure
// would be the hot path's last per-batch allocation.
func sortRunByShard(run []batchReq) {
	for i := 1; i < len(run); i++ {
		for j := i; j > 0 && run[j].shardI < run[j-1].shardI; j-- {
			run[j], run[j-1] = run[j-1], run[j]
		}
	}
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

// execute runs one request, filling resp (an arena response reset by
// getResp). When persistence is on, rec is a scratch Record the durable
// ops fill in — Seq is drawn inside the merge callback, whose final
// (committing) run leaves the number that orders the record against
// every other committed update on its shards; rec.Op stays 0 for
// non-durable or failed requests.
func (s *Server) execute(cs *connState, h *shard.MapHandle, p int, req *wire.Request, rec *persist.Record, resp *wire.Response) {
	resp.ID = req.ID
	w := s.m.W()
	switch req.Op {
	case wire.OpPing:
		// Empty OK response.

	case wire.OpRead:
		s.ctrs.Inc(p, cReads)
		resp.Rows, resp.Words = 1, uint32(w)
		h.Read(req.Key, sizedData(resp, w))

	case wire.OpUpdate:
		s.ctrs.Inc(p, cUpdates)
		if cs.degraded {
			s.failDegraded(p, resp)
			return
		}
		if len(req.Args) != w {
			s.fail(p, resp, "update args have %d words, map width is %d", len(req.Args), w)
			return
		}
		if req.Mode > wire.ModeSet {
			s.fail(p, resp, "unknown update mode %d", req.Mode)
			return
		}
		resp.Rows, resp.Words = 1, uint32(w)
		cs.args, cs.mode, cs.dst, cs.rec = req.Args, req.Mode, sizedData(resp, w), rec
		resp.Attempts = uint32(h.Update(req.Key, cs.mergeOne))
		if s.metrics != nil {
			s.metrics.Attempts.Observe(p, uint64(resp.Attempts))
		}
		if rec != nil {
			rec.Op, rec.Mode, rec.Key, rec.Args = wire.OpUpdate, req.Mode, req.Key, req.Args
			rec.Shard = s.m.ShardIndex(req.Key)
		}

	case wire.OpSnapshot, wire.OpSnapshotAtomic:
		s.ctrs.Inc(p, cSnapshots)
		k := s.m.Shards()
		// A K×W beyond one frame would be encoded and then kill the
		// client connection at its MaxFrame check; refuse it with a
		// clear error instead (llscd also refuses the geometry at
		// startup).
		if !SnapshotFits(k, w) {
			s.fail(p, resp, "snapshot of %d×%d words exceeds the %d-byte frame limit", k, w, wire.MaxFrame)
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

	case wire.OpUpdateMulti:
		s.ctrs.Inc(p, cMultis)
		if cs.degraded {
			s.failDegraded(p, resp)
			return
		}
		nk := len(req.Keys)
		if len(req.Args) != nk*w {
			s.fail(p, resp, "updatemulti args have %d words, want %d keys × width %d", len(req.Args), nk, w)
			return
		}
		if req.Mode > wire.ModeSet {
			s.fail(p, resp, "unknown update mode %d", req.Mode)
			return
		}
		resp.Rows, resp.Words = uint32(nk), uint32(w)
		cs.args, cs.mode, cs.dst, cs.rec, cs.w = req.Args, req.Mode, sizedData(resp, nk*w), rec, w
		resp.Attempts = uint32(h.UpdateMulti(req.Keys, cs.mergeMulti))
		if s.metrics != nil {
			s.metrics.Attempts.Observe(p, uint64(resp.Attempts))
		}
		if rec != nil {
			rec.Op, rec.Mode, rec.Keys, rec.Args = wire.OpUpdateMulti, req.Mode, req.Keys, req.Args
			rec.Shard = s.m.ShardIndex(req.Keys[0])
			for _, k := range req.Keys[1:] {
				if i := s.m.ShardIndex(k); i < rec.Shard {
					rec.Shard = i
				}
			}
		}

	case wire.OpStats:
		st := s.Stats()
		resp.Data = st.Append(resp.Data[:0])
		resp.Rows, resp.Words = 1, uint32(len(resp.Data))

	default:
		s.fail(p, resp, "unknown opcode %d", uint8(req.Op))
	}
}

// SnapshotFits reports whether a K×W snapshot response fits in one wire
// frame — the only response whose size is set by server geometry rather
// than by a (already frame-bounded) request.
func SnapshotFits(k, w int) bool {
	const respHeader = 9 + 12 // id+status, attempts+rows+words
	return k*w <= (wire.MaxFrame-respHeader)/8
}

// fail marks resp as a StatusBadRequest response, counting it on
// stripe p.
func (s *Server) fail(p int, resp *wire.Response, format string, args ...any) {
	s.ctrs.Inc(p, cBadReqs)
	resp.Status = wire.StatusBadRequest
	resp.Err = fmt.Sprintf(format, args...)
	resp.Attempts, resp.Rows, resp.Words = 0, 0, 0
	resp.Data = resp.Data[:0]
}

// failDegraded marks resp as a StatusUnavailable rejection: the
// read-only degraded mode's answer to an update. The message is
// constant — this path runs for every update while the store is sick.
func (s *Server) failDegraded(p int, resp *wire.Response) {
	s.ctrs.Inc(p, cDegraded)
	s.ctrs.Inc(p, cBadReqs)
	resp.Status = wire.StatusUnavailable
	resp.Err = degradedMsg
	resp.Attempts, resp.Rows, resp.Words = 0, 0, 0
	resp.Data = resp.Data[:0]
}
