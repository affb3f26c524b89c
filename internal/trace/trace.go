// Package trace is the per-request tracing layer for the llscd serving
// path: where aggregate histograms (internal/obs) answer "how slow is
// the service", a trace answers the question every tail-latency
// investigation starts with — *where did this one slow request spend
// its time?*
//
// A request becomes traced one of two ways: the client flags it on the
// wire (an optional trailing trace id on the request frame, see
// internal/wire and docs/WIRE.md), or the server head-samples it at a
// 1-in-N rate. Either way the server stamps monotonic timestamps at
// each stage the request already passes through — frame decode, batch
// queue wait, registry slot acquire, shard execute, persist append,
// group-commit fsync wait, response encode and write — into a Span drawn
// from a preallocated free list, and retires the completed span here.
//
// The design constraint is the same one that shaped the serving path
// and the obs layer: the *untraced* path must stay allocation-free and
// within the E14 overhead budget. Everything per-request is gated on
// one branch; spans are preallocated and recycled. Retirement copies
// the span, as a plain Span, into a fixed recent ring and, when it is
// among the slowest, a fixed slowest-N window. One mutex guards both
// and the exemplar; it is held for a copy, plus a scan of the window
// only for a span slower than the window's floor. /tracez and /slowz
// readers copy under the same mutex, so they never see a torn span.
package trace

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Stage indexes a span's per-stage duration. The stages partition the
// span's server-side lifetime in order; their sum equals Total by
// construction (each stamp closes one stage and opens the next).
type Stage uint8

// Server pipeline stages, in timeline order.
const (
	// StageDecode: reading the request's frame(s) off the socket and
	// decoding the batch it arrived in (batched frames share the read).
	StageDecode Stage = iota
	// StageQueue: from batch fully decoded to the registry acquire —
	// the per-batch setup (the degraded-mode check), near zero because
	// a connection runs each batch as soon as it is decoded.
	StageQueue
	// StageAcquire: acquiring the registry process slot for the batch.
	StageAcquire
	// StageExecute: running the batch's operations against the shards
	// (the LL/SC attempt/retry window; per-request attempts are in
	// Span.Attempts).
	StageExecute
	// StagePersist: appending the batch's committed updates to the
	// durability log (zero on in-memory servers).
	StagePersist
	// StageFsync: waiting for the group-commit fsync round (nonzero
	// only under -fsync always).
	StageFsync
	// StageFlush: from the batch's last stamp to the end of the write
	// that put this span's response on the wire — encoding the batch's
	// responses plus the write syscall.
	StageFlush
	// NumStages is the number of server stages.
	NumStages = int(StageFlush) + 1
)

// WireStages is the number of leading stages a traced response carries
// back to the client: everything through fsync. StageFlush cannot
// travel — it is still happening while the response's bytes leave.
const WireStages = int(StageFlush)

// StageName returns the short lowercase stage mnemonic.
func StageName(st Stage) string {
	switch st {
	case StageDecode:
		return "decode"
	case StageQueue:
		return "queue"
	case StageAcquire:
		return "acquire"
	case StageExecute:
		return "execute"
	case StagePersist:
		return "persist"
	case StageFsync:
		return "fsync"
	case StageFlush:
		return "flush"
	default:
		return "stage?"
	}
}

// Span is one traced request's record. The server fills it in while the
// request moves through the pipeline and retires it with
// Tracer.Retire, which copies it into the recent ring and the slow
// window and recycles it; a *Span must not be held past Retire.
type Span struct {
	// TraceID identifies the trace: client-chosen for wire-flagged
	// requests, generated for head-sampled ones.
	TraceID uint64
	// Op is the request's wire opcode (a wire.Op; uint8 here so this
	// package does not import the protocol).
	Op uint8
	// Sampled is true for head-sampled spans, false for client-flagged.
	Sampled bool
	// Err is true when the request was answered with a non-OK status
	// (or its connection died before the flush).
	Err bool
	// Attempts is the LL/SC or transaction attempt count (0 when n/a).
	Attempts uint32
	// Batch is the size of the batch the request executed in.
	Batch uint32
	// Key is the request's key (0 for keyless ops).
	Key uint64
	// Start is the span's wall-clock start, nanoseconds since the Unix
	// epoch (durations use the monotonic clock; Start is for display).
	Start int64
	// Total is the span's full duration in nanoseconds: frame arrival
	// through flush.
	Total uint64
	// Stages holds the per-stage durations in nanoseconds. Their sum
	// equals Total.
	Stages [NumStages]uint64

	// begin anchors Total (monotonic); mark is the running stamp, each
	// Stamp closing the stage since the previous mark.
	begin time.Time
	mark  time.Time
}

// Begin resets the span and anchors its clock at t.
func (s *Span) Begin(t time.Time) {
	*s = Span{Start: t.UnixNano(), begin: t, mark: t}
}

// Stamp closes stage st at time t: the stage's duration is the time
// since the previous stamp (or Begin). Stages stamped out of order
// accumulate, so a stage touched twice (persist then fsync per batch
// half) stays correct.
func (s *Span) Stamp(st Stage, t time.Time) {
	s.Stages[st] += uint64(t.Sub(s.mark))
	s.mark = t
}

// Finish closes the final stage (flush) at t and fixes Total as the
// stage sum's wall: t minus Begin's anchor.
func (s *Span) Finish(t time.Time) {
	s.Stamp(StageFlush, t)
	s.Total = uint64(t.Sub(s.begin))
}

// idSeed and idCount drive NewID: splitmix64 over a counter that starts
// from the clock, so two processes draw different sequences.
var (
	idSeed  = uint64(time.Now().UnixNano())
	idCount atomic.Uint64
)

// NewID returns a fresh trace id, unique within the process: the client
// gives one to a WithTrace call whose id is zero, and the server to each
// head-sampled span. Safe for concurrent use.
func NewID() uint64 {
	z := idSeed + idCount.Add(1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// slowWindow bounds how long a span defends its slowest-N slot: /slowz
// shows the slowest of the recent past, not of all time.
const slowWindow = time.Minute

// slowEntry is one slot of the slowest-N window. A slot never filled
// has a zero seen, so it reads as expired.
type slowEntry struct {
	span Span
	seen time.Time // retirement time, for window expiry
}

// Config tunes New. Zero values select sensible defaults.
type Config struct {
	// SampleN enables head sampling: the server traces 1 in SampleN
	// requests on its own initiative. 0 disables head sampling
	// (client-flagged requests are always traced).
	SampleN uint64
	// SlowThreshold marks spans whose Total exceeds it: they always
	// enter the slow ring and emit one structured slow-op log line.
	// 0 disables the threshold (the slow ring still keeps the
	// slowest-N seen in the window).
	SlowThreshold time.Duration
	// Recent is the recent-trace ring capacity (default 256).
	Recent int
	// SlowN is the slowest-N window capacity (default 64).
	SlowN int
	// MaxLive bounds concurrently live spans — the free list size
	// (default 4×Recent). When the list runs dry new traces are
	// dropped (counted), never allocated: tracing may lose spans under
	// overload but cannot add GC pressure.
	MaxLive int
	// Logf, when set, receives one structured line per span past
	// SlowThreshold.
	Logf func(format string, args ...any)
}

// Tracer owns the span free list and the retired spans, and serves them
// as /tracez and /slowz (http.go).
type Tracer struct {
	sampleN uint64
	slowNS  uint64
	logf    func(format string, args ...any)

	free    chan *Span
	dropped atomic.Uint64

	// mu guards the retired spans: the recent ring, the slowest-N
	// window and the exemplar.
	mu      sync.Mutex
	recent  []Span
	retired uint64 // spans retired; the next goes to recent[retired%len]
	slow    []slowEntry
	// slowFloor is the window's smallest total when the last span to
	// enter it found every slot live, else 0, and slowLapse is when the
	// oldest of those slots expires. Retire scans the window only for a
	// span above the floor, past the threshold, or retired after
	// slowLapse, when an expired slot has room for any span.
	slowFloor uint64
	slowLapse time.Time

	// exemplar-lite: the trace id + latency of the slowest span since
	// the last Exemplar() read, linking histogram tails to traces.
	exID  uint64
	exLat uint64
}

// New builds a Tracer from cfg.
func New(cfg Config) *Tracer {
	if cfg.Recent <= 0 {
		cfg.Recent = 256
	}
	if cfg.SlowN <= 0 {
		cfg.SlowN = 64
	}
	if cfg.MaxLive <= 0 {
		cfg.MaxLive = 4 * cfg.Recent
	}
	t := &Tracer{
		sampleN: cfg.SampleN,
		slowNS:  uint64(cfg.SlowThreshold),
		logf:    cfg.Logf,
		free:    make(chan *Span, cfg.MaxLive),
		recent:  make([]Span, cfg.Recent),
		slow:    make([]slowEntry, cfg.SlowN),
	}
	for i := 0; i < cfg.MaxLive; i++ {
		t.free <- &Span{}
	}
	return t
}

// SampleN returns the head-sampling rate (1-in-N; 0 = off).
func (t *Tracer) SampleN() uint64 { return t.sampleN }

// Get draws a span from the free list, or nil when every span is live
// — the caller then serves the request untraced (counted in Stats).
func (t *Tracer) Get() *Span {
	select {
	case s := <-t.free:
		return s
	default:
		t.dropped.Add(1)
		return nil
	}
}

// Retire completes s: emits the slow-op log line when s is past the
// threshold, copies s into the recent ring (and the slow window when it
// qualifies), updates the exemplar, and recycles s. The caller must not
// touch s afterwards.
func (t *Tracer) Retire(s *Span) {
	slow := t.slowNS > 0 && s.Total >= t.slowNS
	if slow && t.logf != nil {
		t.logf("slow-op trace=%016x op=%d key=%d sampled=%v total=%s decode=%s queue=%s acquire=%s execute=%s persist=%s fsync=%s flush=%s attempts=%d batch=%d",
			s.TraceID, s.Op, s.Key, s.Sampled, time.Duration(s.Total),
			time.Duration(s.Stages[StageDecode]), time.Duration(s.Stages[StageQueue]),
			time.Duration(s.Stages[StageAcquire]), time.Duration(s.Stages[StageExecute]),
			time.Duration(s.Stages[StagePersist]), time.Duration(s.Stages[StageFsync]),
			time.Duration(s.Stages[StageFlush]), s.Attempts, s.Batch)
	}
	t.mu.Lock()
	t.recent[t.retired%uint64(len(t.recent))] = *s
	t.retired++
	if s.Total > t.exLat {
		t.exLat, t.exID = s.Total, s.TraceID
	}
	// s.mark, the stamp Finish left, dates s in the slow window: the
	// server finishes a span just before retiring it, so no clock read
	// is needed here.
	if slow || s.Total > t.slowFloor || s.mark.After(t.slowLapse) {
		t.offerSlow(s, s.mark)
	}
	t.mu.Unlock()

	*s = Span{}
	select {
	case t.free <- s:
	default: // impossible by construction (list is sized to all spans)
	}
}

// offerSlow puts s into the slowest-N window in place of the best
// victim: an empty or expired slot first, else the smallest total if
// s's total is at least that. It then recomputes the floor and its
// lapse. t.mu is held.
func (t *Tracer) offerSlow(s *Span, now time.Time) {
	victim, victimTotal := 0, ^uint64(0)
	for i := range t.slow {
		e := &t.slow[i]
		if now.Sub(e.seen) > slowWindow {
			victim, victimTotal = i, 0
			break
		}
		if e.span.Total < victimTotal {
			victim, victimTotal = i, e.span.Total
		}
	}
	if s.Total < victimTotal {
		return
	}
	t.slow[victim] = slowEntry{span: *s, seen: now}
	t.slowFloor, t.slowLapse = ^uint64(0), now.Add(slowWindow)
	for i := range t.slow {
		e := &t.slow[i]
		if now.Sub(e.seen) > slowWindow {
			t.slowFloor = 0 // a free slot: let everything through
			return
		}
		t.slowFloor = min(t.slowFloor, e.span.Total)
		if lapse := e.seen.Add(slowWindow); lapse.Before(t.slowLapse) {
			t.slowLapse = lapse
		}
	}
}

// Recent appends up to max of the most recently retired spans to dst,
// newest first.
func (t *Tracer) Recent(dst []Span, max int) []Span {
	n := len(t.recent)
	if max <= 0 || max > n {
		max = n
	}
	dst = slices.Grow(dst, max)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := uint64(1); i <= min(uint64(max), t.retired); i++ {
		dst = append(dst, t.recent[(t.retired-i)%uint64(n)])
	}
	return dst
}

// Slow appends the live slowest-N window to dst, slowest first,
// dropping entries that have aged out.
func (t *Tracer) Slow(dst []Span) []Span {
	now := time.Now()
	start := len(dst)
	t.mu.Lock()
	for i := range t.slow {
		if e := &t.slow[i]; now.Sub(e.seen) <= slowWindow {
			dst = append(dst, e.span)
		}
	}
	t.mu.Unlock()
	slices.SortStableFunc(dst[start:], func(a, b Span) int { return cmp.Compare(b.Total, a.Total) })
	return dst
}

// Exemplar returns and resets the trace id and latency of the slowest
// span retired since the previous call — the "exemplar-lite" link from
// a histogram snapshot's max-latency observation to its trace.
func (t *Tracer) Exemplar() (id, latNS uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, latNS = t.exID, t.exLat
	t.exID, t.exLat = 0, 0
	return id, latNS
}

// Stats is the tracer's own counter snapshot.
type Stats struct {
	// Retired counts spans completed and recorded.
	Retired uint64
	// Dropped counts traces skipped because the free list ran dry.
	Dropped uint64
}

// Stats returns the tracer's counters.
func (t *Tracer) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{Retired: t.retired, Dropped: t.dropped.Load()}
}
