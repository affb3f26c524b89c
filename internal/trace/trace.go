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
// one branch; spans are preallocated and recycled; retirement copies
// the span into fixed rings of atomic words (no locks on the recent
// ring, a short mutex on the rare slow-candidate path) so concurrent
// /tracez and /slowz readers race nothing.
package trace

import (
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
	// StageQueue: from batch fully decoded to execution start — the
	// batch queue wait, including the shard-grouping sort.
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
// Tracer.Retire, which copies it into the rings and recycles it; a
// *Span must not be held past Retire.
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

// spanWords is the fixed word footprint of a span in the rings:
// trace id, meta (op/flags/attempts/batch), key, start, total, and the
// per-stage durations.
const spanWords = 5 + NumStages

// encode packs the span into dst.
func (s *Span) encode(dst *[spanWords]uint64) {
	meta := uint64(s.Op) | uint64(s.Attempts)<<16 | uint64(s.Batch)<<48
	if s.Sampled {
		meta |= 1 << 8
	}
	if s.Err {
		meta |= 1 << 9
	}
	dst[0] = s.TraceID
	dst[1] = meta
	dst[2] = s.Key
	dst[3] = uint64(s.Start)
	dst[4] = s.Total
	for i := 0; i < NumStages; i++ {
		dst[5+i] = s.Stages[i]
	}
}

// decode unpacks a ring record into s (clock anchors are zero; the
// span is display-only).
func (s *Span) decode(src *[spanWords]uint64) {
	*s = Span{
		TraceID:  src[0],
		Op:       uint8(src[1]),
		Sampled:  src[1]&(1<<8) != 0,
		Err:      src[1]&(1<<9) != 0,
		Attempts: uint32(src[1] >> 16 & 0xffffffff),
		Batch:    uint32(src[1] >> 48),
		Key:      src[2],
		Start:    int64(src[3]),
		Total:    src[4],
	}
	for i := 0; i < NumStages; i++ {
		s.Stages[i] = src[5+i]
	}
}

// Attempts packing caps at 32 bits; Batch at 16. Both are far beyond
// any real batch executor's values (maxbatch defaults to 64, attempts
// are per-request retry counts).

// ringSlot is one seqlock-guarded span slot: writers bump seq to odd,
// store the words, bump to even; readers copy the words and discard
// the copy when seq changed underneath them. Everything is atomic, so
// the ring is lock-free and race-clean while readers and the writer
// overlap.
type ringSlot struct {
	seq   atomic.Uint64
	words [spanWords]atomic.Uint64
}

func (sl *ringSlot) store(w *[spanWords]uint64) {
	sl.seq.Add(1) // odd: write in progress
	for i := range sl.words {
		sl.words[i].Store(w[i])
	}
	sl.seq.Add(1) // even: stable
}

// load copies the slot out; ok is false when the slot is empty or a
// writer raced the read.
func (sl *ringSlot) load(w *[spanWords]uint64) (ok bool) {
	s1 := sl.seq.Load()
	if s1 == 0 || s1%2 == 1 {
		return false
	}
	for i := range sl.words {
		w[i] = sl.words[i].Load()
	}
	return sl.seq.Load() == s1
}

// slowWindow bounds how long a span defends its slowest-N slot: /slowz
// shows the slowest of the recent past, not of all time.
const slowWindow = time.Minute

// slowEntry is one slot of the slowest-N window.
type slowEntry struct {
	words [spanWords]uint64
	total uint64
	seen  time.Time // retirement time, for window expiry
	live  bool
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

// Tracer owns the span free list and the retirement rings, and serves
// them as /tracez and /slowz (http.go).
type Tracer struct {
	sampleN uint64
	slowNS  uint64
	logf    func(format string, args ...any)

	free chan *Span

	recent []ringSlot
	next   atomic.Uint64 // next recent slot

	slowGate atomic.Uint64 // fast-path filter: min total currently in slow
	slowMu   sync.Mutex
	slow     []slowEntry

	// exemplar-lite: the trace id + latency of the slowest span since
	// the last Exemplar() read, linking histogram tails to traces.
	exMu  sync.Mutex
	exID  uint64
	exLat uint64

	retired atomic.Uint64
	dropped atomic.Uint64
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
		recent:  make([]ringSlot, cfg.Recent),
		slow:    make([]slowEntry, cfg.SlowN),
	}
	for i := 0; i < cfg.MaxLive; i++ {
		t.free <- &Span{}
	}
	return t
}

// SampleN returns the head-sampling rate (1-in-N; 0 = off).
func (t *Tracer) SampleN() uint64 { return t.sampleN }

// SlowThreshold returns the slow-span threshold (0 = off).
func (t *Tracer) SlowThreshold() time.Duration { return time.Duration(t.slowNS) }

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

// Retire completes s: copies it into the recent ring (and the slow
// window when it qualifies), updates the exemplar, emits the slow-op
// log line when past the threshold, and recycles s. The caller must
// not touch s afterwards.
func (t *Tracer) Retire(s *Span) {
	var w [spanWords]uint64
	s.encode(&w)
	total := s.Total
	t.retired.Add(1)

	slot := (t.next.Add(1) - 1) % uint64(len(t.recent))
	t.recent[slot].store(&w)

	t.exMu.Lock()
	if total > t.exLat {
		t.exLat, t.exID = total, s.TraceID
	}
	t.exMu.Unlock()

	slow := t.slowNS > 0 && total >= t.slowNS
	if slow && t.logf != nil {
		t.logf("slow-op trace=%016x op=%d key=%d sampled=%v total=%s decode=%s queue=%s acquire=%s execute=%s persist=%s fsync=%s flush=%s attempts=%d batch=%d",
			s.TraceID, s.Op, s.Key, s.Sampled, time.Duration(total),
			time.Duration(s.Stages[StageDecode]), time.Duration(s.Stages[StageQueue]),
			time.Duration(s.Stages[StageAcquire]), time.Duration(s.Stages[StageExecute]),
			time.Duration(s.Stages[StagePersist]), time.Duration(s.Stages[StageFsync]),
			time.Duration(s.Stages[StageFlush]), s.Attempts, s.Batch)
	}
	// The gate makes the common case one atomic load: only spans that
	// beat the current slowest-N floor (or are past the threshold) pay
	// the mutex.
	if slow || total > t.slowGate.Load() {
		t.offerSlow(&w, total, time.Now())
	}

	*s = Span{}
	select {
	case t.free <- s:
	default: // impossible by construction (list is sized to all spans)
	}
}

// offerSlow inserts the span into the slowest-N window, evicting the
// best victim: an empty or expired slot first, else the smallest
// total if the newcomer beats it. It then refreshes the gate to the
// window's floor.
func (t *Tracer) offerSlow(w *[spanWords]uint64, total uint64, now time.Time) {
	t.slowMu.Lock()
	defer t.slowMu.Unlock()
	victim := -1
	var victimTotal uint64 = ^uint64(0)
	for i := range t.slow {
		e := &t.slow[i]
		if !e.live || now.Sub(e.seen) > slowWindow {
			victim, victimTotal = i, 0
			break
		}
		if e.total < victimTotal {
			victim, victimTotal = i, e.total
		}
	}
	if victim < 0 || (victimTotal > 0 && total < victimTotal) {
		return
	}
	t.slow[victim] = slowEntry{words: *w, total: total, seen: now, live: true}
	floor := ^uint64(0)
	full := true
	for i := range t.slow {
		e := &t.slow[i]
		if !e.live || now.Sub(e.seen) > slowWindow {
			full = false
			continue
		}
		if e.total < floor {
			floor = e.total
		}
	}
	if !full {
		floor = 0 // free slots: let everything through
	}
	t.slowGate.Store(floor)
}

// Recent appends up to max of the most recently retired spans to dst,
// newest first. Spans a concurrent writer is overwriting are skipped.
func (t *Tracer) Recent(dst []Span, max int) []Span {
	n := len(t.recent)
	if max <= 0 || max > n {
		max = n
	}
	head := t.next.Load()
	var w [spanWords]uint64
	for i := 0; i < n && max > 0; i++ {
		slot := (head + uint64(n) - 1 - uint64(i)) % uint64(n)
		if !t.recent[slot].load(&w) {
			continue
		}
		var s Span
		s.decode(&w)
		dst = append(dst, s)
		max--
	}
	return dst
}

// Slow appends the live slowest-N window to dst, slowest first,
// dropping entries that have aged out.
func (t *Tracer) Slow(dst []Span) []Span {
	now := time.Now()
	t.slowMu.Lock()
	entries := make([]slowEntry, 0, len(t.slow))
	for i := range t.slow {
		e := t.slow[i]
		if e.live && now.Sub(e.seen) <= slowWindow {
			entries = append(entries, e)
		}
	}
	t.slowMu.Unlock()
	for i := 1; i < len(entries); i++ { // insertion sort, slowest first
		for j := i; j > 0 && entries[j].total > entries[j-1].total; j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
	for i := range entries {
		var s Span
		s.decode(&entries[i].words)
		dst = append(dst, s)
	}
	return dst
}

// Exemplar returns and resets the trace id and latency of the slowest
// span retired since the previous call — the "exemplar-lite" link from
// a histogram snapshot's max-latency observation to its trace.
func (t *Tracer) Exemplar() (id, latNS uint64) {
	t.exMu.Lock()
	id, latNS = t.exID, t.exLat
	t.exID, t.exLat = 0, 0
	t.exMu.Unlock()
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
	return Stats{Retired: t.retired.Load(), Dropped: t.dropped.Load()}
}
