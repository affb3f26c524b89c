package persist

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mwllsc/internal/obs"
	"mwllsc/internal/shard"
	"mwllsc/internal/wire"
)

// ErrClosed is returned by operations on a closed Store.
var ErrClosed = errors.New("persist: store closed")

// Store is the open durability state of one map: the log segment at
// the current generation, the commit sequence counter, and the
// group-commit syncer. Append, Sync and NextSeq are safe for concurrent
// use; Checkpoint serializes with itself.
type Store struct {
	dir    string
	k, w   int
	policy Policy

	seq atomic.Uint64

	// mu guards the open segment: Append writes it, and a group-commit
	// round and rotate fsync it, all under mu, so an Append waits out an
	// fsync in progress. A round that starts after an Append returned
	// therefore finds that Append's bytes in the file it fsyncs or in a
	// retired file that rotate has already fsynced.
	mu    sync.Mutex
	f     LogFile
	buf   []byte
	dirty bool // written since the last fsync

	ckptMu sync.Mutex // serializes Checkpoint; guards gen
	gen    uint64

	kick chan struct{}
	stop chan struct{}
	done chan struct{}

	waitMu  sync.Mutex
	waiters []chan struct{}
	closed  bool
	close1  sync.Once

	failMu  sync.Mutex
	failure error
	sick    atomic.Bool

	openLog func(path string) (LogFile, error)

	records atomic.Uint64
	bytes   atomic.Uint64
	syncs   atomic.Uint64
	ckpts   atomic.Uint64

	// appendHist times Append's log write. syncHist times each
	// group-commit round that actually fsynced something — the number
	// that bounds commit acknowledgment latency under SyncAlways. Both
	// record nanoseconds into one stripe: their writers hold mu.
	appendHist *obs.Histogram
	syncHist   *obs.Histogram
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Records     uint64 // records appended since Open
	Bytes       uint64 // log bytes written since Open
	Syncs       uint64 // group-commit fsync rounds completed
	Checkpoints uint64 // checkpoints written since Open
	Seq         uint64 // current commit sequence number
}

// Recovery summarizes what Open reconstructed from dir.
type Recovery struct {
	Checkpoint bool   // a checkpoint file was loaded
	Watermark  uint64 // its sequence watermark (0 without a checkpoint)
	Segments   int    // log segment files read
	Replayed   int    // records applied on top of the checkpoint
	Skipped    int    // records at or below the watermark (already in it)
	Repaired   int    // segments truncated at a torn or corrupt tail
	NextSeq    uint64 // first sequence number new appends will exceed
}

// Open recovers dir's durable state into m — which must be freshly
// created and not yet shared — and returns a Store appending to a new
// segment generation. The map's geometry must match what the directory
// was created with; a mismatch is an error, never a silent
// reinterpretation. An empty or absent dir starts fresh.
func Open(dir string, m *shard.Map, opts Options) (*Store, Recovery, error) {
	opts = opts.withDefaults()
	k, w := m.Shards(), m.W()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovery{}, fmt.Errorf("persist: %w", err)
	}
	if err := checkMeta(dir, k, w); err != nil {
		return nil, Recovery{}, err
	}
	rec, maxGen, maxSeq, err := recoverInto(dir, m)
	if err != nil {
		return nil, Recovery{}, err
	}
	s := &Store{
		dir:        dir,
		k:          k,
		w:          w,
		policy:     opts.Policy,
		gen:        maxGen + 1,
		kick:       make(chan struct{}, 1),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		appendHist: obs.NewHistogram(1),
		syncHist:   obs.NewHistogram(1),
		openLog:    opts.OpenLog,
	}
	s.seq.Store(maxSeq)
	rec.NextSeq = maxSeq
	if s.f, err = s.openLog(filepath.Join(dir, logName(s.gen))); err != nil {
		return nil, Recovery{}, fmt.Errorf("persist: %w", err)
	}
	if err := syncDir(dir); err != nil {
		s.f.Close()
		return nil, Recovery{}, err
	}
	go s.syncLoop()
	return s, rec, nil
}

// Policy returns the fsync policy.
func (s *Store) Policy() Policy { return s.policy }

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Records:     s.records.Load(),
		Bytes:       s.bytes.Load(),
		Syncs:       s.syncs.Load(),
		Checkpoints: s.ckpts.Load(),
		Seq:         s.seq.Load(),
	}
}

// AppendHist returns the log-append latency histogram (nanoseconds).
func (s *Store) AppendHist() *obs.Histogram { return s.appendHist }

// SyncHist returns the group-commit fsync-round latency histogram
// (nanoseconds).
func (s *Store) SyncHist() *obs.Histogram { return s.syncHist }

// Err returns the store's sticky failure, if any: the first disk error
// seen. A failed store keeps accepting calls but every durability
// guarantee is void until the operator intervenes; under SyncAlways the
// server surfaces the failure to clients instead of acknowledging.
func (s *Store) Err() error {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	return s.failure
}

// Sick reports whether the store has a sticky failure — the lock-free
// form of Err() != nil, cheap enough for the server to consult on every
// batch when disk-sick degraded mode is enabled.
func (s *Store) Sick() bool { return s.sick.Load() }

func (s *Store) fail(err error) {
	s.failMu.Lock()
	if s.failure == nil {
		s.failure = err
	}
	s.failMu.Unlock()
	s.sick.Store(true)
}

// NextSeq allocates the next commit sequence number. The server calls
// it inside every update merge callback; the callback's final run — the
// one whose store-conditional lands — leaves the number that orders the
// record against every other committed update on its shards.
func (s *Store) NextSeq() uint64 { return s.seq.Add(1) }

// Append writes recs to the log, one write per call. It does not wait
// for fsync — callers needing durability-before-ack follow with Sync
// (group commit). Records must already carry their Seq. A failed write
// makes the failure sticky before mu is released, so no later Append
// can land behind a torn record and be acknowledged.
func (s *Store) Append(recs []Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.Err(); err != nil {
		return err
	}
	s.buf = s.buf[:0]
	for i := range recs {
		s.buf = appendRecord(s.buf, &recs[i])
	}
	t0 := time.Now()
	n, err := s.f.Write(s.buf)
	s.appendHist.Observe(0, uint64(time.Since(t0)))
	s.dirty = true
	s.bytes.Add(uint64(n))
	s.records.Add(uint64(len(recs)))
	if err != nil {
		err = fmt.Errorf("persist: appending to log: %w", err)
		s.fail(err)
	}
	return err
}

// Sync waits for a group-commit round that covers every write issued
// before the call: it registers with the syncer, kicks it, and returns
// when the round's fsyncs are done. Concurrent callers share one round —
// this is what makes SyncAlways affordable under pipelined load.
func (s *Store) Sync() error {
	ch := make(chan struct{})
	s.waitMu.Lock()
	if s.closed {
		s.waitMu.Unlock()
		return ErrClosed
	}
	s.waiters = append(s.waiters, ch)
	s.waitMu.Unlock()
	select {
	case s.kick <- struct{}{}:
	default: // a kick is already pending; its round starts after our registration
	}
	select {
	case <-ch:
	case <-s.done:
	}
	return s.Err()
}

// syncLoop is the group-commit goroutine: it runs a round per kick
// (SyncAlways callers), per tick (SyncEverySec), and a final one at
// Close. It stays a goroutine, rather than an fsync each Sync caller
// runs under mu, because callers that register while a round fsyncs all
// share the next one, and with many connections that sharing is worth
// more than the handoff it costs: E16's admission arm served about a
// fifth fewer ops with caller-run fsyncs.
func (s *Store) syncLoop() {
	defer close(s.done)
	var tick <-chan time.Time
	if s.policy == SyncEverySec {
		t := time.NewTicker(time.Second)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-s.stop:
			s.syncRound()
			return
		case <-s.kick:
		case <-tick:
		}
		s.syncRound()
	}
}

// syncRound takes the registered waiters, fsyncs the log if it was
// written since the last fsync, and releases them. Waiters registered
// before the round starts have their writes already issued, so the
// fsync that follows covers them (see Store.mu).
func (s *Store) syncRound() {
	s.waitMu.Lock()
	ws := s.waiters
	s.waiters = nil
	s.waitMu.Unlock()
	s.mu.Lock()
	if s.dirty {
		s.dirty = false
		t0 := time.Now()
		if err := s.f.Sync(); err != nil {
			s.fail(fmt.Errorf("persist: fsync: %w", err))
		}
		s.syncs.Add(1)
		s.syncHist.Observe(0, uint64(time.Since(t0)))
	}
	s.mu.Unlock()
	for _, ch := range ws {
		close(ch)
	}
}

// Checkpoint rewrites the snapshot file and truncates the logs. capture
// must return a cross-shard-atomic K×W snapshot of the map together with
// a sequence watermark S such that, on every shard, exactly the updates
// with Seq < S are reflected in the snapshot — the server implements it
// as an identity transaction over all shards that calls NextSeq inside
// its callback. The store rotates the log to a new segment generation
// first, so records racing the checkpoint keep accumulating in files
// that survive; the old segments are deleted only after the new
// checkpoint is durably in place. Crash-safe at every step.
func (s *Store) Checkpoint(capture func() (rows [][]uint64, watermark uint64, err error)) error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if err := s.Err(); err != nil {
		return err
	}
	oldGen := s.gen
	if err := s.rotate(); err != nil {
		s.fail(err)
		return err
	}
	rows, watermark, err := capture()
	if err != nil {
		// The rotation stands — harmless — but the old checkpoint and
		// old segments remain authoritative.
		return err
	}
	if len(rows) != s.k {
		return fmt.Errorf("persist: checkpoint capture returned %d rows, map has %d shards", len(rows), s.k)
	}
	if err := writeCheckpoint(s.dir, s.k, s.w, rows, watermark); err != nil {
		s.fail(err)
		return err
	}
	if err := removeSegments(s.dir, oldGen); err != nil {
		// The new checkpoint is in place; stale segments only cost disk
		// and replay-time filtering, so this is not a durability failure.
		return err
	}
	s.ckpts.Add(1)
	return nil
}

// rotate moves the log to the next segment generation. It fsyncs the
// retired file under mu and fails the store before releasing mu if that
// fsync fails, so no group-commit round can release a waiter whose
// records sit in the retired file before they are durable.
func (s *Store) rotate() error {
	s.gen++
	f, err := s.openLog(filepath.Join(s.dir, logName(s.gen)))
	if err != nil {
		return fmt.Errorf("persist: rotating log: %w", err)
	}
	s.mu.Lock()
	old := s.f
	s.f, s.dirty = f, false
	if err = old.Sync(); err != nil {
		err = fmt.Errorf("persist: syncing retired log: %w", err)
		s.fail(err)
	}
	s.mu.Unlock()
	if err != nil {
		old.Close()
		return err
	}
	if err := old.Close(); err != nil {
		return fmt.Errorf("persist: closing retired log: %w", err)
	}
	return syncDir(s.dir)
}

// Close runs a final group-commit round, stops the syncer, and closes
// the log; the final round has fsynced whatever was written. The caller
// must have stopped appending (the server's Close drains every
// connection first).
func (s *Store) Close() error {
	s.close1.Do(func() {
		s.waitMu.Lock()
		s.closed = true
		s.waitMu.Unlock()
		close(s.stop)
		<-s.done
		s.mu.Lock()
		defer s.mu.Unlock()
		if err := s.f.Close(); err != nil {
			s.fail(fmt.Errorf("persist: closing log: %w", err))
		}
	})
	return s.Err()
}

// logName is the segment filename at one generation.
func logName(gen uint64) string {
	return fmt.Sprintf("log-%08d.log", gen)
}

// segRE matches a segment filename and captures its generation: the
// one-log layout's log-GGGGGGGG.log, and a v1 directory's per-shard
// shard-SSSS-GGGGGGGG.log, which recovery reads and the first
// checkpoint deletes.
var segRE = regexp.MustCompile(`^(?:log|shard-\d+)-(\d+)\.log$`)

// listSegments returns dir's segment files in filename order.
func listSegments(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var segs []segment
	for _, ent := range ents {
		m := segRE.FindStringSubmatch(ent.Name())
		if m == nil {
			continue
		}
		gen, err := strconv.ParseUint(m[1], 10, 64)
		if err != nil {
			continue
		}
		segs = append(segs, segment{path: filepath.Join(dir, ent.Name()), gen: gen})
	}
	return segs, nil
}

type segment struct {
	path string
	gen  uint64
}

// removeSegments deletes every segment at or below gen.
func removeSegments(dir string, gen uint64) error {
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	var firstErr error
	for _, sg := range segs {
		if sg.gen > gen {
			continue
		}
		if err := os.Remove(sg.path); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("persist: %w", err)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	return syncDir(dir)
}

// Checkpoint file layout (little-endian):
//
//	[8]byte magic "MWLLSCP1" | uint32 version | uint32 k | uint32 w |
//	uint64 watermark | k·w × uint64 values | uint32 crc32c(everything above)
const (
	ckptMagic   = "MWLLSCP1"
	ckptVersion = 1
	ckptFile    = "checkpoint"
)

// writeCheckpoint durably replaces dir's checkpoint file.
func writeCheckpoint(dir string, k, w int, rows [][]uint64, watermark uint64) error {
	buf := make([]byte, 0, 28+k*w*8+4)
	buf = append(buf, ckptMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, ckptVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(k))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(w))
	buf = binary.LittleEndian.AppendUint64(buf, watermark)
	for _, row := range rows {
		if len(row) != w {
			return fmt.Errorf("persist: checkpoint row has %d words, want %d", len(row), w)
		}
		for _, v := range row {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	return writeFileDurable(dir, ckptFile, buf)
}

// readCheckpoint loads and validates dir's checkpoint. ok is false when
// no checkpoint exists; any present-but-invalid checkpoint is an error
// (it was written atomically, so damage means something is deeply wrong
// — better to stop than to serve silently wrong data).
func readCheckpoint(dir string, k, w int) (rows [][]uint64, watermark uint64, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, ckptFile))
	if os.IsNotExist(err) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("persist: %w", err)
	}
	want := 28 + k*w*8 + 4
	if len(data) < 28 || string(data[:8]) != ckptMagic {
		return nil, 0, false, fmt.Errorf("persist: %s is not a checkpoint file", ckptFile)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != ckptVersion {
		return nil, 0, false, fmt.Errorf("persist: checkpoint version %d, this build reads %d", v, ckptVersion)
	}
	ck, cw := binary.LittleEndian.Uint32(data[12:]), binary.LittleEndian.Uint32(data[16:])
	if int(ck) != k || int(cw) != w {
		return nil, 0, false, fmt.Errorf("persist: checkpoint is for K=%d W=%d, map is K=%d W=%d", ck, cw, k, w)
	}
	if len(data) != want {
		return nil, 0, false, fmt.Errorf("persist: checkpoint is %d bytes, want %d", len(data), want)
	}
	sum := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(data[:len(data)-4], castagnoli) != sum {
		return nil, 0, false, fmt.Errorf("persist: checkpoint CRC mismatch")
	}
	watermark = binary.LittleEndian.Uint64(data[20:])
	body := data[28 : len(data)-4]
	rows = make([][]uint64, k)
	for i := range rows {
		rows[i] = make([]uint64, w)
		for t := range rows[i] {
			rows[i][t] = binary.LittleEndian.Uint64(body[(i*w+t)*8:])
		}
	}
	return rows, watermark, true, nil
}

// recoverInto loads the checkpoint and folds the logs into m per shard
// (see the package comment), repairing torn tails in place. It returns
// the recovery summary, the highest segment generation seen, and the
// highest sequence number seen.
func recoverInto(dir string, m *shard.Map) (Recovery, uint64, uint64, error) {
	k, w := m.Shards(), m.W()
	var rec Recovery
	h := m.Acquire()
	defer h.Release()

	rows, watermark, haveCkpt, err := readCheckpoint(dir, k, w)
	if err != nil {
		return rec, 0, 0, err
	}
	rec.Checkpoint, rec.Watermark = haveCkpt, watermark
	if !haveCkpt {
		rows = m.NewSnapshotBuffer()
		h.Snapshot(rows)
	}

	segs, err := listSegments(dir)
	if err != nil {
		return rec, 0, 0, err
	}
	folds := make([]shardFold, k)
	var maxGen uint64
	maxSeq := watermark
	for _, sg := range segs {
		maxGen = max(maxGen, sg.gen)
		data, err := os.ReadFile(sg.path)
		if err != nil {
			return rec, 0, 0, fmt.Errorf("persist: %w", err)
		}
		// Size each shard's fold for its share of the segment's records,
		// counted as the smallest kind, single-key at 26+8·W bytes.
		share := len(data) / (26 + 8*w) / k
		for i := range folds {
			folds[i].grow(share, w)
		}
		good, err := scanRecords(data, w, func(req *wire.Request) {
			maxSeq = max(maxSeq, req.ID)
			if req.ID <= watermark {
				rec.Skipped++
				return
			}
			rec.Replayed++
			if req.Op == wire.OpUpdate {
				folds[m.ShardIndex(req.Key)].add(req.ID, req.Mode, req.Args)
				return
			}
			for j, key := range req.Keys {
				folds[m.ShardIndex(key)].add(req.ID, req.Mode, req.Args[j*w:(j+1)*w])
			}
		})
		if err != nil {
			return rec, 0, 0, fmt.Errorf("%w (%s)", err, sg.path)
		}
		if good < len(data) {
			if err := os.Truncate(sg.path, int64(good)); err != nil {
				return rec, 0, 0, fmt.Errorf("persist: repairing %s: %w", sg.path, err)
			}
			rec.Repaired++
		}
		if good == 0 {
			// Open writes to a new generation and maxGen has seen this
			// one, so an empty segment serves no later recovery: remove
			// it, or every Open would leave one more. A failed remove
			// leaves an empty file, which the next recovery removes.
			_ = os.Remove(sg.path)
		}
		rec.Segments++
	}

	for i := range folds {
		row := rows[i]
		folds[i].apply(row, w)
		h.Update(m.KeyForShard(i), func(v []uint64) { copy(v, row) })
	}
	return rec, maxGen, maxSeq, nil
}

// shardFold collects one shard's merges during recovery: an entry per
// merge, with its W argument words in args.
type shardFold struct {
	entries []foldEntry
	args    []uint64
}

// foldEntry is one merge bound for a shard's row. off locates its
// arguments in the shard's args and grows with arrival order.
type foldEntry struct {
	seq  uint64
	off  int
	mode wire.Mode
}

func (f *shardFold) grow(n, w int) {
	f.entries = slices.Grow(f.entries, n)
	f.args = slices.Grow(f.args, n*w)
}

func (f *shardFold) add(seq uint64, mode wire.Mode, args []uint64) {
	f.entries = append(f.entries, foldEntry{seq: seq, off: len(f.args), mode: mode})
	f.args = append(f.args, args...)
}

// apply merges the shard's entries into row in commit order. Records
// reach the log out of Seq order under concurrent connections, and a v1
// directory spreads them over per-shard files, so the entries are
// sorted when they arrived out of order. Equal Seqs are one multi-key
// record's keys on this shard; they alias one row and merge in key
// order, which is their arrival order.
func (f *shardFold) apply(row []uint64, w int) {
	byCommit := func(a, b foldEntry) int { return cmp.Or(cmp.Compare(a.seq, b.seq), cmp.Compare(a.off, b.off)) }
	if !slices.IsSortedFunc(f.entries, byCommit) {
		slices.SortFunc(f.entries, byCommit)
	}
	for _, e := range f.entries {
		wire.Merge(row, f.args[e.off:e.off+w], e.mode)
	}
}

// metaFile pins the directory to one map geometry so a daemon restarted
// with different -shards/-words fails loudly even before the first
// checkpoint exists. Its version names the segment layout: v1 kept one
// log per shard, v2 keeps one log.
const (
	metaFile   = "meta"
	metaFormat = "mwllsc persist v%d\nk=%d\nw=%d\n"
)

// checkMeta validates dir's geometry stamp, writing a v2 stamp on first
// use. It restamps a v1 directory as v2 before Open writes any one-log
// segment, so a build that reads only per-shard segments refuses the
// directory instead of recovering without the log it cannot see.
func checkMeta(dir string, k, w int) error {
	stamp := fmt.Appendf(nil, metaFormat, 2, k, w)
	data, err := os.ReadFile(filepath.Join(dir, metaFile))
	if os.IsNotExist(err) {
		return writeFileDurable(dir, metaFile, stamp)
	}
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	var v, mk, mw int
	if _, err := fmt.Sscanf(string(data), metaFormat, &v, &mk, &mw); err != nil || v < 1 || v > 2 {
		return fmt.Errorf("persist: %s is not a durability directory (bad meta file)", dir)
	}
	if mk != k || mw != w {
		return fmt.Errorf("persist: %s was created for K=%d W=%d, map is K=%d W=%d", dir, mk, mw, k, w)
	}
	if v == 1 {
		return writeFileDurable(dir, metaFile, stamp)
	}
	return nil
}

// writeFileDurable replaces dir/name with data so that a crash leaves
// the old file or the whole new one, never an empty or partial one:
// write a temp file, fsync it, rename it into place, fsync the
// directory.
func writeFileDurable(dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("persist: writing %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("persist: syncing %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("persist: installing %s: %w", name, err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("persist: syncing %s: %w", dir, err)
	}
	return nil
}
