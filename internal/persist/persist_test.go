package persist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"mwllsc/internal/shard"
	"mwllsc/internal/wire"
)

const (
	tK = 4
	tW = 2
)

func newMap(t *testing.T) *shard.Map {
	t.Helper()
	m, err := shard.NewMap(tK, 8, tW)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func openStore(t *testing.T, dir string, m *shard.Map, opts Options) (*Store, Recovery) {
	t.Helper()
	st, rec, err := Open(dir, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st, rec
}

// apply commits one single-key update to the map and logs it, exactly as
// the server does: Seq drawn inside the merge callback, append after.
func apply(t *testing.T, m *shard.Map, st *Store, mode wire.Mode, key uint64, args []uint64) {
	t.Helper()
	var seq uint64
	m.Update(key, func(v []uint64) {
		wire.Merge(v, args, mode)
		seq = st.NextSeq()
	})
	err := st.Append([]Record{{Seq: seq, Op: wire.OpUpdate, Mode: mode, Key: key, Args: args}})
	if err != nil {
		t.Fatal(err)
	}
}

// applyMulti commits one cross-shard update and logs it.
func applyMulti(t *testing.T, m *shard.Map, st *Store, mode wire.Mode, keys []uint64, args []uint64) {
	t.Helper()
	w := m.W()
	var seq uint64
	m.UpdateMulti(keys, func(vals [][]uint64) {
		for i, v := range vals {
			wire.Merge(v, args[i*w:(i+1)*w], mode)
		}
		seq = st.NextSeq()
	})
	err := st.Append([]Record{{Seq: seq, Op: wire.OpUpdateMulti, Mode: mode, Keys: keys, Args: args}})
	if err != nil {
		t.Fatal(err)
	}
}

// checkpointMap writes a checkpoint of the store's map.
func checkpointMap(t *testing.T, st *Store) {
	t.Helper()
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

func snapshotOf(t *testing.T, m *shard.Map) [][]uint64 {
	t.Helper()
	dst := m.NewSnapshotBuffer()
	m.SnapshotAtomic(dst)
	return dst
}

// reopen recovers dir into a fresh map and returns it with the summary.
func reopen(t *testing.T, dir string, opts Options) (*shard.Map, *Store, Recovery) {
	t.Helper()
	m := newMap(t)
	st, rec := openStore(t, dir, m, opts)
	return m, st, rec
}

func TestFreshOpenAndRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := newMap(t)
	st, rec := openStore(t, dir, m, Options{Policy: SyncAlways})
	if rec.Checkpoint || rec.Replayed != 0 || rec.Segments != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}

	apply(t, m, st, wire.ModeAdd, m.KeyForShard(0), []uint64{5, 1})
	apply(t, m, st, wire.ModeAdd, m.KeyForShard(1), []uint64{7, 2})
	apply(t, m, st, wire.ModeSet, m.KeyForShard(2), []uint64{100, 200})
	applyMulti(t, m, st, wire.ModeAdd,
		[]uint64{m.KeyForShard(0), m.KeyForShard(3)}, []uint64{1, 1, 2, 2})
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(t, m)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	m2, st2, rec2 := reopen(t, dir, Options{})
	defer st2.Close()
	if rec2.Replayed != 4 || rec2.Checkpoint {
		t.Fatalf("recovery %+v, want 4 replayed and no checkpoint", rec2)
	}
	if got := snapshotOf(t, m2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state %v, want %v", got, want)
	}
	if rec2.NextSeq < 4 {
		t.Fatalf("NextSeq %d, want >= 4", rec2.NextSeq)
	}
}

func TestSetOrderRestoredBySeqSort(t *testing.T) {
	// Two Sets on one shard whose records land in the log in REVERSE
	// commit order: replay must sort by Seq, so the later Set wins.
	dir := t.TempDir()
	m := newMap(t)
	st, _ := openStore(t, dir, m, Options{})
	key := m.KeyForShard(1)

	var seq1, seq2 uint64
	m.Update(key, func(v []uint64) { wire.Merge(v, []uint64{1, 1}, wire.ModeSet); seq1 = st.NextSeq() })
	m.Update(key, func(v []uint64) { wire.Merge(v, []uint64{9, 9}, wire.ModeSet); seq2 = st.NextSeq() })
	// Append out of order, as two racing connections could.
	recs := []Record{
		{Seq: seq2, Op: wire.OpUpdate, Mode: wire.ModeSet, Key: key, Args: []uint64{9, 9}},
		{Seq: seq1, Op: wire.OpUpdate, Mode: wire.ModeSet, Key: key, Args: []uint64{1, 1}},
	}
	if err := st.Append(recs); err != nil {
		t.Fatal(err)
	}
	st.Close()

	m2, st2, _ := reopen(t, dir, Options{})
	defer st2.Close()
	got := make([]uint64, tW)
	m2.Read(key, got)
	if got[0] != 9 || got[1] != 9 {
		t.Fatalf("recovered %v, want [9 9] (the later Set)", got)
	}
}

// segWithData returns the segment files that contain at least one byte.
func segWithData(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, sg := range segs {
		fi, err := os.Stat(sg.path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > 0 {
			paths = append(paths, sg.path)
		}
	}
	return paths
}

func TestTornFinalRecordIsTruncated(t *testing.T) {
	dir := t.TempDir()
	m := newMap(t)
	st, _ := openStore(t, dir, m, Options{})
	key := m.KeyForShard(0)
	for i := 0; i < 3; i++ {
		apply(t, m, st, wire.ModeAdd, key, []uint64{1, 10})
	}
	st.Close()

	paths := segWithData(t, dir)
	if len(paths) != 1 {
		t.Fatalf("expected one data-bearing segment, found %d", len(paths))
	}
	fi, _ := os.Stat(paths[0])
	recSize := fi.Size() / 3
	// Tear the last record: the crash left a partial append.
	if err := os.Truncate(paths[0], fi.Size()-recSize/2); err != nil {
		t.Fatal(err)
	}

	m2, st2, rec := reopen(t, dir, Options{})
	defer st2.Close()
	if rec.Replayed != 2 || rec.Repaired != 1 {
		t.Fatalf("recovery %+v, want 2 replayed / 1 repaired", rec)
	}
	got := make([]uint64, tW)
	m2.Read(key, got)
	if got[0] != 2 || got[1] != 20 {
		t.Fatalf("recovered %v, want [2 20] (two surviving adds)", got)
	}
	// The repair is physical: the torn bytes are gone from disk.
	fi2, _ := os.Stat(paths[0])
	if fi2.Size() != 2*recSize {
		t.Fatalf("repaired segment is %d bytes, want %d", fi2.Size(), 2*recSize)
	}
}

func TestCRCMismatchMidLogDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	m := newMap(t)
	st, _ := openStore(t, dir, m, Options{})
	key := m.KeyForShard(0)
	for i := 0; i < 3; i++ {
		apply(t, m, st, wire.ModeAdd, key, []uint64{1, 0})
	}
	st.Close()

	paths := segWithData(t, dir)
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	recSize := len(data) / 3
	// Flip a payload byte of the SECOND record: mid-log corruption.
	data[recSize+recHeader+12] ^= 0xff
	if err := os.WriteFile(paths[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	m2, st2, rec := reopen(t, dir, Options{})
	defer st2.Close()
	if rec.Replayed != 1 || rec.Repaired != 1 {
		t.Fatalf("recovery %+v, want 1 replayed / 1 repaired (suffix dropped)", rec)
	}
	got := make([]uint64, tW)
	m2.Read(key, got)
	if got[0] != 1 {
		t.Fatalf("recovered word0 %d, want 1", got[0])
	}
	fi, _ := os.Stat(paths[0])
	if fi.Size() != int64(recSize) {
		t.Fatalf("segment is %d bytes after repair, want %d", fi.Size(), recSize)
	}
}

func TestEmptyLogWithValidCheckpoint(t *testing.T) {
	dir := t.TempDir()
	m := newMap(t)
	st, _ := openStore(t, dir, m, Options{})
	apply(t, m, st, wire.ModeAdd, m.KeyForShard(0), []uint64{42, 7})
	apply(t, m, st, wire.ModeSet, m.KeyForShard(3), []uint64{3, 4})
	checkpointMap(t, st) // logs rotate to fresh, empty segments
	want := snapshotOf(t, m)
	st.Close()

	m2, st2, rec := reopen(t, dir, Options{})
	defer st2.Close()
	if !rec.Checkpoint || rec.Replayed != 0 {
		t.Fatalf("recovery %+v, want checkpoint-only", rec)
	}
	if got := snapshotOf(t, m2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

func TestCheckpointWithNoLogFiles(t *testing.T) {
	dir := t.TempDir()
	m := newMap(t)
	st, _ := openStore(t, dir, m, Options{})
	apply(t, m, st, wire.ModeAdd, m.KeyForShard(2), []uint64{11, 13})
	checkpointMap(t, st)
	want := snapshotOf(t, m)
	st.Close()

	// An operator copied only the checkpoint (and meta) to a new host.
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sg := range segs {
		if err := os.Remove(sg.path); err != nil {
			t.Fatal(err)
		}
	}

	m2, st2, rec := reopen(t, dir, Options{})
	defer st2.Close()
	if !rec.Checkpoint || rec.Segments != 0 {
		t.Fatalf("recovery %+v, want checkpoint and zero segments", rec)
	}
	if got := snapshotOf(t, m2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

// TestReopenRemovesEmptySegments pins that restarts do not pile up
// segment files: each Open creates one new segment, and recovery
// removes the empty one the previous Open left, so a directory that
// takes no appends holds exactly one segment file after any number of
// cycles.
func TestReopenRemovesEmptySegments(t *testing.T) {
	dir := t.TempDir()
	for cycle := 1; cycle <= 5; cycle++ {
		_, st, _ := reopen(t, dir, Options{})
		st.Close()
		segs, err := listSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) != 1 {
			t.Fatalf("after %d Open/Close cycles: %d segment files, want 1", cycle, len(segs))
		}
	}
}

// blockingLog is a LogFile whose Sync, when release is set, announces
// itself on entered and waits for release to close.
type blockingLog struct {
	LogFile
	entered, release chan struct{}
}

func (l *blockingLog) Sync() error {
	if l.release != nil {
		close(l.entered)
		<-l.release
	}
	return l.LogFile.Sync()
}

// TestSyncWaitsForRetiredSegment pins that a checkpoint cannot let a
// record be acknowledged before it is on disk: while rotate is still
// fsyncing the retired segment that holds an appended record, a Sync
// must not return, whatever the current segment's state.
func TestSyncWaitsForRetiredSegment(t *testing.T) {
	dir := t.TempDir()
	m := newMap(t)
	entered, release := make(chan struct{}), make(chan struct{})
	opened := 0
	st, _ := openStore(t, dir, m, Options{OpenLog: func(path string) (LogFile, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		l := &blockingLog{LogFile: f}
		if opened++; opened == 1 {
			l.entered, l.release = entered, release
		}
		return l, nil
	}})
	defer st.Close()
	apply(t, m, st, wire.ModeAdd, m.KeyForShard(0), []uint64{1, 1})

	ckpt := make(chan error, 1)
	go func() { ckpt <- st.Checkpoint() }()
	<-entered // rotate is fsyncing the first segment
	synced := make(chan error, 1)
	go func() { synced <- st.Sync() }()
	select {
	case err := <-synced:
		close(release) // let the checkpoint and Close finish
		t.Fatalf("Sync returned (%v) while the retired segment's fsync was blocked", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	if err := <-ckpt; err != nil {
		t.Fatal(err)
	}
}

// TestOpenUpgradesV1Directory builds a directory as the per-shard
// layout left it: a v1 meta stamp, a checkpoint, and records spread
// over per-shard segments of two generations, one of them at or below
// the watermark and one multi-key record in its lowest shard's file.
// Open must recover the same state and restamp meta as v2, and the
// first checkpoint must delete every per-shard segment.
func TestOpenUpgradesV1Directory(t *testing.T) {
	dir := t.TempDir()
	if err := writeFileDurable(dir, metaFile, fmt.Appendf(nil, metaFormat, 1, tK, tW)); err != nil {
		t.Fatal(err)
	}
	want := newMap(t)
	rows := want.NewSnapshotBuffer()
	rows[1] = []uint64{10, 20}
	if err := writeCheckpoint(dir, tK, tW, rows, 2); err != nil {
		t.Fatal(err)
	}
	k := want.KeyForShard
	recs := []Record{
		{Seq: 1, Op: wire.OpUpdate, Mode: wire.ModeAdd, Key: k(0), Args: []uint64{100, 100}}, // in the checkpoint
		{Seq: 3, Op: wire.OpUpdate, Mode: wire.ModeAdd, Key: k(1), Args: []uint64{1, 2}},
		{Seq: 5, Op: wire.OpUpdate, Mode: wire.ModeAdd, Key: k(3), Args: []uint64{1, 1}},
		{Seq: 4, Op: wire.OpUpdateMulti, Mode: wire.ModeSet, Keys: []uint64{k(3), k(2)}, Args: []uint64{5, 6, 7, 8}},
	}
	files := map[string][]byte{}
	for i, r := range recs {
		sh := want.ShardIndex(r.Key)
		if r.Op == wire.OpUpdateMulti {
			sh = min(want.ShardIndex(r.Keys[0]), want.ShardIndex(r.Keys[1]))
		}
		name := v1SegName(sh, uint64(1+i%2))
		files[name] = appendRecord(files[name], &r)
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i, row := range rows {
		want.Update(k(i), func(v []uint64) { copy(v, row) })
	}
	for _, i := range []int{1, 3, 2} { // the records above the watermark, in Seq order
		r := recs[i]
		if r.Op == wire.OpUpdate {
			want.Update(r.Key, func(v []uint64) { wire.Merge(v, r.Args, r.Mode) })
			continue
		}
		want.UpdateMulti(r.Keys, func(vals [][]uint64) {
			for j, v := range vals {
				wire.Merge(v, r.Args[j*tW:(j+1)*tW], r.Mode)
			}
		})
	}

	m, st, rec := reopen(t, dir, Options{})
	if rec.Replayed != 3 || rec.Skipped != 1 || rec.Segments != len(files) || rec.NextSeq != 5 {
		t.Fatalf("recovery %+v, want 3 replayed, 1 skipped, %d segments, NextSeq 5", rec, len(files))
	}
	if got, want := snapshotOf(t, m), snapshotOf(t, want); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	meta, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		t.Fatal(err)
	}
	if stamp := fmt.Sprintf(metaFormat, 2, tK, tW); string(meta) != stamp {
		t.Fatalf("meta reads %q after Open, want %q", meta, stamp)
	}

	apply(t, m, st, wire.ModeAdd, k(0), []uint64{1, 0})
	checkpointMap(t, st)
	wantRows := snapshotOf(t, m)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || filepath.Base(names[0]) != logName(4) {
		t.Fatalf("segments after the first checkpoint: %v, want only %s", names, logName(4))
	}
	m2, st2, _ := reopen(t, dir, Options{})
	defer st2.Close()
	if got := snapshotOf(t, m2); !reflect.DeepEqual(got, wantRows) {
		t.Fatalf("recovered %v after the upgrade's checkpoint, want %v", got, wantRows)
	}
}

func TestWatermarkFiltersAlreadyCheckpointedRecords(t *testing.T) {
	// Fabricate the crash window the watermark exists for: a checkpoint
	// at S=2 plus a log still holding records below and above S.
	dir := t.TempDir()
	if err := checkMeta(dir, tK, tW); err != nil {
		t.Fatal(err)
	}
	m := newMap(t)
	base := m.NewSnapshotBuffer()
	base[0][0] = 10
	if err := writeCheckpoint(dir, tK, tW, base, 2); err != nil {
		t.Fatal(err)
	}
	key := m.KeyForShard(0)
	var buf []byte
	buf = appendRecord(buf, &Record{Seq: 1, Op: wire.OpUpdate, Mode: wire.ModeAdd, Key: key, Args: []uint64{5, 0}})
	buf = appendRecord(buf, &Record{Seq: 3, Op: wire.OpUpdate, Mode: wire.ModeAdd, Key: key, Args: []uint64{7, 0}})
	if err := os.WriteFile(filepath.Join(dir, logName(1)), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	st, rec := openStore(t, dir, m, Options{})
	defer st.Close()
	if rec.Skipped != 1 || rec.Replayed != 1 || rec.Watermark != 2 {
		t.Fatalf("recovery %+v, want 1 skipped / 1 replayed at watermark 2", rec)
	}
	got := make([]uint64, tW)
	m.Read(key, got)
	if got[0] != 17 { // 10 from the checkpoint + 7 from seq 3; seq 1 already included
		t.Fatalf("recovered word0 %d, want 17", got[0])
	}
	if rec.NextSeq != 3 {
		t.Fatalf("NextSeq %d, want 3", rec.NextSeq)
	}
}

func TestDoubleRecoveryIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	m := newMap(t)
	st, _ := openStore(t, dir, m, Options{})
	apply(t, m, st, wire.ModeAdd, m.KeyForShard(0), []uint64{1, 2})
	checkpointMap(t, st)
	apply(t, m, st, wire.ModeAdd, m.KeyForShard(1), []uint64{3, 4})
	apply(t, m, st, wire.ModeSet, m.KeyForShard(2), []uint64{5, 6})
	want := snapshotOf(t, m)
	st.Close()

	// First recovery: replays, repairs, opens a new generation — then
	// "crashes" (no checkpoint, no new writes).
	m1, st1, rec1 := reopen(t, dir, Options{})
	st1.Close()
	// Second recovery over the directory the first one left behind.
	m2, st2, rec2 := reopen(t, dir, Options{})
	defer st2.Close()

	if got := snapshotOf(t, m1); !reflect.DeepEqual(got, want) {
		t.Fatalf("first recovery %v, want %v", got, want)
	}
	if got := snapshotOf(t, m2); !reflect.DeepEqual(got, want) {
		t.Fatalf("second recovery %v, want %v", got, want)
	}
	if rec1.Replayed != rec2.Replayed {
		t.Fatalf("replay counts diverge across recoveries: %d then %d", rec1.Replayed, rec2.Replayed)
	}
}

func TestGeometryMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	m := newMap(t)
	st, _ := openStore(t, dir, m, Options{})
	apply(t, m, st, wire.ModeAdd, m.KeyForShard(0), []uint64{1, 1})
	st.Close()

	wide, err := shard.NewMap(tK, 8, tW+1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, wide, Options{}); err == nil {
		t.Fatal("opening a W=3 map over a W=2 directory succeeded")
	}
	narrow, err := shard.NewMap(tK-1, 8, tW)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, narrow, Options{}); err == nil {
		t.Fatal("opening a K=3 map over a K=4 directory succeeded")
	}
}

func TestGroupCommitUnderConcurrency(t *testing.T) {
	dir := t.TempDir()
	m := newMap(t)
	st, _ := openStore(t, dir, m, Options{Policy: SyncAlways})
	const goroutines, each = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := m.KeyForShard(g % tK)
			for i := 0; i < each; i++ {
				var seq uint64
				m.Update(key, func(v []uint64) {
					wire.Merge(v, []uint64{1, 0}, wire.ModeAdd)
					seq = st.NextSeq()
				})
				if err := st.Append([]Record{{Seq: seq, Op: wire.OpUpdate, Mode: wire.ModeAdd,
					Key: key, Args: []uint64{1, 0}}}); err != nil {
					t.Error(err)
					return
				}
				if err := st.Sync(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	stats := st.Stats()
	if stats.Records != goroutines*each {
		t.Fatalf("stats report %d records, want %d", stats.Records, goroutines*each)
	}
	if stats.Syncs == 0 || stats.Syncs > goroutines*each {
		t.Fatalf("stats report %d sync rounds for %d Sync calls", stats.Syncs, goroutines*each)
	}
	st.Close()

	m2, st2, rec := reopen(t, dir, Options{})
	defer st2.Close()
	if rec.Replayed != goroutines*each {
		t.Fatalf("recovered %d records, want %d", rec.Replayed, goroutines*each)
	}
	var total uint64
	for _, row := range snapshotOf(t, m2) {
		total += row[0]
	}
	if total != goroutines*each {
		t.Fatalf("recovered sum %d, want %d", total, goroutines*each)
	}
}

func TestEverySecSyncsInBackground(t *testing.T) {
	dir := t.TempDir()
	m := newMap(t)
	st, _ := openStore(t, dir, m, Options{Policy: SyncEverySec})
	defer st.Close()
	apply(t, m, st, wire.ModeAdd, m.KeyForShard(0), []uint64{1, 1})
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().Syncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background syncer never ran a round")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCorruptCheckpointRefused(t *testing.T) {
	dir := t.TempDir()
	m := newMap(t)
	st, _ := openStore(t, dir, m, Options{})
	apply(t, m, st, wire.ModeAdd, m.KeyForShard(0), []uint64{1, 1})
	checkpointMap(t, st)
	st.Close()

	path := filepath.Join(dir, ckptFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, newMap(t), Options{}); err == nil {
		t.Fatal("open over a corrupt checkpoint succeeded")
	}
}

func TestParseRecordsStopsAtGarbage(t *testing.T) {
	var buf []byte
	buf = appendRecord(buf, &Record{Seq: 1, Op: wire.OpUpdate, Mode: wire.ModeAdd, Key: 9, Args: []uint64{1, 2}})
	good := len(buf)
	buf = append(buf, bytes.Repeat([]byte{0xab}, 5)...) // torn header
	recs, n, err := parseRecords(buf, tW)
	if err != nil || len(recs) != 1 || n != good {
		t.Fatalf("parse = %d recs, %d good, %v; want 1, %d, nil", len(recs), n, err, good)
	}
	if recs[0].Seq != 1 || recs[0].Key != 9 || recs[0].Args[1] != 2 {
		t.Fatalf("parsed record %+v", recs[0])
	}
}
