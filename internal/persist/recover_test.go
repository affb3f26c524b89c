package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"mwllsc/internal/shard"
	"mwllsc/internal/wire"
)

// parseRecords decodes the records of one segment through scanRecords,
// copying each one out, so FuzzParseRecords exercises the exact byte
// checks that recovery runs.
func parseRecords(data []byte, w int) (recs []Record, goodLen int, err error) {
	goodLen, err = scanRecords(data, w, func(req *wire.Request) {
		rec := Record{Seq: req.ID, Op: req.Op, Mode: req.Mode, Key: req.Key, Args: append([]uint64(nil), req.Args...)}
		if req.Op == wire.OpUpdateMulti {
			rec.Keys = append([]uint64(nil), req.Keys...)
		}
		recs = append(recs, rec)
	})
	return recs, goodLen, err
}

// replayRecover is the reference recovery that the fold replaced: it
// reads every record of every segment, sorts them all by Seq, and
// replays each through the map's own Update or UpdateMulti on top of
// the checkpoint rows. It returns what recoverInto returns.
func replayRecover(dir string, m *shard.Map) (Recovery, uint64, uint64, error) {
	k, w := m.Shards(), m.W()
	var rec Recovery

	rows, watermark, haveCkpt, err := readCheckpoint(dir, k, w)
	if err != nil {
		return rec, 0, 0, err
	}
	rec.Checkpoint, rec.Watermark = haveCkpt, watermark

	segs, err := listSegments(dir)
	if err != nil {
		return rec, 0, 0, err
	}
	var maxGen, maxSeq uint64
	maxSeq = watermark
	var all []Record
	for _, sg := range segs {
		if sg.gen > maxGen {
			maxGen = sg.gen
		}
		data, err := os.ReadFile(sg.path)
		if err != nil {
			return rec, 0, 0, err
		}
		recs, good, err := parseRecords(data, w)
		if err != nil {
			return rec, 0, 0, fmt.Errorf("%w (%s)", err, sg.path)
		}
		if good < len(data) {
			if err := os.Truncate(sg.path, int64(good)); err != nil {
				return rec, 0, 0, err
			}
			rec.Repaired++
		}
		all = append(all, recs...)
		rec.Segments++
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })

	h := m.Acquire()
	defer h.Release()
	if haveCkpt {
		for i, row := range rows {
			h.Update(m.KeyForShard(i), func(v []uint64) { copy(v, row) })
		}
	}
	for i := range all {
		r := &all[i]
		if r.Seq > maxSeq {
			maxSeq = r.Seq
		}
		if r.Seq <= watermark {
			rec.Skipped++
			continue
		}
		switch r.Op {
		case wire.OpUpdate:
			h.Update(r.Key, func(v []uint64) { wire.Merge(v, r.Args, r.Mode) })
		case wire.OpUpdateMulti:
			h.UpdateMulti(r.Keys, func(vals [][]uint64) {
				for j, v := range vals {
					wire.Merge(v, r.Args[j*w:(j+1)*w], r.Mode)
				}
			})
		}
		rec.Replayed++
	}
	return rec, maxGen, maxSeq, nil
}

// fuzzHistory is a record history for FuzzRecoverMatchesReplay over a
// K=tK, W=tW directory.
type fuzzHistory struct {
	watermark uint64 // 0: no checkpoint
	recs      []fuzzRecord
}

// fuzzRecord is one logged update, in file-write order.
type fuzzRecord struct {
	set     bool // ModeSet, else ModeAdd
	swapSeq bool // take the previous record's Seq, giving it this one's
	// file names the segment: below tK, shard file's v1 segment at
	// generation 1; from tK on, the one log at generation 2+file-tK.
	file int
	keys []uint64 // one key: OpUpdate; more: OpUpdateMulti
	args []uint64 // len(keys)×tW words
}

// Byte layout of a history: a watermark byte (0: no checkpoint), then per
// record a header byte — bit 0 set, bits 1-2 len(keys)-1, bit 3 swapSeq,
// bits 4-6 file — followed by one byte per key and one per arg word. A
// record cut short by the end of the input is dropped.
const (
	fuzzSet       = 1 << 0
	fuzzKeysShift = 1
	fuzzSwapSeq   = 1 << 3
	fuzzFileShift = 4
	fuzzMaxRecs   = 512
)

func decodeFuzzHistory(data []byte) fuzzHistory {
	var h fuzzHistory
	if len(data) == 0 {
		return h
	}
	h.watermark, data = uint64(data[0]), data[1:]
	for len(data) > 0 && len(h.recs) < fuzzMaxRecs {
		hdr := data[0]
		nkeys := 1 + int(hdr>>fuzzKeysShift&3)
		if len(data) < 1+nkeys*(1+tW) {
			break
		}
		r := fuzzRecord{set: hdr&fuzzSet != 0, swapSeq: hdr&fuzzSwapSeq != 0, file: int(hdr >> fuzzFileShift & 7)}
		for _, b := range data[1 : 1+nkeys] {
			r.keys = append(r.keys, uint64(b))
		}
		for _, b := range data[1+nkeys : 1+nkeys*(1+tW)] {
			r.args = append(r.args, uint64(b))
		}
		h.recs = append(h.recs, r)
		data = data[1+nkeys*(1+tW):]
	}
	return h
}

func (h fuzzHistory) encode() []byte {
	out := []byte{byte(h.watermark)}
	for _, r := range h.recs {
		hdr := byte(len(r.keys)-1)<<fuzzKeysShift | byte(r.file)<<fuzzFileShift
		if r.set {
			hdr |= fuzzSet
		}
		if r.swapSeq {
			hdr |= fuzzSwapSeq
		}
		out = append(out, hdr)
		for _, k := range r.keys {
			out = append(out, byte(k))
		}
		for _, a := range r.args {
			out = append(out, byte(a))
		}
	}
	return out
}

// write lays the history out in dir: a checkpoint at the watermark when
// there is one, and each record appended to its segment file. Record i
// has Seq i+1 unless a swap moved it, so Seqs are unique and files hold
// them out of order.
func (h fuzzHistory) write(t *testing.T, dir string) {
	t.Helper()
	if h.watermark != 0 {
		rows := make([][]uint64, tK)
		for i := range rows {
			rows[i] = []uint64{1000 + uint64(i), h.watermark}
		}
		if err := writeCheckpoint(dir, tK, tW, rows, h.watermark); err != nil {
			t.Fatal(err)
		}
	}
	seqs := make([]uint64, len(h.recs))
	for i, r := range h.recs {
		seqs[i] = uint64(i + 1)
		if r.swapSeq && i > 0 {
			seqs[i], seqs[i-1] = seqs[i-1], seqs[i]
		}
	}
	files := map[string][]byte{}
	for i, r := range h.recs {
		rec := Record{Seq: seqs[i], Op: wire.OpUpdate, Mode: wire.ModeAdd, Args: r.args}
		if r.set {
			rec.Mode = wire.ModeSet
		}
		if len(r.keys) == 1 {
			rec.Key = r.keys[0]
		} else {
			rec.Op, rec.Keys = wire.OpUpdateMulti, r.keys
		}
		name := logName(uint64(2 + r.file - tK))
		if r.file < tK {
			name = v1SegName(r.file, 1)
		}
		files[name] = appendRecord(files[name], &rec)
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// v1SegName is the name of shard i's segment at generation gen in a v1
// directory, which kept one log per shard.
func v1SegName(i int, gen uint64) string {
	return fmt.Sprintf("shard-%04d-%08d.log", i, gen)
}

// keyInShard returns the nth single-byte key (n from 0) owned by shard
// i of a K=tK map, so seeds can aim records at shards.
func keyInShard(t testing.TB, m *shard.Map, i, n int) uint64 {
	for b := range uint64(256) {
		if m.ShardIndex(b) == i {
			if n == 0 {
				return b
			}
			n--
		}
	}
	t.Fatalf("no key %d in shard %d", n, i)
	return 0
}

// FuzzRecoverMatchesReplay: the per-shard fold must recover exactly
// what sorting every record by Seq and replaying it through the map
// recovers — the same rows, the same Replayed, Skipped and Repaired
// counts, and the same next Seq and segment generation — for any
// history with unique Seqs: Add and Set, single- and multi-key records
// (keys may alias one shard), records in the one-log layout's segments
// and in a v1 directory's per-shard files, out of Seq order within a
// file, with or without a checkpoint watermark.
func FuzzRecoverMatchesReplay(f *testing.F) {
	m, err := shard.NewMap(tK, 8, tW)
	if err != nil {
		f.Fatal(err)
	}
	key := func(i, n int) uint64 { return keyInShard(f, m, i, n) }
	single := func(set bool, file int, k uint64, a, b uint64) fuzzRecord {
		return fuzzRecord{set: set, file: file, keys: []uint64{k}, args: []uint64{a, b}}
	}

	// A multi-key Set whose two keys alias shard 1: key order decides
	// the row. Shard 1 also holds enough out-of-order entries that its
	// entries must be sorted, so an unstable sort can swap the tied pair.
	var aliased fuzzHistory
	for i := range 24 {
		r := single(i%3 == 0, 1, key(1, i%4), uint64(i), uint64(2*i))
		r.swapSeq = i%2 == 1
		aliased.recs = append(aliased.recs, r)
		aliased.recs = append(aliased.recs, fuzzRecord{set: true, file: 0,
			keys: []uint64{key(0, 0), key(1, 0), key(1, 1)},
			args: []uint64{1, 1, 40 + uint64(i), 41, 50 + uint64(i), 51}})
	}
	f.Add(aliased.encode())

	// A multi-key record in shard 0's file whose Seq (2) falls between two
	// of shard 2's own records (1 and 3): shard 2 must merge Set, Set, Add.
	between := fuzzHistory{recs: []fuzzRecord{
		single(true, 2, key(2, 0), 1, 1),
		{set: true, file: 0, keys: []uint64{key(0, 0), key(2, 1)}, args: []uint64{7, 7, 2, 2}},
		single(false, 2, key(2, 0), 1, 0),
	}}
	f.Add(between.encode())

	// The same interleaving across generations and into the one log,
	// behind a watermark that skips the first two records, with Sets
	// landing in reverse order.
	skipped := between
	skipped.watermark = 2
	skipped.recs = append(append([]fuzzRecord(nil), between.recs...),
		single(true, 6, key(2, 2), 8, 8),
		fuzzRecord{set: true, swapSeq: true, file: 6, keys: []uint64{key(2, 0)}, args: []uint64{9, 9}})
	f.Add(skipped.encode())

	// The same interleaving, all of it in one log segment.
	oneLog := fuzzHistory{recs: append([]fuzzRecord(nil), between.recs...)}
	for i := range oneLog.recs {
		oneLog.recs[i].file = tK
	}
	f.Add(oneLog.encode())
	f.Add([]byte{})
	f.Add([]byte{3})

	f.Fuzz(func(t *testing.T, data []byte) {
		h := decodeFuzzHistory(data)
		wantDir, gotDir := t.TempDir(), t.TempDir()
		h.write(t, wantDir)
		h.write(t, gotDir)

		wantMap, gotMap := newMap(t), newMap(t)
		wantRec, wantGen, wantSeq, err := replayRecover(wantDir, wantMap)
		if err != nil {
			t.Fatal(err)
		}
		gotRec, gotGen, gotSeq, err := recoverInto(gotDir, gotMap)
		if err != nil {
			t.Fatal(err)
		}
		if gotRec != wantRec || gotGen != wantGen || gotSeq != wantSeq {
			t.Fatalf("fold recovered %+v gen %d seq %d; replay recovered %+v gen %d seq %d",
				gotRec, gotGen, gotSeq, wantRec, wantGen, wantSeq)
		}
		if got, want := snapshotOf(t, gotMap), snapshotOf(t, wantMap); !reflect.DeepEqual(got, want) {
			t.Fatalf("fold recovered rows %v, replay recovered %v", got, want)
		}
	})
}

// TestRecoveryAllocs pins recovery's allocations per Open: they must not
// grow with the number of records. Replaying through a []Record made
// about two allocations per record (~200,000 here: a copy of each
// record's args, plus slice growth); the fold allocates per segment and
// per shard (under 100 here, nearly all of it Open's fixed cost). The
// bound, one allocation per 20 records, fails any per-record allocation
// and leaves Open's fixed cost more than ten times the room it needs.
func TestRecoveryAllocs(t *testing.T) {
	const records = 100_000
	dir := t.TempDir()
	if err := checkMeta(dir, tK, tW); err != nil {
		t.Fatal(err)
	}
	var data []byte
	for i := range records {
		data = appendRecord(data, &Record{Seq: uint64(i + 1), Op: wire.OpUpdate,
			Mode: wire.ModeAdd, Key: uint64(i), Args: []uint64{1, uint64(i)}})
	}
	if err := os.WriteFile(filepath.Join(dir, logName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}

	const runs = 3
	maps := make([]*shard.Map, runs+1) // AllocsPerRun adds a warm-up run
	for i := range maps {
		maps[i] = newMap(t)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		st, rec, err := Open(dir, maps[next], Options{})
		next++
		if err != nil {
			t.Fatal(err)
		}
		if rec.Replayed != records {
			t.Fatalf("replayed %d records, want %d", rec.Replayed, records)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(records / 20); allocs > limit {
		t.Fatalf("Open+Close of %d records made %.0f allocations, want <= %.0f", records, allocs, limit)
	}
	t.Logf("Open+Close of %d records: %.0f allocations", records, allocs)
}
