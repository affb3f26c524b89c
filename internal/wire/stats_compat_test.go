package wire

// Cross-version Stats compatibility: the stats row has grown twice —
// first PersistErrs (word 12), then the latency quantiles
// LatP50/LatP99/LatP999/FsyncP99 (words 13-16), numbered from 0 as in
// docs/WIRE.md — always as optional trailing words under the
// tolerant-decode rule. These tests pin both directions of every
// pairing: each historical row shape through today's decoder, and
// today's row through reconstructions of the historical decoders.

import (
	"bytes"
	"testing"
)

// appendStatsV0 emits the PR 3 row: 12 words, no PersistErrs.
func appendStatsV0(s *ServerStats) []uint64 {
	return []uint64{
		s.Shards, s.Slots, s.Words,
		s.ConnsTotal, s.ConnsOpen,
		s.Reqs, s.Updates, s.Reads, s.Snapshots, s.Multis,
		s.Batches, s.BadReqs,
	}
}

// decodeStatsV1 reconstructs the PR 4 decoder: requires >= 12 words,
// reads word 12 when present, ignores everything after — the
// "truncating old-style decoder" a deployed client still runs.
func decodeStatsV1(row []uint64) (ServerStats, bool) {
	if len(row) < 12 {
		return ServerStats{}, false
	}
	st := ServerStats{
		Shards: row[0], Slots: row[1], Words: row[2],
		ConnsTotal: row[3], ConnsOpen: row[4],
		Reqs: row[5], Updates: row[6], Reads: row[7], Snapshots: row[8], Multis: row[9],
		Batches: row[10], BadReqs: row[11],
	}
	if len(row) > 12 {
		st.PersistErrs = row[12]
	}
	return st, true
}

var compatStats = ServerStats{
	Shards: 4, Slots: 8, Words: 2,
	ConnsTotal: 7, ConnsOpen: 2,
	Reqs: 1000, Updates: 600, Reads: 350, Snapshots: 10, Multis: 40,
	Batches: 120, BadReqs: 3, PersistErrs: 1,
	LatP50: 15_000, LatP99: 400_000, LatP999: 2_000_000, FsyncP99: 5_000_000,
}

func TestNewDecoderReadsOldRows(t *testing.T) {
	// PR 3 row (12 words): every field since then must come back zero.
	got, err := DecodeStats(appendStatsV0(&compatStats))
	if err != nil {
		t.Fatalf("decoding 12-word row: %v", err)
	}
	if got.Reqs != compatStats.Reqs || got.BadReqs != compatStats.BadReqs {
		t.Errorf("12-word row: counters mangled: %+v", got)
	}
	if got.PersistErrs != 0 || got.LatP50 != 0 || got.LatP99 != 0 || got.LatP999 != 0 || got.FsyncP99 != 0 {
		t.Errorf("12-word row: phantom trailing fields: %+v", got)
	}

	// PR 4 row (13 words): PersistErrs present, latency words absent.
	s13 := compatStats
	s13.LatP50, s13.LatP99, s13.LatP999, s13.FsyncP99 = 0, 0, 0, 0
	row13 := append(appendStatsV0(&compatStats), compatStats.PersistErrs)
	got, err = DecodeStats(row13)
	if err != nil {
		t.Fatalf("decoding 13-word row: %v", err)
	}
	if got != s13 {
		t.Errorf("13-word row: got %+v want %+v", got, s13)
	}

	// Partial latency suffix (a hypothetical 15-word row): present
	// words land, absent ones stay zero — no index arithmetic slips.
	row15 := compatStats.Append(nil)[:15]
	got, err = DecodeStats(row15)
	if err != nil {
		t.Fatalf("decoding 15-word row: %v", err)
	}
	if got.LatP50 != compatStats.LatP50 || got.LatP99 != compatStats.LatP99 {
		t.Errorf("15-word row dropped present latency words: %+v", got)
	}
	if got.LatP999 != 0 || got.FsyncP99 != 0 {
		t.Errorf("15-word row invented absent latency words: %+v", got)
	}
}

func TestOldDecoderReadsNewRows(t *testing.T) {
	row := compatStats.Append(nil)
	got, ok := decodeStatsV1(row)
	if !ok {
		t.Fatal("old-style decoder rejected a new row")
	}
	want := compatStats
	want.LatP50, want.LatP99, want.LatP999, want.FsyncP99 = 0, 0, 0, 0
	if got != want {
		t.Errorf("old-style decode of new row: got %+v want %+v", got, want)
	}
}

func TestStatsOverWireRoundTrip(t *testing.T) {
	// The full path a Stats response takes: stats row into a Response
	// body, framed, read back, decoded — with the new trailing words
	// riding along.
	resp := &Response{ID: 9, Status: StatusOK}
	resp.Data = compatStats.Append(resp.Data[:0])
	resp.Rows, resp.Words = 1, uint32(len(resp.Data))
	var buf bytes.Buffer
	if err := WriteFrame(&buf, AppendResponse(nil, resp)); err != nil {
		t.Fatal(err)
	}
	frame, err := ReadFrame(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	var dec Response
	if err := DecodeResponse(&dec, frame); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeStats(dec.Data)
	if err != nil {
		t.Fatal(err)
	}
	if got != compatStats {
		t.Errorf("wire round trip: got %+v want %+v", got, compatStats)
	}
}

func TestMalformedStatsFrames(t *testing.T) {
	// Frame-level damage around a stats response: each case must error
	// out of ReadFrame or the decoders, never panic or misread.
	resp := &Response{ID: 1, Status: StatusOK}
	resp.Data = compatStats.Append(nil)
	resp.Rows, resp.Words = 1, uint32(len(resp.Data))
	var whole bytes.Buffer
	if err := WriteFrame(&whole, AppendResponse(nil, resp)); err != nil {
		t.Fatal(err)
	}
	full := whole.Bytes()

	frames := []struct {
		name string
		raw  []byte
	}{
		{"empty stream", nil},
		{"truncated length prefix", full[:3]},
		{"header only, payload missing", full[:4]},
		{"payload cut mid-stats-row", full[:len(full)-40]},
	}
	for _, tc := range frames {
		if _, err := ReadFrame(bytes.NewReader(tc.raw), nil); err == nil {
			t.Errorf("%s: ReadFrame accepted it", tc.name)
		}
	}

	// A well-framed response whose stats row is too short to be one.
	short := &Response{ID: 2, Status: StatusOK}
	short.Data = []uint64{1, 2, 3}
	short.Rows, short.Words = 1, 3
	var dec Response
	if err := DecodeResponse(&dec, AppendResponse(nil, short)); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeStats(dec.Data); err == nil {
		t.Error("3-word stats row decoded without error")
	}
}
