package wire

import (
	"bytes"
	"strings"
	"testing"
)

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{ID: 1, Op: OpPing},
		{ID: 2, Op: OpRead, Key: 0xdeadbeef},
		{ID: 3, Op: OpUpdate, Mode: ModeAdd, Key: 7, Args: []uint64{1, 2, 3}},
		{ID: 4, Op: OpUpdate, Mode: ModeSet, Key: 9, Args: []uint64{42}},
		{ID: 5, Op: OpSnapshot},
		{ID: 6, Op: OpSnapshotAtomic},
		{ID: 7, Op: OpUpdateMulti, Mode: ModeAdd, Keys: []uint64{10, 20, 30}, Args: []uint64{1, 2, 3, 4, 5, 6}},
		{ID: 8, Op: OpStats},
	}
	var got Request
	for _, want := range reqs {
		payload := AppendRequest(nil, &want)
		if err := DecodeRequest(&got, payload); err != nil {
			t.Fatalf("%v: decode: %v", want.Op, err)
		}
		if got.ID != want.ID || got.Op != want.Op || got.Mode != want.Mode || got.Key != want.Key {
			t.Fatalf("%v: header round trip: got %+v want %+v", want.Op, got, want)
		}
		if !equalWords(got.Keys, want.Keys) || !equalWords(got.Args, want.Args) {
			t.Fatalf("%v: body round trip: got keys=%v args=%v want keys=%v args=%v",
				want.Op, got.Keys, got.Args, want.Keys, want.Args)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{ID: 1, Status: StatusOK},
		{ID: 2, Status: StatusOK, Attempts: 3, Rows: 1, Words: 2, Data: []uint64{5, 6}},
		{ID: 3, Status: StatusOK, Attempts: 1, Rows: 4, Words: 2, Data: []uint64{1, 2, 3, 4, 5, 6, 7, 8}},
		{ID: 4, Status: StatusBadRequest, Err: "wrong width"},
		{ID: 5, Status: StatusShutdown, Err: "draining"},
	}
	var got Response
	for _, want := range resps {
		payload := AppendResponse(nil, &want)
		if err := DecodeResponse(&got, payload); err != nil {
			t.Fatalf("id %d: decode: %v", want.ID, err)
		}
		if got.ID != want.ID || got.Status != want.Status || got.Attempts != want.Attempts ||
			got.Rows != want.Rows || got.Words != want.Words || got.Err != want.Err {
			t.Fatalf("id %d: round trip: got %+v want %+v", want.ID, got, want)
		}
		if !equalWords(got.Data, want.Data) {
			t.Fatalf("id %d: data round trip: got %v want %v", want.ID, got.Data, want.Data)
		}
	}
}

func TestResponseRow(t *testing.T) {
	r := Response{Rows: 3, Words: 2, Data: []uint64{1, 2, 3, 4, 5, 6}}
	if row := r.Row(1); row[0] != 3 || row[1] != 4 {
		t.Fatalf("Row(1) = %v, want [3 4]", row)
	}
}

func TestDecodeRequestRejectsMalformed(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"truncated header", []byte{1, 2, 3}},
		{"unknown opcode", append(make([]byte, 8), 0xff)},
		{"ping with body", append(AppendRequest(nil, &Request{Op: OpPing}), 9)},
		{"read short key", AppendRequest(nil, &Request{Op: OpRead})[:12]},
		{"update no mode", append(make([]byte, 8), byte(OpUpdate))},
		{"update ragged args", append(AppendRequest(nil, &Request{Op: OpUpdate, Key: 1, Args: []uint64{1}}), 0)},
		{"multi zero keys", AppendRequest(nil, &Request{Op: OpUpdateMulti, Keys: nil, Args: nil})},
		{"multi missing args", AppendRequest(nil, &Request{Op: OpUpdateMulti, Keys: []uint64{1, 2}, Args: []uint64{7}})[:20]},
		{"multi ragged args", AppendRequest(nil, &Request{Op: OpUpdateMulti, Keys: []uint64{1, 2}, Args: []uint64{7}})},
	}
	var req Request
	for _, tc := range cases {
		if err := DecodeRequest(&req, tc.payload); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
}

func TestDecodeResponseRejectsMalformed(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"short ok body", AppendResponse(nil, &Response{Status: StatusOK})[:10]},
		{"data shorter than header promises", AppendResponse(nil, &Response{Status: StatusOK, Rows: 2, Words: 2, Data: []uint64{1, 2, 3, 4}})[:9+12+8]},
		{"error message truncated", AppendResponse(nil, &Response{Status: StatusBadRequest, Err: "boom"})[:12]},
		// Rows×Words×8 wraps to 0 in uint64, so no data looked like enough.
		{"data size wraps", AppendResponse(nil, &Response{Status: StatusOK, Rows: 1 << 31, Words: 1 << 30})},
		{"rows of zero words", AppendResponse(nil, &Response{Status: StatusOK, Rows: 1<<32 - 1, Words: 0})},
	}
	var resp Response
	for _, tc := range cases {
		if err := DecodeResponse(&resp, tc.payload); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{1}, {}, []byte(strings.Repeat("x", 1000))}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	// AppendFrame must produce the identical byte stream.
	var app []byte
	for _, p := range payloads {
		app = AppendFrame(app, p)
	}
	if !bytes.Equal(app, buf.Bytes()) {
		t.Fatal("AppendFrame and WriteFrame disagree")
	}
	var scratch []byte
	for _, want := range payloads {
		got, err := ReadFrame(&buf, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame round trip: got %q want %q", got, want)
		}
		scratch = got
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrame(&buf, nil); err == nil {
		t.Fatal("oversize frame accepted")
	}
	if err := WriteFrame(&buf, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversize WriteFrame accepted")
	}
}

func TestReadFrameShortPayload(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{8, 0, 0, 0, 1, 2}) // promises 8 bytes, carries 2
	if _, err := ReadFrame(&buf, nil); err == nil {
		t.Fatal("short frame accepted")
	}
}

func TestStatsRoundTrip(t *testing.T) {
	want := ServerStats{
		Shards: 8, Slots: 4, Words: 2,
		ConnsTotal: 10, ConnsOpen: 3,
		Reqs: 100, Updates: 50, Reads: 30, Snapshots: 5, Multis: 15,
		Batches: 40, BadReqs: 1, PersistErrs: 2,
		LatP50: 12_000, LatP99: 250_000, LatP999: 900_000, FsyncP99: 4_000_000,
	}
	row := want.Append(nil)
	got, err := DecodeStats(row)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("stats round trip: got %+v want %+v", got, want)
	}
	// A future server may append fields; old decoders must tolerate it.
	if _, err := DecodeStats(append(row, 99)); err != nil {
		t.Fatalf("longer row rejected: %v", err)
	}
	if _, err := DecodeStats(row[:3]); err == nil {
		t.Fatal("short row accepted")
	}
}

func TestOpAndStatusStrings(t *testing.T) {
	for _, op := range []Op{OpPing, OpRead, OpUpdate, OpSnapshot, OpSnapshotAtomic, OpUpdateMulti, OpStats} {
		if s := op.String(); strings.HasPrefix(s, "Op(") {
			t.Errorf("opcode %d has no mnemonic", uint8(op))
		}
	}
	if Op(200).String() != "Op(200)" {
		t.Error("unknown opcode formatting")
	}
	for _, st := range []Status{StatusOK, StatusBadRequest, StatusShutdown} {
		if s := st.String(); strings.HasPrefix(s, "Status(") {
			t.Errorf("status %d has no mnemonic", uint8(st))
		}
	}
	for _, m := range []Mode{ModeAdd, ModeSet} {
		if s := m.String(); strings.HasPrefix(s, "Mode(") {
			t.Errorf("mode %d has no mnemonic", uint8(m))
		}
	}
}

func equalWords(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
