package wire

import (
	"encoding/binary"
	"testing"
)

// The decoders take bytes straight off the network, so neither may
// panic on any input. Their seeds run as ordinary tests under go test;
// go test -fuzz explores beyond them.

// FuzzDecodeRequest: whatever DecodeRequest accepts, AppendRequest
// re-encodes into a payload that decodes to the same request.
func FuzzDecodeRequest(f *testing.F) {
	for _, req := range []Request{
		{ID: 1, Op: OpPing},
		{ID: 2, Op: OpRead, Key: 0xdeadbeef},
		{ID: 3, Op: OpUpdate, Mode: ModeAdd, Key: 7, Args: []uint64{1, 2, 3}},
		{ID: 4, Op: OpUpdate, Mode: ModeSet, Key: 9, Args: []uint64{42}},
		{ID: 5, Op: OpSnapshot},
		{ID: 6, Op: OpSnapshotAtomic},
		{ID: 7, Op: OpUpdateMulti, Mode: ModeAdd, Keys: []uint64{10, 20, 30}, Args: []uint64{1, 2, 3, 4, 5, 6}},
		{ID: 8, Op: OpStats},
	} {
		f.Add(AppendRequest(nil, &req))
		req.Traced, req.TraceID = true, 0xfeedface12345678
		f.Add(AppendRequest(nil, &req))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var req, again Request
		if DecodeRequest(&req, payload) != nil {
			return
		}
		if err := DecodeRequest(&again, AppendRequest(nil, &req)); err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", req, err)
		}
		if again.ID != req.ID || again.Op != req.Op || again.Mode != req.Mode || again.Key != req.Key ||
			again.Traced != req.Traced || again.TraceID != req.TraceID ||
			!equalWords(again.Keys, req.Keys) || !equalWords(again.Args, req.Args) {
			t.Fatalf("re-encoded request decodes to %+v, want %+v", again, req)
		}
	})
}

// FuzzDecodeResponse: an OK response DecodeResponse accepts carries
// exactly the Rows×Words data words its header promises, with Words > 0
// whenever Rows > 0, so Row cannot index past Data.
func FuzzDecodeResponse(f *testing.F) {
	for _, resp := range []Response{
		{ID: 1, Status: StatusOK},
		{ID: 2, Status: StatusOK, Attempts: 3, Rows: 1, Words: 2, Data: []uint64{5, 6}},
		{ID: 3, Status: StatusOK, Attempts: 1, Rows: 4, Words: 2, Data: []uint64{1, 2, 3, 4, 5, 6, 7, 8}},
		{ID: 4, Status: StatusBadRequest, Err: "wrong width"},
		{ID: 5, Status: StatusBusy, Err: "admission"},
	} {
		f.Add(AppendResponse(nil, &resp))
		resp.Traced, resp.TraceID, resp.Stages = true, 0xfeedface12345678, []uint64{1, 2, 3, 4, 5, 6}
		f.Add(AppendResponse(nil, &resp))
	}
	f.Add(AppendResponse(nil, &Response{Status: StatusOK, Rows: 1 << 31, Words: 1 << 30}))
	f.Add(AppendResponse(nil, &Response{Status: StatusOK, Rows: 1<<32 - 1, Words: 0}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var resp Response
		if DecodeResponse(&resp, payload) != nil || resp.Status != StatusOK {
			return
		}
		if resp.Rows > 0 && resp.Words == 0 {
			t.Fatalf("decoded %d rows of 0 words", resp.Rows)
		}
		if uint64(len(resp.Data)) != uint64(resp.Rows)*uint64(resp.Words) {
			t.Fatalf("decoded %d data words for %d rows of %d words", len(resp.Data), resp.Rows, resp.Words)
		}
	})
}

// FuzzDecodeStats: a stats row shorter than the required words is an
// error; any longer row decodes, and Append gives back the row's first
// words — one per field — with zeros past the row's end (the optional
// words an older server does not send). The input's bytes are the
// row's little-endian words; a trailing partial word is ignored.
func FuzzDecodeStats(f *testing.F) {
	for _, n := range []int{0, 11, 12, 13, 17, 22, 25} {
		var b []byte
		for i := 0; i < n; i++ {
			b = binary.LittleEndian.AppendUint64(b, uint64(i+1)*0x0101010101010101)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		row := make([]uint64, len(data)/8)
		for i := range row {
			row[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		st, err := DecodeStats(row)
		if len(row) < statsWords {
			if err == nil {
				t.Fatalf("decoded a %d-word row", len(row))
			}
			return
		}
		if err != nil {
			t.Fatalf("%d-word row: %v", len(row), err)
		}
		got := st.Append(nil)
		want := make([]uint64, len(got))
		copy(want, row)
		if !equalWords(got, want) {
			t.Fatalf("%d-word row %v re-encodes as %v, want %v", len(row), row, got, want)
		}
	})
}
