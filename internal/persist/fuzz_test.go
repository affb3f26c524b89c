package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mwllsc/internal/wire"
)

// FuzzParseRecords: recovery parses log bytes that a crash may have
// torn or a disk corrupted, so parseRecords must never panic on any
// input. The input is two clean records, then payload framed with its
// true length and CRC-32C, then tail. Framing the payload here lets
// the fuzzer get past the checksum into the decoder and the geometry
// checks. Whatever the bytes:
//   - the two clean records come back first, and the good length lies
//     in [len(clean), len(data)]: a record before the first corruption
//     is never dropped;
//   - with a nil error, the good prefix alone parses to the same
//     records and the same good length;
//   - the records, re-encoded, parse back to themselves.
func FuzzParseRecords(f *testing.F) {
	clean := []Record{
		{Seq: 1, Op: wire.OpUpdate, Mode: wire.ModeAdd, Key: 9, Args: []uint64{1, 2}},
		{Seq: 2, Op: wire.OpUpdateMulti, Mode: wire.ModeSet, Keys: []uint64{3, 4}, Args: []uint64{5, 6, 7, 8}},
	}
	var prefix []byte
	for i := range clean {
		prefix = appendRecord(prefix, &clean[i])
	}
	payload := func(r Record) []byte { return appendRecord(nil, &r)[recHeader:] }
	update := Record{Seq: 3, Op: wire.OpUpdate, Mode: wire.ModeAdd, Key: 1, Args: []uint64{7, 0}}
	f.Add(payload(update), []byte(nil))
	f.Add(payload(Record{Seq: 4, Op: wire.OpUpdateMulti, Mode: wire.ModeAdd,
		Keys: []uint64{1, 2, 3}, Args: []uint64{1, 0, 2, 0, 3, 0}}), []byte(nil))
	f.Add(payload(Record{Seq: 5, Op: wire.OpUpdate, Mode: wire.ModeSet, Key: 1, Args: []uint64{1, 2, 3}}), []byte(nil))
	torn := appendRecord(nil, &Record{Seq: 6, Op: wire.OpUpdate, Mode: wire.ModeAdd, Key: 2, Args: []uint64{1, 1}})
	f.Add(payload(update), torn[:len(torn)-3]) // torn inside the payload
	f.Add(payload(update), torn[:5])           // torn inside the header

	f.Fuzz(func(t *testing.T, payload, tail []byte) {
		data := append([]byte(nil), prefix...)
		data = binary.LittleEndian.AppendUint32(data, uint32(len(payload)))
		data = binary.LittleEndian.AppendUint32(data, crc32.Checksum(payload, castagnoli))
		data = append(data, payload...)
		data = append(data, tail...)

		recs, good, err := parseRecords(data, tW)
		if good < len(prefix) || good > len(data) {
			t.Fatalf("good length %d outside [%d, %d]", good, len(prefix), len(data))
		}
		if len(recs) < len(clean) || !reflect.DeepEqual(recs[:len(clean)], clean) {
			t.Fatalf("clean records not returned first: %+v", recs)
		}
		if err != nil {
			return
		}
		again, goodAgain, err := parseRecords(data[:good], tW)
		if err != nil || goodAgain != good || !reflect.DeepEqual(again, recs) {
			t.Fatalf("good prefix parses to %d records, %d good, %v; want %d, %d, nil",
				len(again), goodAgain, err, len(recs), good)
		}
		var re []byte
		for i := range recs {
			re = appendRecord(re, &recs[i])
		}
		back, n, err := parseRecords(re, tW)
		if err != nil || n != len(re) || !reflect.DeepEqual(back, recs) {
			t.Fatalf("re-encoded records parse to %+v, %d of %d good, %v; want %+v",
				back, n, len(re), err, recs)
		}
	})
}

// FuzzReadCheckpoint: recovery trusts the checkpoint file only after
// readCheckpoint has validated it, so readCheckpoint must never panic
// on any file. When fixCRC is set, the harness overwrites the last 4
// bytes with the CRC-32C of the rest, which lets the fuzzer past the
// checksum to the decode. Whatever the bytes:
//   - ok holds exactly when err is nil;
//   - when ok, the result has K rows of W words, and writing those rows
//     and watermark back reproduces the file byte for byte.
func FuzzReadCheckpoint(f *testing.F) {
	const k, w = 3, 2
	dir := f.TempDir()
	if err := writeCheckpoint(dir, k, w, [][]uint64{{1, 2}, {3, 4}, {5, 6}}, 42); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, ckptFile))
	if err != nil {
		f.Fatal(err)
	}
	edited := func(edit func(b []byte) []byte) []byte {
		return edit(append([]byte(nil), valid...))
	}
	flipped := edited(func(b []byte) []byte { b[30] ^= 0x10; return b })
	f.Add(valid, false)
	f.Add(flipped, false)
	f.Add(flipped, true)
	f.Add(valid[:len(valid)-1], false)
	f.Add(edited(func(b []byte) []byte { b[0] = 'X'; return b }), true)
	f.Add(edited(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:], 2); return b }), true)
	f.Add(edited(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[12:], 4); return b }), true)
	f.Add([]byte{}, false)

	f.Fuzz(func(t *testing.T, data []byte, fixCRC bool) {
		if fixCRC && len(data) >= 4 {
			data = append([]byte(nil), data...)
			body := data[:len(data)-4]
			binary.LittleEndian.PutUint32(data[len(body):], crc32.Checksum(body, castagnoli))
		}
		path := filepath.Join(dir, ckptFile)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rows, watermark, ok, err := readCheckpoint(dir, k, w)
		if ok != (err == nil) {
			t.Fatalf("ok = %v with err = %v", ok, err)
		}
		if !ok {
			return
		}
		if len(rows) != k {
			t.Fatalf("%d rows, want %d", len(rows), k)
		}
		for i, row := range rows {
			if len(row) != w {
				t.Fatalf("row %d has %d words, want %d", i, len(row), w)
			}
		}
		if err := writeCheckpoint(dir, k, w, rows, watermark); err != nil {
			t.Fatal(err)
		}
		back, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("rewritten checkpoint differs:\n got %x\nwant %x", back, data)
		}
	})
}
