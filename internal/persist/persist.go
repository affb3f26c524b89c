// Package persist is the durability layer under the serving stack: a
// Redis-AOF-style append-only log of committed declarative updates plus
// periodic checkpoints, so an llscd restart — graceful or SIGKILL —
// recovers the map instead of losing every word.
//
// # What is logged
//
// Only the wire layer's declarative word-merge updates (Add/Set, single
// or multi key) are durable; they are replayable by construction —
// closures never enter the log. Each record is the wire encoding of the
// original request (wire.AppendRequest) with the request id field
// carrying a commit sequence number instead, framed as
//
//	uint32 length | uint32 crc32c(payload) | payload
//
// in one log for the whole store: each Append is one write of a batch's
// records, and each group-commit round is one fsync. The shards need no
// files of their own, because recovery orders each shard's records by
// Seq (below), not by where they sit in the log.
//
// # Commit ordering without touching the lock-free hot path
//
// Appends happen after the in-memory commit, outside the registry slot,
// so two connections' records can reach the log in an order different
// from their commit order. Replay must still apply same-shard updates in
// commit order (Set does not commute). The sequence number restores it:
// the server captures Seq inside the update's merge callback — the
// committed attempt's callback run is always the last one for that
// record, and on one shard it happens strictly between that update's
// link and its successful store-conditional. Two committed updates on
// the same shard therefore carry sequence numbers in their commit
// order, whatever order their records land in the log. Recovery needs
// no other order: each shard is its own LL/SC object, and
// linearizability is local, so applying every shard's merges in Seq
// order reproduces the map. The cost on the hot path is one atomic
// counter increment per merge attempt; the LL/SC protocol itself is
// untouched.
//
// # Checkpoints and the watermark
//
// A checkpoint must know exactly which logged records its snapshot
// already contains. Store.Checkpoint first rotates the log to a fresh
// segment generation, then runs an identity transaction over all shards
// of the map it recovered into — a cross-shard atomic UpdateMulti whose
// callback changes nothing but draws one more sequence number S and
// copies the values out. Each shard is the paper's W-word LL/SC object,
// and that transaction conflicts with every shard, so S is a total
// watermark: on every shard, exactly the updates with Seq < S are in the
// snapshot and those with Seq > S are not. The snapshot (geometry, S,
// K×W values, CRC) is written to checkpoint.tmp, fsynced, renamed over
// checkpoint, and only then are the pre-rotation segments deleted. A
// crash at any point leaves either the old checkpoint with all segments
// or the new one with the new segments — recovery replays only records
// with Seq > S, so nothing is lost or double-applied either way.
//
// # Recovery
//
// Open loads the checkpoint if present (validating magic, version,
// geometry and CRC), reads every log-*.log segment, truncates each at
// the first framing or CRC failure (a torn tail from a crash mid-append,
// repaired Redis-AOF-style), removes a segment left with no records
// (so restarts without writes do not pile up segment files), and drops
// records at or below the watermark. It folds the rest per shard:
// every record becomes one entry per target key on that key's shard (a
// multi-key record's keys in key order, as UpdateMulti applies them), a
// shard's entries are sorted by Seq only when they arrived out of order,
// and wire.Merge folds them into that shard's row, which starts from the
// checkpoint or, without one, from the fresh map's own value. Each row
// is then installed with one Update. The sequence counter resumes above
// everything seen, and appends continue into a fresh segment
// generation.
//
// A directory whose meta says v1 keeps one segment per shard
// (shard-SSSS-GGGGGGGG.log). Open restamps meta as v2 before it writes
// a log, recovers the per-shard segments exactly as above, and the
// first checkpoint deletes them.
//
// # Fsync policies
//
// SyncNone never fsyncs (the OS decides; fastest, weakest), SyncEverySec
// fsyncs a dirty log on a ticker (bounded loss window), SyncAlways makes
// the server hold each batch's responses until a group-commit round has
// fsynced its records — many concurrent batches share one fsync, which
// is what keeps the policy affordable. The exact contract per policy is
// documented in docs/OPERATIONS.md.
package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"mwllsc/internal/wire"
)

// Policy selects when the append-only log is fsynced.
type Policy int

const (
	// SyncNone never fsyncs: writes reach the OS page cache and the
	// kernel flushes them on its own schedule. A machine crash can lose
	// everything since the last checkpoint; a process crash loses
	// nothing (the writes are already in the kernel).
	SyncNone Policy = iota
	// SyncEverySec fsyncs a dirty log once per second from a background
	// goroutine. A machine crash loses at most the last second of
	// acknowledged writes.
	SyncEverySec
	// SyncAlways fsyncs before a write is acknowledged: the server
	// holds a batch's responses until a group-commit round covers its
	// records. No acknowledged write is ever lost.
	SyncAlways
)

// String returns the policy's flag spelling.
func (p Policy) String() string {
	switch p {
	case SyncNone:
		return "none"
	case SyncEverySec:
		return "everysec"
	case SyncAlways:
		return "always"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy parses the -fsync flag spelling.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "none":
		return SyncNone, nil
	case "everysec":
		return SyncEverySec, nil
	case "always":
		return SyncAlways, nil
	default:
		return 0, fmt.Errorf("persist: unknown fsync policy %q (want none, everysec or always)", s)
	}
}

// LogFile is what the store needs from a log segment file. The default
// is a plain *os.File; fault-injection harnesses substitute an
// error-injecting implementation through Options.OpenLog.
type LogFile interface {
	io.Writer
	Sync() error
	Close() error
}

// Options configures Open.
type Options struct {
	// Policy is the fsync policy (default SyncNone).
	Policy Policy
	// OpenLog opens a log segment file for appending (default:
	// os.OpenFile with O_CREATE|O_WRONLY|O_APPEND). It exists so tests
	// can inject disk faults (internal/fault.Files) under the store's
	// real append and group-commit paths; checkpoint files are not
	// routed through it.
	OpenLog func(path string) (LogFile, error)
}

func (o Options) withDefaults() Options {
	if o.OpenLog == nil {
		o.OpenLog = func(path string) (LogFile, error) {
			return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		}
	}
	return o
}

// Record is one durable update: the declarative form of a committed
// Update (one key) or UpdateMulti (cross-shard transaction), stamped
// with the commit sequence number captured inside its merge callback.
type Record struct {
	// Seq orders same-shard records by commit; unique across the store.
	Seq uint64
	// Op is wire.OpUpdate or wire.OpUpdateMulti.
	Op wire.Op
	// Mode is the word-merge mode (wire.ModeAdd or wire.ModeSet).
	Mode wire.Mode
	// Key is the target key (OpUpdate).
	Key uint64
	// Keys are the target keys (OpUpdateMulti).
	Keys []uint64
	// Args are the merge arguments: W words (OpUpdate) or len(Keys)×W
	// words (OpUpdateMulti).
	Args []uint64
	// Shard is ignored.
	//
	// Deprecated: the store keeps one log for every shard, so a record
	// needs no routing.
	Shard int
}

// castagnoli is the CRC-32C table used for record and checkpoint
// integrity (the polynomial with hardware support on current CPUs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// recHeader is the per-record frame header: uint32 payload length plus
// uint32 CRC-32C of the payload.
const recHeader = 8

// appendRecord appends r's framed encoding to dst. The payload reuses
// the wire request encoding with the id field carrying Seq.
func appendRecord(dst []byte, r *Record) []byte {
	req := wire.Request{ID: r.Seq, Op: r.Op, Mode: r.Mode, Key: r.Key, Keys: r.Keys, Args: r.Args}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // length + crc, patched below
	dst = wire.AppendRequest(dst, &req)
	payload := dst[start+recHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// scanRecords walks the records of one segment, calling fn with each
// record that parses cleanly, decoded into one wire.Request reused
// across calls (the id field carries Seq; fn must copy what it keeps).
// It returns the byte offset of the first framing or CRC failure
// (== len(data) when the whole segment is clean); everything from that
// offset on is a torn or corrupt tail the caller truncates. A record
// that passes its CRC but does not match the map's geometry is not
// corruption — it means the operator changed -words — and is returned
// as an error instead of being silently dropped.
func scanRecords(data []byte, w int, fn func(req *wire.Request)) (goodLen int, err error) {
	var req wire.Request
	off := 0
	for {
		if len(data)-off < recHeader {
			return off, nil // clean end, or a torn header
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n < 9 || n > wire.MaxFrame || len(data)-off-recHeader < n {
			return off, nil // impossible length or torn payload
		}
		payload := data[off+recHeader : off+recHeader+n]
		if crc32.Checksum(payload, castagnoli) != crc {
			return off, nil // corrupt payload
		}
		if err := wire.DecodeRequest(&req, payload); err != nil {
			return off, nil // CRC-valid but undecodable: treat as corruption
		}
		switch req.Op {
		case wire.OpUpdate:
			if len(req.Args) != w {
				return off, fmt.Errorf("persist: log record has %d-word args, map width is %d (geometry changed?)", len(req.Args), w)
			}
		case wire.OpUpdateMulti:
			if len(req.Args) != len(req.Keys)*w {
				return off, fmt.Errorf("persist: multi log record has %d keys × %d-word args, map width is %d (geometry changed?)",
					len(req.Keys), len(req.Args)/max(1, len(req.Keys)), w)
			}
		default:
			return off, nil // not an update record: treat as corruption
		}
		fn(&req)
		off += recHeader + n
	}
}
