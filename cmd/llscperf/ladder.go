package main

import (
	"fmt"
	"os"
	"time"

	"mwllsc/internal/persist"
	"mwllsc/internal/shard"
	"mwllsc/internal/wire"
)

// Ladder settings: each rung runs single-threaded for ladderRounds rounds
// of about ladderRound each over ladderOps generated operations, and
// reports the median round's mean cost per call.
const (
	ladderOps    = 4096
	ladderRound  = 20 * time.Millisecond
	ladderRounds = 5
	// ladderWorker is the generator stream the ladders draw from; load
	// workers use streams 0..n-1.
	ladderWorker = 1 << 20
)

// ladder returns f's cost per call in nanoseconds: the median over
// rounds of a round's mean, after doubling the call count until one
// round fills ladderRound.
func ladder(f func(i int)) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := range n {
			f(i)
		}
		if time.Since(t0) >= ladderRound {
			break
		}
		n *= 2
	}
	costs := make([]float64, ladderRounds)
	for r := range costs {
		t0 := time.Now()
		for i := range n {
			f(i)
		}
		costs[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(costs)
}

// ladders measures the public boundary of the shard, txn, wire and
// persist layers alone, over the workload's geometry (k shards of w
// words) and operation mix. A workload that bypasses a layer still gets
// its rung, so every workload reports the same per-layer names.
func ladders(cfg *config, k, w int, mx mix, zipf bool) ([]metric, error) {
	g := newGen(cfg.seed, ladderWorker, mx, zipf)
	sample := make([]op, ladderOps)
	var keys []uint64
	for i := range sample {
		sample[i] = g.next()
		if o := sample[i]; o.class != opSnapshot {
			keys = append(keys, o.key)
		}
	}
	ms, err := shardLadders(k, w, keys)
	if err != nil {
		return nil, err
	}
	ms = append(ms, wireLadders(k, w, sample)...)
	ns, err := appendLadder(k, w, keys)
	if err != nil {
		return nil, err
	}
	return append(ms, metric{"persist.append_ns", ns, "ns", ladderOps}), nil
}

func shardLadders(k, w int, keys []uint64) ([]metric, error) {
	m, err := shard.NewMap(k, 2, w)
	if err != nil {
		return nil, err
	}
	h := m.Acquire()
	defer h.Release()
	reg := m.Registry()
	buf := make([]uint64, w)
	pair := make([]uint64, 2)
	rows := m.NewSnapshotBuffer()
	n := len(keys)
	pairAt := func(i int) []uint64 {
		pair[0], pair[1] = keys[i%n], keys[(i+1)%n]
		if pair[0] == pair[1] {
			pair[1]++
		}
		return pair
	}
	return []metric{
		{"shard.update_ns", ladder(func(i int) { h.Update(keys[i%n], addWord0) }), "ns", uint64(n)},
		{"shard.read_ns", ladder(func(i int) { h.Read(keys[i%n], buf) }), "ns", uint64(n)},
		{"shard.acquire_release_ns", ladder(func(int) { reg.Release(reg.Acquire()) }), "ns", uint64(n)},
		{"txn.multi_ns", ladder(func(i int) { h.UpdateMulti(pairAt(i), addWord1) }), "ns", uint64(n)},
		{"txn.snapshot_atomic_ns", ladder(func(int) { h.SnapshotAtomic(rows) }), "ns", uint64(n)},
	}, nil
}

// wireRequest is the request a served client sends for o.
func wireRequest(o op, id uint64, w int) wire.Request {
	switch o.class {
	case opUpdate:
		args := make([]uint64, w)
		args[0] = 1
		return wire.Request{ID: id, Op: wire.OpUpdate, Mode: wire.ModeAdd, Key: o.key, Args: args}
	case opRead:
		return wire.Request{ID: id, Op: wire.OpRead, Key: o.key}
	case opMulti:
		args := make([]uint64, 2*w)
		args[1], args[w+1] = 1, 1
		return wire.Request{ID: id, Op: wire.OpUpdateMulti, Mode: wire.ModeAdd, Keys: []uint64{o.key, o.key2}, Args: args}
	default:
		return wire.Request{ID: id, Op: wire.OpSnapshotAtomic}
	}
}

// wireResponse is the OK response the server sends for o on a map of k
// shards of w words.
func wireResponse(o op, id uint64, k, w int) wire.Response {
	rows := 1
	switch o.class {
	case opMulti:
		rows = 2
	case opSnapshot:
		rows = k
	}
	data := make([]uint64, rows*w)
	for i := range data {
		data[i] = id + uint64(i)
	}
	return wire.Response{ID: id, Attempts: 1, Rows: uint32(rows), Words: uint32(w), Data: data}
}

func wireLadders(k, w int, sample []op) []metric {
	n := len(sample)
	reqs := make([]wire.Request, n)
	resps := make([]wire.Response, n)
	reqBytes := make([][]byte, n)
	respBytes := make([][]byte, n)
	var reqTotal, respTotal int
	for i, o := range sample {
		reqs[i] = wireRequest(o, uint64(i+1), w)
		resps[i] = wireResponse(o, uint64(i+1), k, w)
		reqBytes[i] = wire.AppendRequest(nil, &reqs[i])
		respBytes[i] = wire.AppendResponse(nil, &resps[i])
		reqTotal += 4 + len(reqBytes[i]) // 4-byte frame length prefix
		respTotal += 4 + len(respBytes[i])
	}
	var buf []byte
	var req wire.Request
	var resp wire.Response
	return []metric{
		{"wire.req_encode_ns", ladder(func(i int) { buf = wire.AppendRequest(buf[:0], &reqs[i%n]) }), "ns", uint64(n)},
		{"wire.req_decode_ns", ladder(func(i int) { _ = wire.DecodeRequest(&req, reqBytes[i%n]) }), "ns", uint64(n)},
		{"wire.resp_encode_ns", ladder(func(i int) { buf = wire.AppendResponse(buf[:0], &resps[i%n]) }), "ns", uint64(n)},
		{"wire.resp_decode_ns", ladder(func(i int) { _ = wire.DecodeResponse(&resp, respBytes[i%n]) }), "ns", uint64(n)},
		{"wire.req_bytes", float64(reqTotal) / float64(n), "B", uint64(n)},
		{"wire.resp_bytes", float64(respTotal) / float64(n), "B", uint64(n)},
	}
}

// appendLadder times Store.Append of one Add record at SyncNone: the
// log's encode, CRC and write, without fsync.
func appendLadder(k, w int, keys []uint64) (float64, error) {
	dir, err := os.MkdirTemp("", "llscperf-append-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	m, err := shard.NewMap(k, 2, w)
	if err != nil {
		return 0, err
	}
	st, _, err := persist.Open(dir, m, persist.Options{Policy: persist.SyncNone})
	if err != nil {
		return 0, err
	}
	args := make([]uint64, w)
	args[0] = 1
	recs := make([]persist.Record, len(keys))
	for i, key := range keys {
		recs[i] = persist.Record{Seq: uint64(i + 1), Op: wire.OpUpdate, Mode: wire.ModeAdd, Key: key, Args: args, Shard: m.ShardIndex(key)}
	}
	var appendErr error
	ns := ladder(func(i int) {
		if err := st.Append(recs[i%len(recs) : i%len(recs)+1]); err != nil && appendErr == nil {
			appendErr = err
		}
	})
	if err := st.Close(); err != nil && appendErr == nil {
		appendErr = err
	}
	if appendErr != nil {
		return 0, fmt.Errorf("append ladder: %w", appendErr)
	}
	return ns, nil
}
