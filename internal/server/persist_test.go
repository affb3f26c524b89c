package server_test

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mwllsc/internal/client"
	"mwllsc/internal/persist"
	"mwllsc/internal/server"
	"mwllsc/internal/shard"
	"mwllsc/internal/wire"
)

// TestPersistIntegration drives a real server with the durability layer
// attached: concurrent adds, sets and cross-shard transfers over
// loopback, a checkpoint taken under load, more traffic, a clean
// shutdown — then recovery into a fresh map must reproduce the exact
// final snapshot. Run it under -race.
func TestPersistIntegration(t *testing.T) {
	const (
		shards  = 8
		slots   = 6
		words   = 2
		workers = 8
		perW    = 60
	)
	dir := filepath.Join(t.TempDir(), "data")
	m, err := shard.NewMap(shards, slots, words)
	if err != nil {
		t.Fatal(err)
	}
	st, rec, err := persist.Open(dir, m, persist.Options{Policy: persist.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoint || rec.Replayed != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	s := server.New(m, server.WithMaxBatch(32), server.WithPersist(st))
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()

	c, err := client.Dial(addr.String(), client.WithConns(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	keys := make([]uint64, shards)
	for i := range keys {
		keys[i] = m.KeyForShard(i)
		if _, err := c.Set(ctx, keys[i], []uint64{1000, 0}); err != nil {
			t.Fatal(err)
		}
	}

	load := func() {
		var wg sync.WaitGroup
		for wkr := 0; wkr < workers; wkr++ {
			wg.Add(1)
			go func(wkr int) {
				defer wg.Done()
				for i := 0; i < perW; i++ {
					src, dst := keys[(wkr+i)%shards], keys[(wkr+i+1)%shards]
					switch i % 3 {
					case 0:
						if _, err := c.Add(ctx, src, []uint64{0, 1}); err != nil {
							t.Error(err)
							return
						}
					default:
						_, err := c.AddMulti(ctx, []uint64{src, dst},
							[][]uint64{{^uint64(0), 1}, {1, 1}}) // move one unit, bump op counters
						if err != nil {
							t.Error(err)
							return
						}
					}
				}
			}(wkr)
		}
		wg.Wait()
	}

	load()
	// Checkpoint while a second round of traffic is in flight: the
	// watermark must cleanly split records between snapshot and logs.
	ckptDone := make(chan error, 1)
	go func() { ckptDone <- st.Checkpoint() }()
	load()
	if err := <-ckptDone; err != nil {
		t.Fatal(err)
	}

	want, err := c.SnapshotAtomic(ctx)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := shard.NewMap(shards, slots, words)
	if err != nil {
		t.Fatal(err)
	}
	st2, rec2, err := persist.Open(dir, m2, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if !rec2.Checkpoint {
		t.Fatalf("recovery %+v, want a checkpoint", rec2)
	}
	got := m2.NewSnapshotBuffer()
	m2.SnapshotAtomic(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state %v\nwant %v", got, want)
	}

	// Conservation double-check: units were only moved, never created.
	var units uint64
	for _, row := range got {
		units += row[0]
	}
	if units != shards*1000 {
		t.Fatalf("recovered unit total %d, want %d", units, shards*1000)
	}
}

// gatedLog is a log segment whose Sync, once armed, waits for gate to
// close before it fsyncs.
type gatedLog struct {
	persist.LogFile
	armed *atomic.Bool
	gate  chan struct{}
}

func (l *gatedLog) Sync() error {
	if l.armed.Load() {
		<-l.gate
	}
	return l.LogFile.Sync()
}

// TestReadWaitsForDurableWrite pins that under SyncAlways a read is not
// answered while an update it observed still waits for its fsync: a
// power loss in that window would take back the value the read
// returned. Client A's Add waits in a group-commit round whose fsync is
// held; client B, on its own connection, reads the key and must get no
// answer until the round completes.
func TestReadWaitsForDurableWrite(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	m, err := shard.NewMap(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var armed atomic.Bool
	gate := make(chan struct{})
	st, _, err := persist.Open(dir, m, persist.Options{Policy: persist.SyncAlways,
		OpenLog: func(path string) (persist.LogFile, error) {
			f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, err
			}
			return &gatedLog{LogFile: f, armed: &armed, gate: gate}, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := server.New(m, server.WithPersist(st))
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	defer s.Close()
	a, err := client.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := client.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// Deferred last so it runs first: Server.Close waits for A's
	// connection, which waits for the gate.
	openGate := sync.OnceFunc(func() { close(gate) })
	defer openGate()

	ctx := context.Background()
	const key = 7
	armed.Store(true)
	added := make(chan error, 1)
	go func() {
		_, err := a.Add(ctx, key, []uint64{1, 0})
		added <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); st.Stats().Records == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("A's update was never appended")
		}
	}
	type result struct {
		v   []uint64
		err error
	}
	read := make(chan result, 1)
	go func() {
		v, err := b.Read(ctx, key)
		read <- result{v, err}
	}()
	select {
	case r := <-read:
		t.Fatalf("read answered %v (%v) while the write it saw waited for its fsync", r.v, r.err)
	case <-time.After(100 * time.Millisecond):
	}
	openGate()
	if err := <-added; err != nil {
		t.Fatal(err)
	}
	r := <-read
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.v[0] != 1 {
		t.Fatalf("read word 0 = %d after the write's fsync, want 1", r.v[0])
	}
}

// TestPersistFailureCountsInStats pins the operator-visibility contract
// of a persistence failure under -fsync always: the committed update is
// converted into an error response (the durability the policy promises
// did not happen), and the event is counted — PersistErrs for the
// failing round, BadReqs for each converted acknowledgment — so an
// operator can alert on silent durability loss instead of discovering
// it during recovery.
func TestPersistFailureCountsInStats(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	m, err := shard.NewMap(4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := persist.Open(dir, m, persist.Options{Policy: persist.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(m, server.WithPersist(st))
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	defer s.Close()

	c, err := client.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	if _, err := c.Add(ctx, 1, []uint64{1, 0}); err != nil {
		t.Fatalf("healthy update failed: %v", err)
	}
	before, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if before.PersistErrs != 0 {
		t.Fatalf("PersistErrs = %d before any failure", before.PersistErrs)
	}

	// Closing the store underneath the server makes the next append (or
	// its group-commit fsync) fail — the same observable outcome as a
	// full disk or a dying device.
	st.Close()

	if _, err := c.Add(ctx, 2, []uint64{1, 0}); err == nil {
		t.Fatal("update acked despite persistence failure under SyncAlways")
	}
	after, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.PersistErrs == 0 {
		t.Error("PersistErrs not incremented by a persistence failure")
	}
	if after.BadReqs <= before.BadReqs {
		t.Errorf("BadReqs did not count the converted ack: before %d after %d",
			before.BadReqs, after.BadReqs)
	}

	// A mixed batch, written in one syscall: only its updates were
	// logged, so only they are converted; the reads still answer OK.
	nc, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var buf []byte
	for _, req := range []wire.Request{
		{ID: 1, Op: wire.OpRead, Key: 1},
		{ID: 2, Op: wire.OpUpdate, Mode: wire.ModeAdd, Key: 1, Args: []uint64{1, 0}},
		{ID: 3, Op: wire.OpRead, Key: 2},
		{ID: 4, Op: wire.OpUpdateMulti, Mode: wire.ModeAdd, Keys: []uint64{1, 2}, Args: []uint64{1, 0, 1, 0}},
	} {
		buf = wire.AppendFrame(buf, wire.AppendRequest(nil, &req))
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var frame []byte
	var resp wire.Response
	for seen := 0; seen < 4; seen++ {
		if frame, err = wire.ReadFrame(nc, frame); err != nil {
			t.Fatal(err)
		}
		if err := wire.DecodeResponse(&resp, frame); err != nil {
			t.Fatal(err)
		}
		read := resp.ID == 1 || resp.ID == 3
		switch {
		case read && resp.Status != wire.StatusOK:
			t.Errorf("read id %d answered %v %q, want ok", resp.ID, resp.Status, resp.Err)
		case !read && !strings.HasPrefix(resp.Err, "persistence failure"):
			t.Errorf("update id %d answered %v %q, want a persistence failure", resp.ID, resp.Status, resp.Err)
		}
	}
	mixed, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := mixed.BadReqs - after.BadReqs; got != 2 {
		t.Errorf("mixed batch raised BadReqs by %d, want 2 (its two updates)", got)
	}
}
