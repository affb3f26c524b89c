package server_test

import (
	"context"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mwllsc/internal/client"
	"mwllsc/internal/server"
	"mwllsc/internal/shard"
	"mwllsc/internal/wire"
)

func newServer(t *testing.T, k, n, w int, opts ...server.Option) *server.Server {
	t.Helper()
	m, err := shard.NewMap(k, n, w)
	if err != nil {
		t.Fatal(err)
	}
	return server.New(m, opts...)
}

func TestListenServeClose(t *testing.T) {
	s := newServer(t, 2, 2, 1)
	if s.Addr() != nil {
		t.Fatal("Addr non-nil before Listen")
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if s.Addr().String() != addr.String() {
		t.Fatalf("Addr() = %v, Listen returned %v", s.Addr(), addr)
	}
	if _, err := s.Listen("127.0.0.1:0"); err == nil {
		t.Fatal("second Listen accepted")
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve() }()
	c, err := client.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		if err != server.ErrClosed {
			t.Fatalf("Serve returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	// Close is idempotent; Serve after Close refuses.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(); err != server.ErrClosed {
		t.Fatalf("Serve after Close = %v, want ErrClosed", err)
	}
}

func TestServeBeforeListen(t *testing.T) {
	s := newServer(t, 2, 2, 1)
	if err := s.Serve(); err == nil {
		t.Fatal("Serve before Listen succeeded")
	}
}

// TestIntegrationLoad is the serving-layer integration test: an
// in-process llscd hammered over loopback by many client goroutines
// mixing per-key adds, cross-shard transfers (UpdateMulti) and atomic
// snapshots, then checked for conservation, clean shutdown, and zero
// goroutine leakage. Run it under -race.
func TestIntegrationLoad(t *testing.T) {
	baseline := runtime.NumGoroutine()

	const (
		shards  = 8
		slots   = 6
		words   = 2
		workers = 12
		perW    = 150
	)
	m, err := shard.NewMap(shards, slots, words)
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(m, server.WithMaxBatch(32))
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()

	c, err := client.Dial(addr.String(), client.WithConns(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Seed every shard's word 0 with 1000 units; workers move units
	// between shards (conserving the total) and bump the word-1 op
	// counter (summing to the op count).
	keys := make([]uint64, shards)
	for i := range keys {
		keys[i] = m.KeyForShard(i)
		if _, err := c.Set(ctx, keys[i], []uint64{1000, 0}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := uint64(g)*2654435761 + 1
			next := func() uint64 { rng = rng*6364136223846793005 + 1442695040888963407; return rng >> 16 }
			for i := 0; i < perW; i++ {
				from, to := keys[next()%shards], keys[next()%shards]
				amt := next() % 5
				switch i % 3 {
				case 0: // cross-shard transfer: conserves word 0, counts 2 ops in word 1
					if from == to {
						continue
					}
					_, err := c.AddMulti(ctx, []uint64{from, to},
						[][]uint64{{-amt & (1<<64 - 1), 1}, {amt, 1}})
					if err != nil {
						t.Errorf("worker %d multi: %v", g, err)
						return
					}
				case 1: // per-key op counter bump
					if _, err := c.Add(ctx, from, []uint64{0, 1}); err != nil {
						t.Errorf("worker %d add: %v", g, err)
						return
					}
				default: // reads and snapshots interleave with the writes
					if i%2 == 0 {
						if _, err := c.Read(ctx, from); err != nil {
							t.Errorf("worker %d read: %v", g, err)
							return
						}
					} else if _, err := c.Snapshot(ctx); err != nil {
						t.Errorf("worker %d snapshot: %v", g, err)
						return
					}
				}
				// Periodically audit conservation mid-flight with a
				// cross-shard linearizable snapshot: the money total must
				// hold at EVERY instant, not only at the end.
				if i%50 == 25 {
					rows, err := c.SnapshotAtomic(ctx)
					if err != nil {
						t.Errorf("worker %d audit: %v", g, err)
						return
					}
					var total uint64
					for _, r := range rows {
						total += r[0]
					}
					if total != shards*1000 {
						t.Errorf("worker %d audit: total %d, want %d", g, total, shards*1000)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	rows, err := c.SnapshotAtomic(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var money uint64
	for _, r := range rows {
		money += r[0]
	}
	if money != shards*1000 {
		t.Fatalf("final money total %d, want %d", money, shards*1000)
	}

	st := s.Stats()
	if st.ConnsOpen != 3 || st.Multis == 0 || st.Updates == 0 || st.Snapshots == 0 {
		t.Fatalf("server stats %+v", st)
	}

	// Clean shutdown: no goroutines may outlive Close (server side) and
	// Close (client side).
	c.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		stacks := string(buf)
		if strings.Contains(stacks, "mwllsc/internal/server.") ||
			strings.Contains(stacks, "mwllsc/internal/client.") {
			t.Fatalf("goroutine leak: %d > baseline %d\n%s", n, baseline, stacks)
		}
	}
}

// TestSlotOversubscription runs more connections than registry slots:
// batches queue at the registry (Block policy) instead of failing.
func TestSlotOversubscription(t *testing.T) {
	m, err := shard.NewMap(4, 2, 1) // only 2 slots
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(m)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	defer s.Close()

	c, err := client.Dial(addr.String(), client.WithConns(6))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := c.Add(ctx, uint64(i), []uint64{1}); err != nil {
					t.Errorf("worker %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	rows, err := c.SnapshotAtomic(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, r := range rows {
		total += r[0]
	}
	if total != 12*50 {
		t.Fatalf("total %d, want %d", total, 12*50)
	}
}

// TestBatchBarrierOrder pins the batch-execution ordering contract for
// mixed op kinds: an Update pipelined BEFORE an UpdateMulti on the same
// key must execute before it, even when both land in one batch, which
// runs in arrival order. The two frames are written in one syscall so
// they arrive together and batch together.
func TestBatchBarrierOrder(t *testing.T) {
	m, err := shard.NewMap(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(m)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	defer s.Close()

	nc, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	const key = 5
	for round := 0; round < 20; round++ {
		// Frame 1: Add(key, 1). Frame 2: SetMulti([key], 0). In issue
		// order the key must end at 0; reordered it would end at 1.
		var buf []byte
		buf = wire.AppendFrame(buf, wire.AppendRequest(nil,
			&wire.Request{ID: 1, Op: wire.OpUpdate, Mode: wire.ModeAdd, Key: key, Args: []uint64{1}}))
		buf = wire.AppendFrame(buf, wire.AppendRequest(nil,
			&wire.Request{ID: 2, Op: wire.OpUpdateMulti, Mode: wire.ModeSet, Keys: []uint64{key}, Args: []uint64{0}}))
		buf = wire.AppendFrame(buf, wire.AppendRequest(nil,
			&wire.Request{ID: 3, Op: wire.OpRead, Key: key}))
		if _, err := nc.Write(buf); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		var frame []byte
		var resp wire.Response
		for seen := 0; seen < 3; seen++ {
			if frame, err = wire.ReadFrame(nc, frame); err != nil {
				t.Fatal(err)
			}
			if err := wire.DecodeResponse(&resp, frame); err != nil {
				t.Fatal(err)
			}
			if resp.Status != wire.StatusOK {
				t.Fatalf("round %d: id %d failed: %s", round, resp.ID, resp.Err)
			}
			if resp.ID == 3 && resp.Data[0] != 0 {
				t.Fatalf("round %d: key = %d after add-then-set, want 0 (batch reordered across the multi barrier)", round, resp.Data[0])
			}
		}
	}
}

// TestShardSortedBatchAnswersMatchIDs: reads written in one syscall in
// descending shard order arrive as one batch, which the server executes
// and answers in arrival order, so the responses must come back in
// request order, each carrying its own request's id with that request's
// key's value.
func TestShardSortedBatchAnswersMatchIDs(t *testing.T) {
	m, err := shard.NewMap(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.Shards(); i++ {
		key := m.KeyForShard(i)
		m.Update(key, func(v []uint64) { v[0] = key + 1000 })
	}
	s := server.New(m)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	defer s.Close()

	nc, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	for round := 0; round < 20; round++ {
		var buf []byte
		for i := m.Shards() - 1; i >= 0; i-- {
			buf = wire.AppendFrame(buf, wire.AppendRequest(nil,
				&wire.Request{ID: uint64(i), Op: wire.OpRead, Key: m.KeyForShard(i)}))
		}
		if _, err := nc.Write(buf); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		var frame []byte
		var resp wire.Response
		for seen := 0; seen < m.Shards(); seen++ {
			if frame, err = wire.ReadFrame(nc, frame); err != nil {
				t.Fatal(err)
			}
			if err := wire.DecodeResponse(&resp, frame); err != nil {
				t.Fatal(err)
			}
			if wantID := uint64(m.Shards() - 1 - seen); resp.ID != wantID {
				t.Fatalf("round %d: response %d answers id %d, want %d (answered out of request order)", round, seen, resp.ID, wantID)
			}
			want := m.KeyForShard(int(resp.ID)) + 1000
			if resp.Status != wire.StatusOK || resp.Data[0] != want {
				t.Fatalf("round %d: id %d answered %v %v, want ok [%d]", round, resp.ID, resp.Status, resp.Data, want)
			}
		}
	}
}

// TestNonReadingClientDoesNotPinSlots starves the server of response
// readers on one connection and checks other connections still make
// progress: batches must release their registry slot before blocking on
// the response queue.
func TestNonReadingClientDoesNotPinSlots(t *testing.T) {
	m, err := shard.NewMap(2, 1, 1) // ONE slot: any pin starves everyone
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(m, server.WithMaxBatch(4))
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	defer s.Close()

	// The rogue connection: pour in far more requests than the response
	// queue + socket buffers can hold, and never read a byte back.
	rogue, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer rogue.Close()
	req := wire.AppendRequest(nil, &wire.Request{ID: 7, Op: wire.OpRead, Key: 1})
	frame := wire.AppendFrame(nil, req)
	rogue.SetWriteDeadline(time.Now().Add(2 * time.Second))
	for i := 0; i < 50000; i++ {
		if _, err := rogue.Write(frame); err != nil {
			break // socket buffers full — the server is saturated, good
		}
	}

	// A well-behaved client must still get service within the deadline.
	c, err := client.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 20; i++ {
		if _, err := c.Add(ctx, uint64(i), []uint64{1}); err != nil {
			t.Fatalf("well-behaved client starved: %v", err)
		}
	}
}

// TestPerKeyOrderPreserved checks that batch execution never reorders
// two operations on the same key from one connection: a Set followed by
// an Add must land in that order.
func TestPerKeyOrderPreserved(t *testing.T) {
	m, err := shard.NewMap(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(m)
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
	// Issue Set(i);Add(1) pipelined from concurrent goroutines on the
	// same key; whatever batching happens, the final value must reflect
	// set-then-add per pair, i.e. last pair's set + its add.
	for round := 0; round < 50; round++ {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); c.Set(ctx, 9, []uint64{100}) }()
		go func() { defer wg.Done(); c.Add(ctx, 9, []uint64{1}) }()
		wg.Wait()
		v, err := c.Read(ctx, 9)
		if err != nil {
			t.Fatal(err)
		}
		// Concurrent set/add admit 100 or 101 only (add-then-set, or
		// set-then-add): anything else means an op was lost or doubled.
		if v[0] != 100 && v[0] != 101 {
			t.Fatalf("round %d: value %d, want 100 or 101", round, v[0])
		}
	}
}
