package client_test

import (
	"context"
	"encoding/binary"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mwllsc/internal/client"
	"mwllsc/internal/server"
	"mwllsc/internal/shard"
	"mwllsc/internal/wire"
)

// startServer spins an in-process server on a loopback port and returns
// its address; cleanup closes it.
func startServer(t *testing.T, k, n, w int, opts ...server.Option) (*server.Server, string) {
	t.Helper()
	m, err := shard.NewMap(k, n, w)
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(m, opts...)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	t.Cleanup(func() { s.Close() })
	return s, addr.String()
}

func dial(t *testing.T, addr string, opts ...client.Option) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestPingReadAddSet(t *testing.T) {
	_, addr := startServer(t, 4, 4, 2)
	c := dial(t, addr)
	ctx := context.Background()

	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	v, err := c.Read(ctx, 7)
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 0 || v[1] != 0 {
		t.Fatalf("fresh value = %v, want zeros", v)
	}
	if v, err = c.Add(ctx, 7, []uint64{5, 9}); err != nil {
		t.Fatal(err)
	}
	if v[0] != 5 || v[1] != 9 {
		t.Fatalf("after add: %v, want [5 9]", v)
	}
	if v, err = c.Set(ctx, 7, []uint64{100, 200}); err != nil {
		t.Fatal(err)
	}
	if v[0] != 100 || v[1] != 200 {
		t.Fatalf("after set: %v, want [100 200]", v)
	}
	if v, err = c.Read(ctx, 7); err != nil {
		t.Fatal(err)
	}
	if v[0] != 100 || v[1] != 200 {
		t.Fatalf("read back: %v, want [100 200]", v)
	}
}

func TestSnapshotAndMulti(t *testing.T) {
	srv, addr := startServer(t, 8, 4, 1)
	c := dial(t, addr)
	ctx := context.Background()
	m := srv.Map()

	// Pin one key per shard so the expected snapshot is deterministic.
	keys := make([]uint64, m.Shards())
	deltas := make([][]uint64, m.Shards())
	for i := range keys {
		keys[i] = m.KeyForShard(i)
		deltas[i] = []uint64{uint64(i + 1)}
	}
	vals, err := c.AddMulti(ctx, keys, deltas)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v[0] != uint64(i+1) {
			t.Fatalf("multi row %d = %v, want %d", i, v, i+1)
		}
	}
	for _, snap := range []func(context.Context) ([][]uint64, error){c.Snapshot, c.SnapshotAtomic} {
		rows, err := snap(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != m.Shards() {
			t.Fatalf("%d snapshot rows, want %d", len(rows), m.Shards())
		}
		for i := range rows {
			if rows[i][0] != uint64(i+1) {
				t.Fatalf("snapshot shard %d = %v, want %d", i, rows[i], i+1)
			}
		}
	}
}

func TestStats(t *testing.T) {
	_, addr := startServer(t, 4, 3, 2)
	c := dial(t, addr)
	ctx := context.Background()
	if _, err := c.Add(ctx, 1, []uint64{1, 0}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 4 || st.Slots != 3 || st.Words != 2 {
		t.Fatalf("geometry %+v, want 4/3/2", st)
	}
	if st.Updates != 1 || st.Reqs < 2 || st.ConnsTotal != 1 {
		t.Fatalf("counters %+v", st)
	}
}

func TestServerRejectsWrongWidth(t *testing.T) {
	_, addr := startServer(t, 2, 2, 3)
	c := dial(t, addr)
	ctx := context.Background()
	if _, err := c.Add(ctx, 1, []uint64{1}); err == nil {
		t.Fatal("wrong-width add accepted")
	}
	// The connection survives a rejected request.
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping after rejected request: %v", err)
	}
	if _, err := c.AddMulti(ctx, []uint64{1, 2}, [][]uint64{{1}, {2}}); err == nil {
		t.Fatal("wrong-width multi accepted")
	}
}

func TestContextCancellation(t *testing.T) {
	_, addr := startServer(t, 2, 2, 1)
	c := dial(t, addr)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Read(ctx, 1); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A canceled call must not wedge the connection for later calls.
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestContextDeadline(t *testing.T) {
	// A server that accepts but never answers: the raw listener.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()
	c, err := client.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := c.Ping(ctx); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestClientClose(t *testing.T) {
	_, addr := startServer(t, 2, 2, 1)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(context.Background()); err != client.ErrClosed {
		t.Fatalf("err after close = %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestServerCloseFailsInFlight(t *testing.T) {
	srv, addr := startServer(t, 2, 2, 1)
	c := dial(t, addr)
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// The dead connection surfaces as an error (possibly after a few
	// calls, depending on shutdown interleaving), never a hang.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var lastErr error
	for i := 0; i < 100; i++ {
		if lastErr = c.Ping(ctx); lastErr != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if lastErr == nil {
		t.Fatal("pings kept succeeding after server close")
	}
}

func TestConcurrentPipelinedLoad(t *testing.T) {
	srv, addr := startServer(t, 8, 4, 1)
	c := dial(t, addr, client.WithConns(2))
	ctx := context.Background()

	const (
		workers = 16
		perW    = 200
	)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				key := shard.HashUint64(uint64(g*perW + i))
				if _, err := c.Add(ctx, key, []uint64{1}); err != nil {
					t.Errorf("worker %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	rows, err := c.SnapshotAtomic(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, r := range rows {
		total += r[0]
	}
	if total != workers*perW {
		t.Fatalf("sum over shards = %d, want %d", total, workers*perW)
	}
	st := srv.Stats()
	if st.Batches == 0 || st.Updates != workers*perW {
		t.Fatalf("server stats %+v", st)
	}
	// Pipelining must actually have batched: strictly fewer handle
	// acquisitions than operations.
	if st.Batches >= st.Reqs {
		t.Logf("note: no batching observed (batches=%d reqs=%d)", st.Batches, st.Reqs)
	}
}

func TestAllConnsBrokenSurfaceError(t *testing.T) {
	srv, addr := startServer(t, 2, 2, 1)
	c := dial(t, addr, client.WithConns(2))
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for i := 0; i < 200; i++ {
		if err := c.Ping(ctx); err != nil && err != context.DeadlineExceeded {
			return // broken-connection error surfaced
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("broken pool never surfaced an error")
}

// TestRawMalformedFrame drives the server with hand-built bad frames
// and checks the error responses come back well-formed: a lone bad
// frame, then one written between two good requests, which the server
// must answer alongside them without dropping either or the connection.
func TestRawMalformedFrame(t *testing.T) {
	srv, addr := startServer(t, 2, 2, 1)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Opcode 0xee does not exist.
	payload := make([]byte, 9)
	payload[8] = 0xee
	if err := wire.WriteFrame(nc, payload); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	frame, err := wire.ReadFrame(nc, nil)
	if err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := wire.DecodeResponse(&resp, frame); err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusBadRequest {
		t.Fatalf("status %v, want bad-request", resp.Status)
	}

	// Read(1), the bad opcode under id 2, and Read(3) in one write.
	badReqs := srv.Stats().BadReqs
	binary.LittleEndian.PutUint64(payload, 2)
	var buf []byte
	buf = wire.AppendFrame(buf, wire.AppendRequest(nil, &wire.Request{ID: 1, Op: wire.OpRead, Key: 5}))
	buf = wire.AppendFrame(buf, payload)
	buf = wire.AppendFrame(buf, wire.AppendRequest(nil, &wire.Request{ID: 3, Op: wire.OpRead, Key: 6}))
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	got := make(map[uint64]wire.Response)
	for len(got) < 3 {
		if frame, err = wire.ReadFrame(nc, frame); err != nil {
			t.Fatalf("after %d of 3 answers: %v", len(got), err)
		}
		if err := wire.DecodeResponse(&resp, frame); err != nil {
			t.Fatal(err)
		}
		if _, dup := got[resp.ID]; dup {
			t.Fatalf("id %d answered twice", resp.ID)
		}
		got[resp.ID] = resp
	}
	for _, id := range []uint64{1, 3} {
		if r, ok := got[id]; !ok || r.Status != wire.StatusOK {
			t.Fatalf("read id %d: answered=%v status %v %q, want ok", id, ok, r.Status, r.Err)
		}
	}
	if r, ok := got[2]; !ok || r.Status != wire.StatusBadRequest || !strings.Contains(r.Err, "opcode 238") {
		t.Fatalf("bad frame id 2: answered=%v status %v %q, want bad-request naming opcode 238", ok, r.Status, r.Err)
	}
	if d := srv.Stats().BadReqs - badReqs; d != 1 {
		t.Fatalf("BadReqs rose by %d, want 1", d)
	}

	// The connection keeps serving.
	if err := wire.WriteFrame(nc, wire.AppendRequest(nil, &wire.Request{ID: 4, Op: wire.OpPing})); err != nil {
		t.Fatal(err)
	}
	if frame, err = wire.ReadFrame(nc, frame); err != nil {
		t.Fatal(err)
	}
	if err := wire.DecodeResponse(&resp, frame); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 4 || resp.Status != wire.StatusOK {
		t.Fatalf("fourth request: id %d status %v %q, want id 4 ok", resp.ID, resp.Status, resp.Err)
	}
}

// fakeServer accepts one connection and hands each decoded request to
// respond, which writes whatever frames it wants back on the socket.
func fakeServer(t *testing.T, respond func(nc net.Conn, req *wire.Request)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		var frame []byte
		var req wire.Request
		for {
			frame, err = wire.ReadFrame(nc, frame)
			if err != nil {
				return
			}
			if err := wire.DecodeRequest(&req, frame); err != nil {
				return
			}
			respond(nc, &req)
		}
	}()
	return ln.Addr().String()
}

// TestUnmatchedResponsesDropped pins the reader's drop path: responses
// whose id matches no pending caller (a canceled request's late answer,
// or a server-pushed id-0 error) are consumed without disturbing the
// stream, and later matched responses still complete their callers.
func TestUnmatchedResponsesDropped(t *testing.T) {
	addr := fakeServer(t, func(nc net.Conn, req *wire.Request) {
		// A well-formed response nobody is waiting for, then the real one.
		stray := wire.AppendResponse(nil, &wire.Response{ID: req.ID + 1<<40, Status: wire.StatusOK})
		real := wire.AppendResponse(nil, &wire.Response{ID: req.ID, Status: wire.StatusOK})
		wire.WriteFrame(nc, stray)
		wire.WriteFrame(nc, real)
	})
	c := dial(t, addr)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		if err := c.Ping(ctx); err != nil {
			t.Fatalf("ping %d after stray responses: %v", i, err)
		}
	}
}

// TestDecodeErrorCompletesPending pins the reader's failure path when
// the malformed frame carries a real caller's id: that caller must be
// completed with the decode error, not stranded until its deadline,
// even though the reader has already removed it from the pending map.
func TestDecodeErrorCompletesPending(t *testing.T) {
	addr := fakeServer(t, func(nc net.Conn, req *wire.Request) {
		// Correct id, StatusOK, but a truncated body (no attempts/rows/
		// words header) — DecodeResponse must reject it.
		payload := make([]byte, 9)
		binary.LittleEndian.PutUint64(payload, req.ID)
		payload[8] = byte(wire.StatusOK)
		wire.WriteFrame(nc, payload)
	})
	c := dial(t, addr)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := c.Ping(ctx)
	if err == nil {
		t.Fatal("ping succeeded on a malformed response")
	}
	if ctx.Err() != nil {
		t.Fatalf("caller hung until deadline instead of completing with the decode error (%v)", err)
	}
}
