package client_test

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"mwllsc/internal/client"
	"mwllsc/internal/fault"
	"mwllsc/internal/wire"
)

// TestInlineAndQueuedSendsMatchCallers runs many callers through one
// connection, alternating contexts that can never end (eligible to
// write their own frames when the writer is idle) with cancelable ones
// (always queued for the writer goroutine), through a proxy whose
// client-facing side splits writes. Each caller owns one shard, so
// every value it gets back is predictable: a response delivered to the
// wrong caller, or a frame torn between an inline and a queued writer,
// shows up as a wrong value or a dead connection.
func TestInlineAndQueuedSendsMatchCallers(t *testing.T) {
	const (
		callers = 16
		perC    = 100
	)
	srv, addr := startServer(t, callers, 4, 2)
	p, err := fault.NewProxy(addr, 7, fault.Faults{}, fault.Faults{PartialEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := dial(t, p.Addr(), client.WithConns(1), client.WithRetries(0))
	m := srv.Map()
	cancelable, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := m.KeyForShard(g)
			for i := uint64(1); i <= perC; i++ {
				ctx := context.Background()
				if i%2 == 0 {
					ctx = cancelable
				}
				v, err := c.Add(ctx, key, []uint64{1, uint64(g)})
				if err != nil {
					t.Errorf("caller %d add %d: %v", g, i, err)
					return
				}
				if v[0] != i || v[1] != i*uint64(g) {
					t.Errorf("caller %d add %d returned %v, want [%d %d]", g, i, v, i, i*uint64(g))
					return
				}
				if i%10 == 0 {
					if v, err = c.Read(ctx, key); err != nil || v[0] != i {
						t.Errorf("caller %d read after add %d = %v, %v", g, i, v, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	rows, err := c.SnapshotAtomic(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var adds, weighted uint64
	for _, r := range rows {
		adds += r[0]
		weighted += r[1]
	}
	if want := uint64(callers * perC); adds != want {
		t.Fatalf("adds across shards = %d, want %d", adds, want)
	}
	if want := uint64(perC * callers * (callers - 1) / 2); weighted != want {
		t.Fatalf("word-1 total = %d, want %d", weighted, want)
	}
}

// TestDeadlineWhilePeerStopsReading: a peer that stops reading lets the
// socket fill, and then every write to it blocks. A call with a
// deadline must still return context.DeadlineExceeded on time, which is
// why it never writes its own frame, even when it finds the writer
// idle. The first call's request alone overfills the socket; the
// second finds the writer goroutine stuck writing it.
func TestDeadlineWhilePeerStopsReading(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := l.Accept()
		if err != nil {
			return
		}
		nc.(*net.TCPConn).SetReadBuffer(4 << 10)
		accepted <- nc // never read from
	}()
	c, err := client.Dial(l.Addr().String(), client.WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() // unblocks the stuck write
	peer := <-accepted
	defer peer.Close()

	big := make([]uint64, 6<<20/8) // a 6 MiB request, more than the socket holds
	for _, call := range []struct {
		name string
		do   func(context.Context) error
	}{
		{"oversized set", func(ctx context.Context) error { _, err := c.Set(ctx, 1, big); return err }},
		{"ping behind it", c.Ping},
	} {
		done := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			done <- call.do(ctx)
		}()
		select {
		case err := <-done:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%s: err = %v, want context.DeadlineExceeded", call.name, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s: still blocked 1s past its 50ms deadline", call.name)
		}
	}
}

// TestOversizedRequestFailsAlone: a request past the frame limit fails
// before any of it is sent, on the inline path and the queued one, and
// the connection keeps serving — the server would otherwise drop the
// connection over the frame, and every call in flight on it.
func TestOversizedRequestFailsAlone(t *testing.T) {
	_, addr := startServer(t, 2, 2, 1)
	c := dial(t, addr)
	huge := make([]uint64, wire.MaxFrame/8+1)
	cancelable, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, ctx := range []context.Context{context.Background(), cancelable} {
		if _, err := c.Set(ctx, 1, huge); err == nil || errors.Is(err, client.ErrConnBroken) {
			t.Fatalf("oversized set: err = %v, want a frame-limit error", err)
		}
		if err := c.Ping(ctx); err != nil {
			t.Fatalf("ping after oversized set: %v", err)
		}
	}
	if n := c.Reconnects(); n != 0 {
		t.Fatalf("%d reconnects, want the connection kept", n)
	}
}

// unpipelinedReadAllocs is the heap allocation count of one warm,
// unpipelined Read on a single connection, client and in-process server
// together: the caller's pending slot and its done channel, and the
// returned value's backing array. The server side allocates nothing.
const unpipelinedReadAllocs = 3

// TestUnpipelinedReadAllocs pins unpipelinedReadAllocs, so a new
// allocation on the path every unpipelined call takes shows up here.
func TestUnpipelinedReadAllocs(t *testing.T) {
	_, addr := startServer(t, 4, 4, 2)
	c := dial(t, addr)
	ctx := context.Background()
	read := func() {
		if _, err := c.Read(ctx, 7); err != nil {
			t.Fatal(err)
		}
	}
	read()
	if got := testing.AllocsPerRun(200, read); got != unpipelinedReadAllocs {
		t.Fatalf("warm unpipelined Read: %v allocs/op, want %d", got, unpipelinedReadAllocs)
	}
}
