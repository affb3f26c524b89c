package client_test

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"mwllsc/internal/client"
	"mwllsc/internal/fault"
	"mwllsc/internal/wire"
)

// TestCallerAndHandoffWritersMatchCallers runs many callers through
// one connection, alternating contexts that can never end (which write
// the buffer themselves when they find no write in progress) with
// cancelable ones (which always hand the writer role to a short-lived
// goroutine), through a proxy whose client-facing side splits writes.
// Each caller owns one shard, so every value it gets back is
// predictable: a response delivered to the wrong caller, or a frame
// torn between the two writer roles, shows up as a wrong value or a
// dead connection.
func TestCallerAndHandoffWritersMatchCallers(t *testing.T) {
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
// why it never blocks in a write, even when it finds no write in
// progress. The first call's request alone overfills the socket; the
// second finds the writer stuck writing it. More calls than the write
// buffer holds then pile up behind the stuck write: each must time out
// on time too, and the buffer must stop at its bound, so the calls past
// it are never sent. Closing the client must then unblock the writer,
// so no goroutine outlives the client.
func TestDeadlineWhilePeerStopsReading(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	baseline := runtime.NumGoroutine()
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

	const calls = 300
	row := make([]uint64, 128) // a 1 KiB set: 300 of them overfill the buffer
	frame := len(wire.AppendRequestFrame(nil, &wire.Request{Op: wire.OpUpdate, Mode: wire.ModeSet, Key: 1, Args: row}))
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			_, err := c.Set(ctx, 1, row)
			errs <- err
		}()
	}
	late := time.After(time.Second)
	for i := 0; i < calls; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("set behind the stuck write: err = %v, want context.DeadlineExceeded", err)
			}
		case <-late:
			t.Fatalf("%d of %d sets behind the stuck write still blocked 1s past their 50ms deadline", calls-i, calls)
		}
	}
	if got := client.BufferedBytes(c); got < client.BufKeep || got >= client.BufKeep+frame {
		t.Fatalf("%d bytes wait behind the stuck write, want the bound: at least %d, less than %d",
			got, client.BufKeep, client.BufKeep+frame)
	}

	c.Close()
	peer.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutine leak after Close with a stuck write: %d > %d\n%s",
			n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestFullBufferWaitsForRoom: calls that find the write buffer full
// behind a blocked write wait for room, whether or not their context
// can end, and every one of them completes once the peer reads again.
// A gate in front of the server reads a frame's length prefix and then
// nothing until it opens, so the first request, 6 MiB, blocks its
// write; 300 1 KiB adds then fill the buffer behind it and the rest
// wait.
func TestFullBufferWaitsForRoom(t *testing.T) {
	const calls = 300
	srv, addr := startServer(t, 4, 4, 128)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	started, open := make(chan struct{}), make(chan struct{})
	go func() {
		nc, err := l.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		var hdr [4]byte
		if _, err := io.ReadFull(nc, hdr[:]); err != nil {
			return
		}
		close(started)
		<-open
		bc, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer bc.Close()
		if _, err := bc.Write(hdr[:]); err != nil {
			return
		}
		go io.Copy(nc, bc)
		io.Copy(bc, nc)
	}()
	c := dial(t, l.Addr().String(), client.WithRetries(0))

	go c.Set(context.Background(), 1, make([]uint64, 6<<20/8)) // refused by the server: not 128 words
	<-started
	m := srv.Map()
	cancelable, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		ctx := context.Background()
		if i%2 == 0 {
			ctx = cancelable
		}
		go func() {
			deltas := make([]uint64, 128)
			deltas[0] = 1
			_, err := c.Add(ctx, m.KeyForShard(i%4), deltas)
			errs <- err
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); client.BufferedBytes(c) < client.BufKeep; {
		if time.Now().After(deadline) {
			t.Fatalf("%d bytes wait behind the blocked write after 5s, want the buffer full (%d)",
				client.BufferedBytes(c), client.BufKeep)
		}
		time.Sleep(time.Millisecond)
	}
	close(open)
	for i := 0; i < calls; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("add behind the blocked write: %v", err)
		}
	}
	rows, err := c.SnapshotAtomic(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var adds uint64
	for _, r := range rows {
		adds += r[0]
	}
	if adds != calls {
		t.Fatalf("adds across shards = %d, want %d", adds, calls)
	}
}

// TestOversizedRequestFailsAlone: a request past the frame limit fails
// before any of it is sent, whether or not its context can end, and
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
