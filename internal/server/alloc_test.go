package server

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"mwllsc/internal/client"
	"mwllsc/internal/shard"
	"mwllsc/internal/wire"
)

// TestHotPathZeroAlloc is the server half of the zero-alloc guarantee
// E13 gates: once a connection's response slots, handle and buffers are
// warm, serving a Read or Update costs no heap allocation.
func TestHotPathZeroAlloc(t *testing.T) {
	allocs, err := HotPathAllocs(200)
	if err != nil {
		t.Fatal(err)
	}
	if allocs.Read != 0 || allocs.Update != 0 {
		t.Errorf("allocs/op: read %v, update %v, want 0 and 0", allocs.Read, allocs.Update)
	}
}

// TestHugeMaxBatchServesWithoutPreallocating pins that a connection's
// batch and response slots follow the batches that arrive, not the
// WithMaxBatch cap: at 208 bytes per slot pair, preallocating a cap of
// 1<<20 would spend 208 MiB on one connection.
func TestHugeMaxBatchServesWithoutPreallocating(t *testing.T) {
	m, err := shard.NewMap(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := New(m, WithMaxBatch(1<<20))
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	defer s.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cl, err := client.Dial(addr.String(), client.WithConns(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Add(context.Background(), 1, []uint64{1, 0}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 16<<20 {
		t.Fatalf("one connection and one Add allocated %d MiB, want under 16 MiB", d>>20)
	}
}

// TestPartialFrameNoStall is the regression test for the batch-drain
// stall: readLoop used to admit any frame whose 4-byte header had
// arrived, so a partially-buffered frame from a slow peer blocked
// ReadFrame mid-batch while fully-executed work sat unanswered. Now a
// frame joins a batch only when its full payload is buffered.
func TestPartialFrameNoStall(t *testing.T) {
	m, err := shard.NewMap(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := New(m)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	defer s.Close()

	c, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// One complete Read frame followed by only the header of a second
	// frame, written together so the server's reader buffers both at
	// once: the stalled server would wait for the second payload before
	// answering the first request.
	full := wire.AppendFrame(nil, wire.AppendRequest(nil, &wire.Request{ID: 1, Op: wire.OpRead, Key: 7}))
	partial := wire.AppendFrame(nil, wire.AppendRequest(nil, &wire.Request{ID: 2, Op: wire.OpRead, Key: 8}))
	split := len(partial) - 3 // header plus a truncated payload
	if _, err := c.Write(append(append([]byte{}, full...), partial[:split]...)); err != nil {
		t.Fatal(err)
	}

	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := newFrameReader(c)
	resp, err := br.next()
	if err != nil {
		t.Fatalf("first response did not arrive while second frame was partial: %v", err)
	}
	if resp.ID != 1 || resp.Status != wire.StatusOK {
		t.Fatalf("first response = id %d status %v, want id 1 ok", resp.ID, resp.Status)
	}

	// Completing the second frame must complete the second request.
	if _, err := c.Write(partial[split:]); err != nil {
		t.Fatal(err)
	}
	resp, err = br.next()
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 2 || resp.Status != wire.StatusOK {
		t.Fatalf("second response = id %d status %v, want id 2 ok", resp.ID, resp.Status)
	}
}

// frameReader decodes response frames off a raw connection.
type frameReader struct {
	c    net.Conn
	buf  []byte
	resp wire.Response
}

func newFrameReader(c net.Conn) *frameReader { return &frameReader{c: c} }

func (r *frameReader) next() (*wire.Response, error) {
	var err error
	r.buf, err = wire.ReadFrame(r.c, r.buf)
	if err != nil {
		return nil, err
	}
	if err := wire.DecodeResponse(&r.resp, r.buf); err != nil {
		return nil, err
	}
	return &r.resp, nil
}

// TestStatsReflectBatching sanity-checks that pipelined traffic still
// lands in batches with the fully-buffered drain rule (the fix must not
// degrade batching to one request per acquisition under a fast writer).
func TestStatsReflectBatching(t *testing.T) {
	m, err := shard.NewMap(4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := New(m)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	defer s.Close()

	cl, err := client.Dial(addr.String(), client.WithConns(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx := context.Background()
	const workers, per = 16, 25
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			deltas := []uint64{1, 0}
			for i := 0; i < per; i++ {
				if _, err := cl.Add(ctx, uint64(g*per+i), deltas); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < workers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Updates != workers*per {
		t.Fatalf("updates = %d, want %d", st.Updates, workers*per)
	}
	if st.Batches >= st.Reqs {
		t.Logf("note: no batching observed (batches=%d reqs=%d)", st.Batches, st.Reqs)
	}
}
