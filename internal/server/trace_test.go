package server_test

import (
	"bufio"
	"net"
	"path/filepath"
	"testing"
	"time"

	"mwllsc/internal/persist"
	"mwllsc/internal/server"
	"mwllsc/internal/shard"
	"mwllsc/internal/trace"
	"mwllsc/internal/wire"
)

// rawConn speaks the wire protocol directly — the trace tests exercise
// the request suffix at the frame level rather than through
// internal/client, so a client-side regression cannot mask a server one.
type rawConn struct {
	t    *testing.T
	c    net.Conn
	br   *bufio.Reader
	buf  []byte
	resp wire.Response
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawConn{t: t, c: c, br: bufio.NewReader(c)}
}

func (rc *rawConn) roundTrip(req *wire.Request) *wire.Response {
	rc.t.Helper()
	payload := wire.AppendRequest(nil, req)
	if err := wire.WriteFrame(rc.c, payload); err != nil {
		rc.t.Fatal(err)
	}
	var err error
	rc.buf, err = wire.ReadFrame(rc.br, rc.buf)
	if err != nil {
		rc.t.Fatal(err)
	}
	if err := wire.DecodeResponse(&rc.resp, rc.buf); err != nil {
		rc.t.Fatal(err)
	}
	return &rc.resp
}

// startTracedServer runs a server with a durability store (SyncAlways,
// so the persist and fsync stages are real) and the given tracer.
func startTracedServer(t *testing.T, tr *trace.Tracer) string {
	t.Helper()
	m, err := shard.NewMap(4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := persist.Open(filepath.Join(t.TempDir(), "data"), m,
		persist.Options{Policy: persist.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(m, server.WithPersist(st), server.WithTracer(tr))
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	t.Cleanup(func() {
		s.Close()
		st.Close()
	})
	return addr.String()
}

// waitRetired polls until the tracer has retired at least n spans
// (retirement happens after the write that carries the response, so it
// can trail the client's read).
func waitRetired(t *testing.T, tr *trace.Tracer, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for tr.Stats().Retired < n {
		if time.Now().After(deadline) {
			t.Fatalf("tracer retired %d spans, want >= %d", tr.Stats().Retired, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTracedRequestRoundTrip is the tracer's integration test: a
// wire-flagged update comes back with the server's stage breakdown, the
// retired span appears in the recent and slow rings, and its stage sum
// equals its recorded total (exact by construction — each stage closes
// where the next opens).
func TestTracedRequestRoundTrip(t *testing.T) {
	tr := trace.New(trace.Config{SlowN: 8, Recent: 16})
	addr := startTracedServer(t, tr)
	rc := dialRaw(t, addr)

	const traceID = 0x0123456789abcdef
	resp := rc.roundTrip(&wire.Request{
		ID: 1, Op: wire.OpUpdate, Mode: wire.ModeAdd, Key: 7,
		Args: []uint64{5, 6}, Traced: true, TraceID: traceID,
	})
	if resp.Status != wire.StatusOK {
		t.Fatalf("traced update: %v %s", resp.Status, resp.Err)
	}
	if !resp.Traced || resp.TraceID != traceID {
		t.Fatalf("response trace fields: traced=%v id=%x", resp.Traced, resp.TraceID)
	}
	if len(resp.Stages) != trace.WireStages {
		t.Fatalf("response carries %d stages, want %d", len(resp.Stages), trace.WireStages)
	}
	wireStages := append([]uint64(nil), resp.Stages...) // resp is reused below

	// An untraced request on the same connection must not echo a suffix.
	if resp := rc.roundTrip(&wire.Request{ID: 2, Op: wire.OpPing}); resp.Traced {
		t.Fatal("untraced request came back with a trace suffix")
	}

	waitRetired(t, tr, 1)
	var span *trace.Span
	for _, s := range tr.Recent(nil, 0) {
		if s.TraceID == traceID {
			span = &s
			break
		}
	}
	if span == nil {
		t.Fatalf("trace %x not in recent ring: %+v", traceID, tr.Recent(nil, 0))
	}
	if span.Sampled || span.Err || span.Op != uint8(wire.OpUpdate) || span.Key != 7 {
		t.Fatalf("span fields: %+v", span)
	}
	if span.Attempts < 1 || span.Batch < 1 {
		t.Fatalf("span attempts=%d batch=%d, want >= 1", span.Attempts, span.Batch)
	}

	if span.Total == 0 {
		t.Fatal("span total is zero")
	}
	checkStageSum(t, span)
	// Persist ran under SyncAlways: the persist stage window is real.
	if span.Stages[trace.StagePersist]+span.Stages[trace.StageFsync] == 0 {
		t.Fatalf("persist+fsync stages zero under SyncAlways: %+v", span.Stages)
	}
	// The wire echo is the same breakdown, minus the not-yet-known flush.
	for i := 0; i < trace.WireStages; i++ {
		if wireStages[i] != span.Stages[i] {
			t.Fatalf("wire stage %d = %d, span records %d", i, wireStages[i], span.Stages[i])
		}
	}

	// The slow ring keeps it too (no threshold: slowest-N of the window).
	slow := tr.Slow(nil)
	found := false
	for _, s := range slow {
		if s.TraceID == traceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace %x not in slow window: %+v", traceID, slow)
	}
}

// TestHeadSampling: with -trace-sample 4 the server traces every 4th
// request per connection on its own initiative, generating ids; the
// client sees no suffix on those responses.
func TestHeadSampling(t *testing.T) {
	tr := trace.New(trace.Config{SampleN: 4, Recent: 64})
	addr := startTracedServer(t, tr)
	rc := dialRaw(t, addr)

	const reqs = 16
	for i := 0; i < reqs; i++ {
		resp := rc.roundTrip(&wire.Request{ID: uint64(i), Op: wire.OpRead, Key: uint64(i)})
		if resp.Status != wire.StatusOK {
			t.Fatalf("read %d: %v %s", i, resp.Status, resp.Err)
		}
		if resp.Traced {
			t.Fatal("head-sampled request echoed a trace suffix")
		}
	}
	waitRetired(t, tr, reqs/4)
	spans := tr.Recent(nil, 0)
	if len(spans) != reqs/4 {
		t.Fatalf("recent ring holds %d spans, want %d (1-in-4 of %d)", len(spans), reqs/4, reqs)
	}
	ids := make(map[uint64]bool)
	for _, s := range spans {
		if !s.Sampled {
			t.Fatalf("head-sampled span not marked Sampled: %+v", s)
		}
		if s.TraceID == 0 || ids[s.TraceID] {
			t.Fatalf("generated trace ids not unique/nonzero: %+v", spans)
		}
		ids[s.TraceID] = true
		checkStageSum(t, &s)
	}
}

// checkStageSum requires span's stages to add up to its total exactly.
func checkStageSum(t *testing.T, span *trace.Span) {
	t.Helper()
	var sum uint64
	for _, d := range span.Stages {
		sum += d
	}
	if sum != span.Total {
		t.Fatalf("span %016x: stage sum %d != total %d (stages %v)", span.TraceID, sum, span.Total, span.Stages)
	}
}

// TestTracerOffNoSpans: with sampling off and no wire flags, nothing is
// traced — the configuration E13 holds at zero allocations and E14's
// idle arm prices.
func TestTracerOffNoSpans(t *testing.T) {
	tr := trace.New(trace.Config{})
	addr := startTracedServer(t, tr)
	rc := dialRaw(t, addr)
	for i := 0; i < 8; i++ {
		rc.roundTrip(&wire.Request{ID: uint64(i), Op: wire.OpRead, Key: uint64(i)})
	}
	if st := tr.Stats(); st.Retired != 0 {
		t.Fatalf("tracer stats %+v with sampling off and no flags", st)
	}
}

// TestDefaultServerRecordsAndTraces: a server built with no options has
// its histograms and its tracer, so a flagged request comes back with
// its stages and Stats reports a service latency.
func TestDefaultServerRecordsAndTraces(t *testing.T) {
	m, err := shard.NewMap(4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(m)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	t.Cleanup(func() { s.Close() })
	rc := dialRaw(t, addr.String())

	resp := rc.roundTrip(&wire.Request{ID: 1, Op: wire.OpRead, Key: 3, Traced: true, TraceID: 0xfeed})
	if resp.Status != wire.StatusOK || !resp.Traced || resp.TraceID != 0xfeed || len(resp.Stages) != trace.WireStages {
		t.Fatalf("flagged read on a default server: status %v traced %v id %x stages %v",
			resp.Status, resp.Traced, resp.TraceID, resp.Stages)
	}
	for i := 2; i <= 8; i++ {
		rc.roundTrip(&wire.Request{ID: uint64(i), Op: wire.OpRead, Key: uint64(i)})
	}
	if st := s.Stats(); st.LatP50 == 0 {
		t.Fatalf("default server reports LatP50 = 0 after 8 requests: %+v", st)
	}
	waitRetired(t, s.Tracer(), 1)
}
