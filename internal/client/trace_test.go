package client_test

import (
	"context"
	"net"
	"testing"
	"time"

	"mwllsc/internal/client"
	"mwllsc/internal/server"
	"mwllsc/internal/trace"
	"mwllsc/internal/wire"
)

func TestWithTraceFillsClientAndServerStages(t *testing.T) {
	tr := trace.New(trace.Config{Recent: 16, SlowN: 4})
	_, addr := startServer(t, 4, 3, 2, server.WithTracer(tr))
	c := dial(t, addr)

	var ct client.Trace
	got, err := c.Add(client.WithTrace(context.Background(), &ct), 7, []uint64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 4 {
		t.Fatalf("traced add returned %v", got)
	}
	if ct.ID == 0 {
		t.Fatal("client did not generate a trace id")
	}
	if ct.Total <= 0 || ct.RoundTrip <= 0 {
		t.Fatalf("client stages not stamped: %+v", ct)
	}
	if ct.QueueWait < 0 || ct.QueueWait+ct.RoundTrip > ct.Total+time.Millisecond {
		t.Fatalf("client stage decomposition inconsistent: %+v", ct)
	}
	if len(ct.ServerStages) != trace.WireStages {
		t.Fatalf("server echoed %d stages, want %d", len(ct.ServerStages), trace.WireStages)
	}

	// The server retired the span under the client's id.
	deadline := time.Now().Add(5 * time.Second)
	for {
		found := false
		for _, s := range tr.Recent(nil, 0) {
			if s.TraceID == ct.ID {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %x never reached the server's recent ring", ct.ID)
		}
		time.Sleep(time.Millisecond)
	}

	// A caller-chosen id rides through unchanged.
	ct2 := client.Trace{ID: 0xc0ffee}
	if _, err := c.Read(client.WithTrace(context.Background(), &ct2), 7); err != nil {
		t.Fatal(err)
	}
	if ct2.ID != 0xc0ffee {
		t.Fatalf("caller trace id rewritten to %x", ct2.ID)
	}

	// Untraced calls on the same client leave no new span behind. Wait
	// for the two traced spans to retire first (retirement trails the
	// client's read of the response), then hold the count steady.
	deadline = time.Now().Add(5 * time.Second)
	for tr.Stats().Retired < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("retired %d spans, want 2", tr.Stats().Retired)
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.Read(context.Background(), 7); err != nil {
			t.Fatal(err)
		}
	}
	// One more traced call fences the pipeline: by the time its span
	// retires, any span the untraced reads had wrongly produced would
	// have retired too.
	var ct3 client.Trace
	if _, err := c.Read(client.WithTrace(context.Background(), &ct3), 7); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for tr.Stats().Retired < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("retired %d spans, want 3", tr.Stats().Retired)
		}
		time.Sleep(time.Millisecond)
	}
	if got := tr.Stats().Retired; got != 3 {
		t.Fatalf("untraced reads produced spans: retired = %d, want 3", got)
	}
}

func TestWithTraceAgainstTracerlessServer(t *testing.T) {
	// A traced call against a server that answers OK without a trace
	// suffix still succeeds: the client just has no server breakdown to
	// fill in.
	addr, _ := multiServer(t, func(nc net.Conn, req *wire.Request) {
		respondStatus(nc, req.ID, wire.StatusOK, "")
	})
	c := dial(t, addr)
	var ct client.Trace
	if _, err := c.Add(client.WithTrace(context.Background(), &ct), 1, []uint64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if len(ct.ServerStages) != 0 {
		t.Fatalf("tracerless server echoed stages: %+v", ct)
	}
	if ct.Total <= 0 {
		t.Fatalf("client stages not stamped: %+v", ct)
	}
}
