package main

import (
	"bytes"
	"context"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"mwllsc/internal/client"
)

// syncBuf is a goroutine-safe bytes.Buffer: the daemon writes it from
// its own goroutine while the test polls it.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var addrRE = regexp.MustCompile(`on (127\.0\.0\.1:\d+)`)

// startDaemon runs the daemon on a free port and returns its address
// and a shutdown func that delivers the signal and waits for exit.
func startDaemon(t *testing.T, extra ...string) (addr string, out *syncBuf, shutdown func() int) {
	t.Helper()
	stop := make(chan os.Signal, 1)
	out, errOut := &syncBuf{}, &syncBuf{}
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	exit := make(chan int, 1)
	go func() { exit <- run(args, stop, out, errOut) }()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := addrRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported an address\nstdout: %s\nstderr: %s", out, errOut)
		}
		time.Sleep(time.Millisecond)
	}
	return addr, out, func() int {
		stop <- os.Interrupt
		select {
		case code := <-exit:
			return code
		case <-time.After(5 * time.Second):
			t.Fatal("daemon did not exit on signal")
			return -1
		}
	}
}

func TestRunServeAndGracefulShutdown(t *testing.T) {
	addr, out, shutdown := startDaemon(t, "-shards", "4", "-slots", "4", "-words", "2")
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Add(ctx, 7, []uint64{3, 4}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 4 || st.Words != 2 {
		t.Fatalf("daemon geometry %+v, want K=4 W=2", st)
	}
	c.Close()
	if code := shutdown(); code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	if s := out.String(); !strings.Contains(s, "shutting down") || !strings.Contains(s, "served") {
		t.Fatalf("shutdown log missing from:\n%s", s)
	}
}

func TestRunBadFlag(t *testing.T) {
	if code := run([]string{"-nope"}, nil, &syncBuf{}, &syncBuf{}); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

func TestRunBadImpl(t *testing.T) {
	if code := run([]string{"-impl", "nonexistent"}, nil, &syncBuf{}, &syncBuf{}); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
}

func TestRunRejectsOversizeGeometry(t *testing.T) {
	// A snapshot of this geometry could never fit one wire frame.
	if code := run([]string{"-shards", "2000000", "-words", "1"}, nil, &syncBuf{}, &syncBuf{}); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

func TestRunBadAddr(t *testing.T) {
	if code := run([]string{"-addr", "256.256.256.256:1"}, nil, &syncBuf{}, &syncBuf{}); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
}
