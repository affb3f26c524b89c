package fault

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// frame builds a length-prefixed frame with n payload bytes.
func frame(n int) []byte {
	b := make([]byte, 4+n)
	binary.LittleEndian.PutUint32(b, uint32(n))
	for i := 0; i < n; i++ {
		b[4+i] = byte(i)
	}
	return b
}

func TestFrameTracker(t *testing.T) {
	var ft frameTracker
	stream := append(append(frame(8), frame(3)...), frame(0)...)
	// Feed one byte at a time; boundaries must appear exactly after each
	// frame, nowhere else.
	wantBoundary := map[int]bool{12: true, 19: true, 23: true}
	for i := range stream {
		ft.feed(stream[i : i+1])
		if got, want := ft.atBoundary(), wantBoundary[i+1] || i+1 == 0; got != want {
			t.Fatalf("after %d bytes: atBoundary=%v want %v", i+1, got, want)
		}
	}
	if ft.until() != 4 {
		t.Fatalf("until at boundary = %d, want 4 (next header)", ft.until())
	}
}

// tcpPair returns two ends of a real loopback TCP connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		server, _ = ln.Accept()
		close(done)
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if server == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestConnCutAtFrameBoundary(t *testing.T) {
	client, server := tcpPair(t)
	// Threshold lands mid-frame (5 of a 12-byte frame); the cut must
	// wait for the boundary so the peer sees exactly one whole frame.
	fc := Wrap(client, 1, Faults{}, Faults{CutAfterBytes: 5, CutAtFrame: true})
	var got bytes.Buffer
	var rerr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, rerr = io.Copy(&got, server)
	}()
	payload := append(frame(8), frame(8)...)
	n, err := fc.Write(payload)
	if !errors.Is(err, ErrCut) || !errors.Is(err, ErrInjected) {
		t.Fatalf("Write = %d, %v; want ErrCut wrapping ErrInjected", n, err)
	}
	if n != 12 {
		t.Fatalf("wrote %d bytes before cut, want exactly one frame (12)", n)
	}
	<-done
	if rerr == nil {
		t.Fatalf("peer read ended cleanly; want a reset error")
	}
	if !bytes.Equal(got.Bytes(), frame(8)) {
		t.Fatalf("peer received %d bytes, want exactly the first frame (12)", got.Len())
	}
	if _, err := fc.Write([]byte("x")); !errors.Is(err, ErrCut) {
		t.Fatalf("post-cut Write err = %v, want ErrCut", err)
	}
}

func TestConnCutAfterBytes(t *testing.T) {
	client, server := tcpPair(t)
	fc := Wrap(client, 2, Faults{}, Faults{CutAfterBytes: 6})
	var got bytes.Buffer
	done := make(chan struct{})
	go func() { defer close(done); io.Copy(&got, server) }()
	n, err := fc.Write(make([]byte, 64))
	if !errors.Is(err, ErrCut) {
		t.Fatalf("Write = %d, %v; want ErrCut", n, err)
	}
	if n != 6 {
		t.Fatalf("wrote %d bytes before cut, want 6", n)
	}
	<-done
	if got.Len() != 6 {
		t.Fatalf("peer received %d bytes, want 6", got.Len())
	}
}

// chunkRecorder records the size of every underlying Write.
type chunkRecorder struct {
	net.Conn
	mu     sync.Mutex
	chunks []int
}

func (r *chunkRecorder) Write(b []byte) (int, error) {
	r.mu.Lock()
	r.chunks = append(r.chunks, len(b))
	r.mu.Unlock()
	return r.Conn.Write(b)
}

func TestConnPartialWriteDeterminism(t *testing.T) {
	run := func(seed uint64) ([]int, []byte) {
		client, server := tcpPair(t)
		rec := &chunkRecorder{Conn: client}
		fc := Wrap(rec, seed, Faults{}, Faults{PartialEvery: 1})
		var got bytes.Buffer
		done := make(chan struct{})
		go func() { defer close(done); io.Copy(&got, server) }()
		payload := append(frame(32), frame(16)...)
		if _, err := fc.Write(payload); err != nil {
			t.Fatalf("Write: %v", err)
		}
		fc.Close()
		<-done
		return rec.chunks, got.Bytes()
	}
	c1, b1 := run(42)
	c2, b2 := run(42)
	if len(c1) < 2 {
		t.Fatalf("PartialEvery=1 produced %d chunks, want a split (>=2)", len(c1))
	}
	want := append(frame(32), frame(16)...)
	if !bytes.Equal(b1, want) || !bytes.Equal(b2, want) {
		t.Fatalf("partial writes corrupted the stream")
	}
	if len(c1) != len(c2) {
		t.Fatalf("same seed, different chunking: %v vs %v", c1, c2)
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("same seed, different chunking: %v vs %v", c1, c2)
		}
	}
}

func TestFilesTornAndRefusedWrites(t *testing.T) {
	dir := t.TempDir()
	ff := NewFiles(FilesConfig{FailWriteAfterBytes: 25})
	f, err := ff.Open(filepath.Join(dir, "log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	chunk := make([]byte, 10)
	for i := 0; i < 2; i++ {
		if n, err := f.Write(chunk); n != 10 || err != nil {
			t.Fatalf("write %d: n=%d err=%v", i, n, err)
		}
	}
	n, err := f.Write(chunk) // crosses the 25-byte budget at offset 20
	if n != 5 || !errors.Is(err, ErrInjected) {
		t.Fatalf("crossing write: n=%d err=%v; want torn write of 5 wrapping ErrInjected", n, err)
	}
	if n, err := f.Write(chunk); n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("post-budget write: n=%d err=%v; want full refusal", n, err)
	}
	st, err := os.Stat(filepath.Join(dir, "log"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 25 {
		t.Fatalf("file size %d, want exactly the 25-byte budget", st.Size())
	}
	if ff.Injected() != 2 {
		t.Fatalf("Injected() = %d, want 2", ff.Injected())
	}
}

func TestFilesFsyncBudget(t *testing.T) {
	dir := t.TempDir()
	ff := NewFiles(FilesConfig{FailFsyncAfter: 2})
	f, err := ff.Open(filepath.Join(dir, "log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 2; i++ {
		if err := f.Sync(); err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := f.Sync(); !errors.Is(err, ErrInjected) {
			t.Fatalf("sync after budget: %v; want ErrInjected (sticky)", err)
		}
	}
}

// echoServer accepts and echoes until its listener closes.
func echoServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(c, c); c.Close() }()
		}
	}()
	return ln.Addr().String()
}

func TestProxyForwardDropReject(t *testing.T) {
	target := echoServer(t)
	p, err := NewProxy(target, 9, Faults{}, Faults{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	roundtrip := func(c net.Conn) error {
		if _, err := c.Write([]byte("ping")); err != nil {
			return err
		}
		buf := make([]byte, 4)
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		_, err := io.ReadFull(c, buf)
		return err
	}

	c1, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := roundtrip(c1); err != nil {
		t.Fatalf("echo through proxy: %v", err)
	}

	p.DropAll()
	c1.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c1.Read(make([]byte, 1)); err == nil {
		t.Fatal("read on dropped conn succeeded; want error")
	}

	c2, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := roundtrip(c2); err != nil {
		t.Fatalf("echo after DropAll: %v", err)
	}
	if p.Accepted() != 2 {
		t.Fatalf("Accepted() = %d, want 2", p.Accepted())
	}

	p.SetReject(true)
	c3, err := net.Dial("tcp", p.Addr())
	if err == nil {
		defer c3.Close()
		c3.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := c3.Read(make([]byte, 1)); err == nil {
			t.Fatal("rejected conn served a read; want immediate close")
		}
	}
}
