package fault

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
)

// Faults configures one direction (read or write) of a wrapped
// connection. The zero value injects nothing.
type Faults struct {
	// PartialEvery splits every Nth Write into two separate underlying
	// writes at a seeded split point, so the peer observes the frame in
	// fragments (exercising its short-read reassembly). The data still
	// arrives complete; only its arrival pattern changes. Reads are
	// unaffected. 0 disables.
	PartialEvery int
	// CutAfterBytes resets the connection (RST, via SO_LINGER 0 on TCP)
	// once this many bytes have crossed this direction. 0 disables.
	CutAfterBytes int64
	// CutAtFrame defers the CutAfterBytes reset to the first
	// length-prefixed frame boundary at or after the byte threshold, so
	// the peer sees a whole number of frames and then a dead connection
	// — the "request arrived, response never did" ambiguity — instead of
	// a torn frame.
	CutAtFrame bool
}

// frameTracker follows a stream of length-prefixed frames (uint32
// little-endian length, then payload — the wire package's framing) so
// cuts can be aligned to frame boundaries.
type frameTracker struct {
	hdr    [4]byte
	hdrN   int
	remain int
}

// feed advances the tracker over b.
func (t *frameTracker) feed(b []byte) {
	for len(b) > 0 {
		if t.hdrN < 4 {
			k := min(4-t.hdrN, len(b))
			copy(t.hdr[t.hdrN:], b[:k])
			t.hdrN += k
			b = b[k:]
			if t.hdrN == 4 {
				t.remain = int(binary.LittleEndian.Uint32(t.hdr[:]))
				if t.remain == 0 {
					t.hdrN = 0
				}
			}
			continue
		}
		k := min(t.remain, len(b))
		t.remain -= k
		b = b[k:]
		if t.remain == 0 {
			t.hdrN = 0
		}
	}
}

// atBoundary reports whether the stream sits exactly between frames.
func (t *frameTracker) atBoundary() bool { return t.hdrN == 0 }

// until returns how many more bytes may pass without crossing the next
// frame boundary (the rest of the header if it is mid-header, else the
// rest of the payload).
func (t *frameTracker) until() int {
	if t.hdrN < 4 {
		return 4 - t.hdrN
	}
	return t.remain
}

// side is the per-direction state of a wrapped connection.
type side struct {
	mu  sync.Mutex
	f   Faults
	rng rng
	n   int64 // bytes so far in this direction
	ops int64
	ft  frameTracker
}

// Conn wraps a net.Conn with independently configured read-side and
// write-side faults. It assumes the usual one-reader/one-writer
// discipline (concurrent Reads, or concurrent Writes, serialize on an
// internal lock).
type Conn struct {
	net.Conn
	rd  side
	wr  side
	cut atomic.Bool
}

// Wrap wraps nc; seed makes every partial-write split point
// reproducible.
func Wrap(nc net.Conn, seed uint64, read, write Faults) *Conn {
	c := &Conn{Conn: nc}
	c.rd.f, c.wr.f = read, write
	c.wr.rng = rng{s: seed ^ 0xa5a5a5a5a5a5a5a5}
	return c
}

// doCut marks the connection dead and forces an abortive close — a real
// RST on TCP, so the peer's next read fails instead of seeing EOF after
// a tidy FIN.
func (c *Conn) doCut() {
	c.cut.Store(true)
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Conn.Close()
}

// Read applies read-side faults, then reads from the wrapped conn.
func (c *Conn) Read(b []byte) (int, error) {
	s := &c.rd
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.cut.Load() {
		return 0, ErrCut
	}
	if s.f.CutAfterBytes > 0 {
		if s.n >= s.f.CutAfterBytes && (!s.f.CutAtFrame || s.ft.atBoundary()) {
			c.doCut()
			return 0, ErrCut
		}
		if s.f.CutAtFrame {
			if u := s.ft.until(); u > 0 && u < len(b) {
				b = b[:u]
			}
		} else if rest := s.f.CutAfterBytes - s.n; rest < int64(len(b)) {
			b = b[:rest]
		}
	}
	k, err := c.Conn.Read(b)
	s.n += int64(k)
	if s.f.CutAtFrame {
		s.ft.feed(b[:k])
	}
	return k, err
}

// Write applies write-side faults, then writes to the wrapped conn.
func (c *Conn) Write(b []byte) (n int, err error) {
	s := &c.wr
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.cut.Load() {
		return 0, ErrCut
	}
	s.ops++
	partial := s.f.PartialEvery > 0 && s.ops%int64(s.f.PartialEvery) == 0
	for len(b) > 0 {
		chunk := b
		if s.f.CutAfterBytes > 0 {
			if s.n >= s.f.CutAfterBytes && (!s.f.CutAtFrame || s.ft.atBoundary()) {
				c.doCut()
				return n, ErrCut
			}
			if s.f.CutAtFrame {
				// Cap each underlying write at the current frame's end so
				// the loop revisits the cut condition exactly on every
				// boundary.
				if u := s.ft.until(); u > 0 && u < len(chunk) {
					chunk = chunk[:u]
				}
			} else if rest := s.f.CutAfterBytes - s.n; rest < int64(len(chunk)) {
				chunk = chunk[:rest]
			}
		}
		if partial && len(chunk) > 1 {
			chunk = chunk[:1+int(s.rng.next()%uint64(len(chunk)-1))]
			partial = false
		}
		k, werr := c.Conn.Write(chunk)
		s.n += int64(k)
		if s.f.CutAtFrame {
			s.ft.feed(chunk[:k])
		}
		n += k
		if werr != nil {
			return n, werr
		}
		b = b[k:]
		if s.f.CutAfterBytes > 0 && s.n >= s.f.CutAfterBytes &&
			(!s.f.CutAtFrame || s.ft.atBoundary()) {
			c.doCut()
			return n, ErrCut
		}
	}
	return n, nil
}
