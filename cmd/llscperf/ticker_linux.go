package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// ticker fires every period on a timerfd read through Go's network
// poller. An idle Go runtime waits for its next timer in epoll_wait,
// whose timeout is whole milliseconds, so a time.Ticker at the 250 µs
// burst period fires up to a millisecond late, and an open loop charges
// that lateness to every arrival as latency. The kernel's timer makes the
// fd readable on time and wakes the poller directly. Pacing the pipelined
// workload with time.Ticker instead measured a generator lag of p50
// 519–531 µs and p99 1.1–1.4 ms over three runs; with this ticker,
// back to back on the same 2-vCPU host, p50 26–35 µs and p99 135–519 µs.
type ticker struct {
	f     *os.File
	start time.Time // tick k is due at start + k·period
	buf   [8]byte
}

func newTicker(period time.Duration) (*ticker, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, 0o4000, 0o2000000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// struct itimerspec: interval, then first expiry.
	ts := syscall.NsecToTimespec(int64(period))
	spec := [2]syscall.Timespec{ts, ts}
	start := time.Now()
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		syscall.Close(int(fd))
		return nil, fmt.Errorf("timerfd_settime: %w", errno)
	}
	return &ticker{f: os.NewFile(fd, "timerfd"), start: start}, nil
}

// wait blocks until the next tick and returns how many periods have
// ended since the previous wait.
func (t *ticker) wait() (uint64, error) {
	if _, err := t.f.Read(t.buf[:]); err != nil {
		return 0, err
	}
	return binary.NativeEndian.Uint64(t.buf[:]), nil
}

func (t *ticker) stop() { t.f.Close() }
