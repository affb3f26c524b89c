package fault

import (
	"fmt"
	"os"
	"sync"
	"time"
)

// FilesConfig configures an error-injecting file layer for the
// persistence log. Counters are shared across every file opened by the
// same Files, so "fail after N bytes" means N bytes across all of a
// store's log segments together, the current one and those a checkpoint
// retired — matching how a sick disk fails the whole store, not one
// file. The zero value injects nothing.
type FilesConfig struct {
	// WriteBytesPerSec throttles Writes to this many bytes per second,
	// serialized across every file sharing the Files — a disk with
	// bounded bandwidth. Unlike a per-call seek cost, which batching
	// amortizes, a byte-rate cost is the same per record no matter how
	// records coalesce into writes, so it pins an operation throughput
	// ceiling that concurrency cannot lift — what E16 uses to make
	// overload reproducible across machines. 0 disables.
	WriteBytesPerSec int64
	// SyncLatency is added to every Sync that is not failed by
	// FailFsyncAfter — a slow disk's flush, and the knob that pins a
	// deterministic IO cost regardless of what the host's filesystem
	// actually does (E16 uses it to make fsync-bound capacity
	// reproducible across machines).
	SyncLatency time.Duration
	// FailWriteAfterBytes fails every Write once this many bytes have
	// been written across all files; the write that crosses the
	// threshold persists exactly up to it (a torn record at a known
	// offset). 0 disables.
	FailWriteAfterBytes int64
	// FailFsyncAfter makes every Sync fail (without syncing) after this
	// many Syncs have succeeded across all files. 0 disables.
	FailFsyncAfter int
}

// Files opens real files whose Write/Sync inject the configured
// failures deterministically. A *File satisfies the persist.LogFile
// interface; wire it in with
//
//	ff := fault.NewFiles(cfg)
//	opts.OpenLog = func(path string) (persist.LogFile, error) { return ff.Open(path) }
type Files struct {
	mu       sync.Mutex
	cfg      FilesConfig
	bytes    int64
	syncs    int64
	injected int64
	diskFree time.Time // WriteBytesPerSec pacing: when the modeled disk next idles
}

// NewFiles builds the shared injection state for one store.
func NewFiles(cfg FilesConfig) *Files {
	return &Files{cfg: cfg}
}

// Injected returns how many failures have been injected so far — a
// test's proof the fault actually fired.
func (fs *Files) Injected() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.injected
}

// Open opens path for appending (creating it if needed) behind the
// injection layer.
func (fs *Files) Open(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &File{fs: fs, f: f}, nil
}

// File is one log file behind the injection layer.
type File struct {
	fs *Files
	f  *os.File
}

// Write appends b, injecting configured torn or refused writes.
func (f *File) Write(b []byte) (int, error) {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if r := fs.cfg.WriteBytesPerSec; r > 0 {
		// Virtual-time pacing: advance the disk-free clock by this
		// write's transfer time and sleep until it. Sleeping under the
		// mutex serializes writers like one device; charging a clock
		// instead of sleeping a fixed amount keeps the long-run byte rate
		// exact even when the scheduler overshoots short sleeps — the
		// overshoot leaves the clock in the past and later writes pass
		// without sleeping until the debt is repaid.
		now := time.Now()
		if fs.diskFree.Before(now) {
			fs.diskFree = now
		}
		fs.diskFree = fs.diskFree.Add(time.Duration(int64(len(b)) * int64(time.Second) / r))
		if wait := fs.diskFree.Sub(now); wait > 0 {
			time.Sleep(wait)
		}
	}
	if n := fs.cfg.FailWriteAfterBytes; n > 0 {
		if fs.bytes >= n {
			fs.injected++
			return 0, fmt.Errorf("write refused after %d bytes: %w", n, ErrInjected)
		}
		if fs.bytes+int64(len(b)) > n {
			k := int(n - fs.bytes)
			k, _ = f.f.Write(b[:k])
			fs.bytes += int64(k)
			fs.injected++
			return k, fmt.Errorf("torn write at byte budget %d: %w", n, ErrInjected)
		}
	}
	k, err := f.f.Write(b)
	fs.bytes += int64(k)
	return k, err
}

// Sync fsyncs, or fails without syncing once the budget is spent.
func (f *File) Sync() error {
	fs := f.fs
	fs.mu.Lock()
	if n := fs.cfg.FailFsyncAfter; n > 0 && fs.syncs >= int64(n) {
		fs.injected++
		fs.mu.Unlock()
		return fmt.Errorf("fsync failed after %d rounds: %w", n, ErrInjected)
	}
	fs.syncs++
	fs.mu.Unlock()
	// Sleep outside the lock, so a slow flush does not hold up Write and
	// Injected calls on other files of the same Files.
	if d := fs.cfg.SyncLatency; d > 0 {
		time.Sleep(d)
	}
	return f.f.Sync()
}

// Close closes the underlying file.
func (f *File) Close() error { return f.f.Close() }
