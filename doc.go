// Package mwllsc provides wait-free, linearizable multiword (W-word)
// Load-Linked / Store-Conditional / Validate shared variables for N
// processes, implementing the algorithm of Jayanti & Petrovic, "Efficient
// Wait-Free Implementation of Multiword LL/SC Variables" (Dartmouth
// TR2004-523 / ICDCS 2005).
//
// An LL/SC variable generalizes compare-and-swap without the ABA problem:
// LL returns the variable's value, and a subsequent SC(v) by the same
// process writes v iff no other successful SC happened in between. Any
// atomic read-modify-write on a W-word value is then a three-step recipe:
//
//	h := obj.Handle(p)
//	v := make([]uint64, obj.W())
//	for {
//		h.LL(v)          // read
//		transform(v)     // modify locally
//		if h.SC(v) {     // write iff unchanged
//			break
//		}
//	}
//
// Every LL and SC completes in O(W) steps and every VL in O(1) steps
// regardless of what other processes do (wait-freedom) — there are no locks
// and no unbounded retry loops inside the library. The whole variable costs
// O(NW) words of shared memory, a factor N less than the previous best
// construction, and performs no allocation on the steady-state path.
//
// # Process model
//
// The object is created for a fixed number of processes N; each process id
// p in [0,N) may be driven by at most one goroutine at a time (the id *is*
// the identity the wait-freedom and helping guarantees attach to). Obtain a
// Handle per process and keep it on that process's goroutine.
//
// # Scaling beyond N goroutines: the handle registry
//
// Goroutines are cheap and unbounded; process ids are neither. A Registry
// (NewRegistry) multiplexes any number of goroutines onto the N slots:
// Acquire checks out an exclusive id (parking until a Release when all
// are taken), Release returns it. Inside an acquired slot every
// operation keeps the paper's per-process guarantees; the only waiting
// is for a slot itself, which is inherent — the object has exactly N
// identities. Releasing an id that is not checked out (double release,
// fabricated id) panics rather than silently aliasing two goroutines onto
// one process; a stale release racing a re-acquire of the same id cannot
// be detected, so release each id exactly once — Sharded handles enforce
// this per handle.
//
// # Scaling beyond one object: sharding
//
// A single object serializes all successful SCs through one memory word,
// so its aggregate update rate is bounded no matter how many cores are
// available. Sharded (NewSharded) spreads keys by hash over K independent
// objects that share one registry: an acquired id is valid on every
// shard, per-key operations stay linearizable exactly as on a single
// object, and updates to different shards proceed without interfering.
// Sharded.Snapshot reads all K shards with per-shard LL + VL
// revalidation: each shard's value is individually atomic (each LL already
// is; the VL pass re-reads shards that changed mid-snapshot, trading
// wait-freedom for freshness), but the K values are not cross-shard
// linearizable. Words that must always move together still belong in one
// shard (that keeps them on the per-key fast path); when values in
// different shards must change or be observed together, use the
// cross-shard transactions below instead of giving up the sharding. The
// E8/E9 experiments (cmd/llscbench) quantify the throughput gain vs K and
// the registry's overhead.
//
// # Cross-shard atomic transactions
//
// Sharded carries a lock-free transaction layer (internal/txn) that
// restores multi-word composability across shards:
//
//	h.UpdateMulti(keys, f)   // one f applied atomically to all keys' shards
//	m.SnapshotAtomic(dst)    // all K shard values from one instant
//
// UpdateMulti runs as a descriptor-based two-phase commit built from the
// same LL/SC/VL primitives: collect the target values, publish a
// descriptor, lock the target shards in ascending index order (a CAS on
// a per-shard lock word plus a value-sealing SC), commit, release. Any
// process that
// encounters a mid-commit transaction helps it finish, so a stalled (or
// crashed) writer never blocks others — the layer is lock-free, though
// not wait-free like per-key operations. SnapshotAtomic first tries
// optimistic double collects (LL all shards, then VL all shards; if
// nothing moved in between, the values form a consistent cut) and falls
// back to the descriptor path under sustained writes. Cost model: a
// per-key Update pays one LL/SC round on one shard; UpdateMulti pays two
// rounds (lock + release) on each distinct target shard plus the
// descriptor publish; Snapshot pays ~2K shard reads; SnapshotAtomic pays
// the same per attempt, times the retries a write-heavy load induces. The
// E10 experiment (cmd/llscbench) quantifies transaction throughput vs
// key-span and conflict rate.
//
// # Serving: the networked layer
//
// The serving layer (internal/wire, internal/server, internal/client;
// daemon cmd/llscd) exposes a Sharded map over TCP, so processes that
// are not linked against the map can still operate on it:
//
//	c, _ := mwllsc.Dial("127.0.0.1:7787", mwllsc.WithClientConns(4))
//	v, _ := c.Add(ctx, key, []uint64{1, 0})   // remote multiword fetch-and-add
//	rows, _ := c.SnapshotAtomic(ctx)          // remote linearizable snapshot
//
// The wire protocol is a compact length-prefixed binary format with
// request ids for pipelining: many requests ride one connection
// concurrently and are matched to their responses by id. The server
// gathers each connection's pipelined requests into batches, each
// executed in arrival order through a single registry acquisition; the
// client coalesces concurrent callers' requests into few syscalls with
// no explicit batch API. Because closures do not travel, remote updates
// are declarative: word-wise Add (wrapping) or Set, single- or
// multi-key.
//
// The consistency contract is the in-process one, unchanged. Client.Add,
// Client.Set and Client.Read are linearizable on the key's shard exactly
// like MapHandle.Update/Read; AddMulti/SetMulti are one cross-shard
// atomic commit (the transaction layer above); Client.Snapshot is
// per-shard atomic; Client.SnapshotAtomic is cross-shard linearizable.
// Batching never reorders one connection's operations. A server can
// also be embedded in-process (NewServer) and the map used locally at
// the same time — both sides share one registry and one linearizable
// history. The benchmark (cmd/llscperf, workloads rpc and pipelined)
// measures the served round trip over loopback, and cmd/llscload drives
// a closed loop against any address. The wire protocol is specified in
// docs/WIRE.md.
//
// # Durability
//
// Run cmd/llscd with -dir and the map survives restarts: every
// committed remote update is appended to one append-only log
// (internal/persist) after it commits in memory and before its response
// is flushed, and startup recovers the latest checkpoint plus the log,
// folded per shard in commit order. Because remote updates are declarative
// (Add/Set merges — closures never enter the log), records are
// replayable by construction; a commit sequence number captured inside
// each update's merge callback preserves same-shard commit order
// without adding any synchronization to the lock-free hot path.
//
// The durability contract is set by -fsync. Under "always" a response
// is withheld until a group-commit fsync covers its record, so no
// acknowledged write is ever lost — not even to SIGKILL or power loss;
// "everysec" bounds machine-crash loss to about a second; "none" leaves
// flushing to the OS. Under every policy a *process* crash loses no
// acknowledged write, recovery repairs torn log tails (truncate at the
// first CRC failure) and never invents writes, and the recovered map is
// a state the live map actually passed through — per-key
// linearizability and cross-shard transaction atomicity carry over to
// what a restart observes. Checkpoints are cross-shard-atomic
// (SnapshotAtomic through an identity transaction) with a sequence
// watermark, rewritten atomically, and safe against a crash at any
// step. Operational details — flags, per-policy guarantees, sizing,
// disaster recovery — live in docs/OPERATIONS.md; the E12 experiment
// (cmd/llscbench -e e12) prices the fsync-policy spectrum.
//
// # Observability
//
// The serving daemon is instrumented without giving back what the
// zero-allocation hot path bought (internal/obs). Request counters
// are striped by registry slot across 128-byte-aligned stripes — the
// batch executor bumps only the cache lines of the slot it already
// holds, so no shared line is written per request — and latency is
// recorded in lock-free log-bucketed histograms (service latency,
// batch size, update attempts, persistence append and fsync times)
// whose quantiles are exact to within a factor of two. With -admin
// the daemon serves Prometheus text on /metrics, a JSON quantile
// snapshot on /statsz, a liveness probe on /healthz and the Go
// profiler under /debug/pprof/; the Stats wire opcode (Client.Stats)
// carries the same counter totals plus p50/p99/p999 service latency
// and fsync p99 as optional trailing words old clients ignore. Every
// surface folds the same striped banks, so they never disagree. Every
// server keeps its histograms and its tracer: cmd/llscperf's served
// workloads gate what they cost, the E13 allocation gate holds them at
// zero allocations, and the E14 experiment (cmd/llscbench -e e14)
// prices head sampling. The metric catalog and design notes live in
// docs/OBSERVABILITY.md.
//
// # Substrates
//
// The paper assumes hardware single-word LL/SC. On Go's sync/atomic this
// library offers two equivalent realizations: SubstrateTagged (default;
// value+unique-tag packed in one word, zero allocation, astronomically
// bounded tag space) and SubstratePtr (pointer-to-immutable-cell, exact and
// unbounded, one small allocation per mutation). The E5 experiment
// (cmd/llscbench -e e5) quantifies the trade-off.
//
// The paper's buffers need only be safe registers: a read that overlaps a
// write may return anything. On amd64 (without -race) they are plain
// words copied with one memmove, which x86's TSO order makes sound; the
// argument is in internal/mem/copy_plain.go. Every other build, -race
// included, copies them word by word through sync/atomic. The AM-style
// baseline's buffers follow the same rule, so E1 and E3 compare like with
// like.
package mwllsc
