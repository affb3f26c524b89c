package mwllsc

import (
	"mwllsc/internal/shard"
)

// Registry multiplexes an unbounded set of goroutines onto the N process
// slots of a multiword LL/SC object: goroutines Acquire an exclusive
// process id, drive the object through it, and Release it, instead of
// hand-assigning ids. See NewRegistry.
type Registry = shard.Registry

// RegistryStats is a snapshot of registry counters; see Registry.Stats.
type RegistryStats = shard.RegistryStats

// NewRegistry creates a registry over process ids [0, n). Pair it with an
// Object created for the same n: acquire an id, call Object.Handle(id),
// and release when done.
func NewRegistry(n int) (*Registry, error) {
	return shard.NewRegistry(n)
}

// Sharded is a K-shard array of independent N-process W-word LL/SC/VL
// objects keyed by hash, with a shared goroutine registry. Per-key
// operations are linearizable exactly as on a single Object. For
// cross-shard atomicity the map carries a lock-free transaction layer:
// UpdateMulti applies one function atomically to the values of several
// keys in different shards, and SnapshotAtomic returns a cross-shard
// linearizable view of all K shards (Snapshot remains the cheaper,
// per-shard-atomic read). See NewSharded and the internal/shard package
// documentation for the exact guarantee/cost trade-offs.
type Sharded = shard.Map

// ShardedHandle binds a Sharded map to one acquired process id, valid on
// every shard; see Sharded.Acquire.
type ShardedHandle = shard.MapHandle

// ShardedOption configures NewSharded.
type ShardedOption = shard.MapOption

// WithShardedInitial sets every shard's initial value (len must be w;
// default all-zeros).
func WithShardedInitial(v []uint64) ShardedOption {
	return shard.WithInitial(v)
}

// WithShardedSubstrate selects the single-word LL/SC construction each
// shard is built on (default SubstrateTagged).
func WithShardedSubstrate(s Substrate) ShardedOption {
	return shard.WithSubstrate(s)
}

// NewSharded creates a map of k shards, each an n-process w-word LL/SC/VL
// object built by the paper's algorithm. n bounds the number of
// concurrently operating goroutines; additional goroutines park at the
// registry until a slot is released.
func NewSharded(k, n, w int, opts ...ShardedOption) (*Sharded, error) {
	return shard.NewMap(k, n, w, opts...)
}

// HashBytes maps an arbitrary byte-string key onto the uint64 key space
// used by Sharded, for callers whose keys are not already integers.
func HashBytes(key []byte) uint64 { return shard.HashBytes(key) }

// HashUint64 maps an integer key onto the uint64 key space used by
// Sharded (a full-avalanche bijection, so distinct integers never
// collide), for callers whose keys are small or dense integers — no byte
// round-trip through HashBytes needed.
func HashUint64(k uint64) uint64 { return shard.HashUint64(k) }
