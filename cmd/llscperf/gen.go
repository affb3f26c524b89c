package main

import "math/rand/v2"

// class is an operation class; every workload draws from the same four.
type class uint8

const (
	opUpdate   class = iota // Update / Add: +1 on word 0 of one key
	opRead                  // Read of one key
	opMulti                 // UpdateMulti / AddMulti: +1 on word 1 of two distinct keys
	opSnapshot              // SnapshotAtomic of every shard
	nClass
)

var classNames = [nClass]string{"update", "read", "multi", "snapshot"}

// keySpace is the number of distinct keys a workload draws from.
const keySpace = 1 << 20

// zipfS is the skew of the Zipf key distribution.
const zipfS = 1.1

// mix gives each class's share of the operations, in percent.
type mix [nClass]uint32

// op is one generated operation.
type op struct {
	class     class
	key, key2 uint64
}

// gen produces one worker's operation stream. The stream depends only on
// the seed and the worker index, so a seed names the exact inputs.
type gen struct {
	r    *rand.Rand
	zipf *rand.Zipf // nil: keys uniform over keySpace
	mix  mix
}

func newGen(seed uint64, worker int, m mix, zipf bool) *gen {
	g := &gen{r: rand.New(rand.NewPCG(seed, uint64(worker)+1)), mix: m}
	if zipf {
		g.zipf = rand.NewZipf(g.r, zipfS, 1, keySpace-1)
	}
	return g
}

func (g *gen) key() uint64 {
	if g.zipf != nil {
		return g.zipf.Uint64()
	}
	return g.r.Uint64N(keySpace)
}

func (g *gen) next() op {
	x := g.r.Uint32N(100)
	c := class(0)
	for x >= g.mix[c] {
		x -= g.mix[c]
		c++
	}
	o := op{class: c}
	switch c {
	case opUpdate, opRead:
		o.key = g.key()
	case opMulti:
		o.key = g.key()
		for o.key2 = g.key(); o.key2 == o.key; o.key2 = g.key() {
		}
	}
	return o
}
