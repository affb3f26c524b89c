package obs

import (
	"math"
	"math/bits"
)

// NumBuckets is the fixed bucket count of every Histogram: bucket 0
// holds exactly the value 0 and bucket b (1..64) holds values v with
// bits.Len64(v) == b, i.e. the half-open power-of-two range
// [2^(b-1), 2^b). Log bucketing costs one bits.Len64 per observation,
// needs no configuration, and bounds the relative quantile error at
// 2x — plenty for latency distributions whose interesting structure
// spans six decades.
const NumBuckets = 65

// Histogram is a lock-free log-bucketed histogram kept in a Counters
// bank of NumBuckets+1 counters per stripe: the bucket counts, then
// the sum of observed values. Concurrent Observe calls from different
// registry slots therefore never share a cache line. Observe is two
// atomic adds and allocates nothing.
type Histogram struct {
	bank *Counters
}

// NewHistogram builds a histogram with the given stripe count
// (raised to 1 if below).
func NewHistogram(stripes int) *Histogram {
	return &Histogram{bank: NewCounters(stripes, NumBuckets+1)}
}

// Stripes returns the number of stripes.
func (h *Histogram) Stripes() int { return h.bank.Stripes() }

// Observe records one value on the given stripe. Out-of-range
// stripes fall back to stripe 0.
func (h *Histogram) Observe(stripe int, v uint64) { h.ObserveN(stripe, v, 1) }

// ObserveN records n identical observations of v in one pair of
// atomic adds — the batch executor stamps time once per batch and
// attributes the window to every request in it.
func (h *Histogram) ObserveN(stripe int, v, n uint64) {
	h.bank.Add(stripe, bits.Len64(v), n)
	h.bank.Add(stripe, NumBuckets, v*n)
}

// HistSnapshot is a point-in-time cross-stripe fold of a Histogram —
// a value type so taking one allocates nothing.
type HistSnapshot struct {
	// Count is the total number of observations.
	Count uint64
	// Sum is the sum of all observed values.
	Sum uint64
	// Buckets[b] counts observations v with bits.Len64(v) == b.
	Buckets [NumBuckets]uint64
}

// Snapshot folds every stripe into one snapshot. Concurrent writers
// may land between bucket loads; the snapshot is a consistent-enough
// monitoring view, not a linearizable one.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	h.bank.Sums(s.Buckets[:])
	s.Sum = h.bank.Sum(NumBuckets)
	for _, c := range s.Buckets {
		s.Count += c
	}
	return s
}

// BucketBound returns the largest value bucket b can hold: 0 for
// bucket 0, 2^b-1 for 1..63, and MaxUint64 for bucket 64.
func BucketBound(b int) uint64 {
	switch {
	case b <= 0:
		return 0
	case b >= 64:
		return math.MaxUint64
	default:
		return 1<<uint(b) - 1
	}
}

// Quantile estimates the q-th quantile (0 <= q <= 1) by locating the
// bucket holding the rank and interpolating linearly inside its
// power-of-two range. Returns 0 for an empty snapshot.
func (s *HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for b := 0; b < NumBuckets; b++ {
		n := float64(s.Buckets[b])
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			if b == 0 {
				return 0
			}
			lo := float64(uint64(1) << uint(b-1))
			hi := float64(BucketBound(b))
			frac := (rank - cum) / n
			return lo + frac*(hi-lo)
		}
		cum += n
	}
	return float64(BucketBound(NumBuckets - 1))
}

// Mean returns the average observed value, 0 when empty.
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
