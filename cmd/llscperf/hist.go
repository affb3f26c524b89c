package main

import (
	"math"
	"math/bits"
	"time"
)

// Histogram geometry: values below 2^(histSub+1) ns get one bucket each;
// above that every power of two is split into 2^histSub equal buckets, so
// a bucket is never wider than 1/128 of its lower bound. Values at or
// above 2^histMaxBits ns (about 18 minutes) share the top bucket, which is
// also where failed operations are recorded: a failure misses every
// latency limit.
const (
	histSub     = 7
	histMaxBits = 40
	histBuckets = (histMaxBits-histSub-1)<<histSub + 1<<(histSub+1)
	histTop     = histBuckets - 1
)

// hist is a log-linear latency histogram in nanoseconds. Quantiles are
// accurate to one bucket width: within 1/128 (0.8%) relative error above
// 256 ns and within 1 ns below. Observing never allocates. A hist has one
// owner; workers keep their own and merge them after the window.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

func bucketOf(v uint64) int {
	if v >= 1<<histMaxBits {
		return histTop
	}
	if v < 1<<(histSub+1) {
		return int(v)
	}
	s := bits.Len64(v) - histSub - 1 // v>>s lies in [2^histSub, 2^(histSub+1))
	return s<<histSub + int(v>>s)
}

// bucketRange returns bucket b's lower bound and width.
func bucketRange(b int) (low, width uint64) {
	if b < 1<<(histSub+1) {
		return uint64(b), 1
	}
	s := b>>histSub - 1
	return uint64(b-s<<histSub) << s, 1 << s
}

func (h *hist) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(uint64(d))]++
	h.n++
}

// fail records a failed operation: it counts against every latency limit.
func (h *hist) fail() {
	h.counts[histTop]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the nearest-rank q-quantile in nanoseconds, placing
// the rank within its bucket by linear interpolation. It returns NaN for
// an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	rank = max(1, min(rank, h.n))
	var seen uint64
	for b, c := range h.counts {
		if c == 0 || seen+c < rank {
			seen += c
			continue
		}
		if b == histTop {
			return math.Inf(1)
		}
		low, width := bucketRange(b)
		return float64(low) + (float64(rank-seen)-0.5)/float64(c)*float64(width)
	}
	return math.Inf(1)
}
