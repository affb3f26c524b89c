package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// exactQuantile is the nearest-rank quantile of sorted values.
func exactQuantile(sorted []time.Duration, q float64) float64 {
	return float64(sorted[int(math.Ceil(q*float64(len(sorted))))-1])
}

func TestHistQuantilesWithinOnePercent(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for _, tc := range []struct {
		name string
		draw func() time.Duration
	}{
		// Log-uniform over 300 ns .. 30 ms: the span the workloads cover.
		{"log-uniform", func() time.Duration { return time.Duration(300 * math.Exp(r.Float64()*math.Log(1e5))) }},
		// A tight cluster, where a coarse histogram would put p50 and p99
		// in one bucket.
		{"narrow", func() time.Duration { return time.Duration(10_000 + r.IntN(400)) }},
		{"bimodal", func() time.Duration {
			if r.IntN(100) < 97 {
				return time.Duration(20_000 + r.IntN(5_000))
			}
			return time.Duration(900_000 + r.IntN(200_000))
		}},
	} {
		var h hist
		vals := make([]time.Duration, 100_000)
		for i := range vals {
			vals[i] = tc.draw()
			h.observe(vals[i])
		}
		slices.Sort(vals)
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			exact, got := exactQuantile(vals, q), h.quantile(q)
			if rel := math.Abs(got-exact) / exact; rel > 0.01 {
				t.Errorf("%s p%g = %.0f ns, exact %.0f ns: %.2f%% off", tc.name, 100*q, got, exact, 100*rel)
			}
		}
	}
}

func TestHistBucketsCoverValues(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for range 100_000 {
		v := r.Uint64N(1 << histMaxBits)
		if r.IntN(2) == 0 {
			v = r.Uint64N(1 << 12)
		}
		low, width := bucketRange(bucketOf(v))
		if v < low || v >= low+width {
			t.Fatalf("value %d in bucket [%d, %d)", v, low, low+width)
		}
		if v >= 1<<(histSub+1) && width*(1<<histSub) > low {
			t.Fatalf("bucket [%d, +%d) wider than 1/%d of its bound", low, width, 1<<histSub)
		}
	}
	if b := bucketOf(1 << 62); b != histTop {
		t.Errorf("huge value in bucket %d, want the top %d", b, histTop)
	}
}

func TestHistMergeAndFailures(t *testing.T) {
	var a, b, both hist
	for i := range 1000 {
		d := time.Duration(1000 + i)
		if i%2 == 0 {
			a.observe(d)
		} else {
			b.observe(d)
		}
		both.observe(d)
	}
	a.merge(&b)
	if a != both {
		t.Fatal("merging two halves differs from observing everything")
	}
	// 2% failures: the median holds, the p99 misses every limit.
	for range 20 {
		a.fail()
	}
	if p99 := a.quantile(0.99); !math.IsInf(p99, 1) {
		t.Errorf("p99 with 2%% failures = %v, want +Inf", p99)
	}
	if p50 := a.quantile(0.5); p50 > 1600 {
		t.Errorf("p50 with 2%% failures = %v, want about 1500", p50)
	}
	var empty hist
	if !math.IsNaN(empty.quantile(0.5)) {
		t.Error("empty histogram quantile is a number")
	}
}

func TestHistObserveDoesNotAllocate(t *testing.T) {
	h := new(hist)
	d := time.Duration(1)
	if n := testing.AllocsPerRun(1000, func() {
		d = d*3 + 7
		h.observe(d % time.Second)
	}); n != 0 {
		t.Errorf("observe allocates %v times per call", n)
	}
}
