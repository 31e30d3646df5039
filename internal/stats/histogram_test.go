package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/prng"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.P99() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram should report zeros: count=%d p99=%d", h.Count(), h.P99())
	}
	if h.CDF(10) != nil {
		t.Fatal("empty histogram CDF should be nil")
	}
}

func TestHistogramExactInLinearRegion(t *testing.T) {
	h := NewHistogram()
	for i := int64(0); i < 256; i++ {
		h.Record(i)
	}
	if got := h.Percentile(0); got != 0 {
		t.Errorf("P0 = %d, want 0", got)
	}
	if got := h.Percentile(50); got != 128 {
		t.Errorf("P50 = %d, want 128", got)
	}
	if got := h.Percentile(100); got != 255 {
		t.Errorf("P100 = %d, want 255", got)
	}
	if h.Min() != 0 || h.Max() != 255 {
		t.Errorf("min/max = %d/%d, want 0/255", h.Min(), h.Max())
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram()
	h.RecordN(123456789, 1000)
	for _, p := range []float64{0, 50, 99, 99.9, 100} {
		got := h.Percentile(p)
		if relErr(got, 123456789) > 0.01 {
			t.Errorf("P%.1f = %d, want ~123456789", p, got)
		}
	}
	if h.Count() != 1000 {
		t.Errorf("count = %d, want 1000", h.Count())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Errorf("negative value should clamp to 0: min=%d max=%d", h.Min(), h.Max())
	}
}

func relErr(got, want int64) float64 {
	if want == 0 {
		return math.Abs(float64(got))
	}
	return math.Abs(float64(got-want)) / float64(want)
}

// TestHistogramVsOracle checks percentiles against a sort-based oracle
// on a variety of distributions.
func TestHistogramVsOracle(t *testing.T) {
	rng := prng.NewXoshiro256(42)
	distros := map[string]func() int64{
		"uniform": func() int64 { return int64(prng.Uint64n(rng, 1_000_000)) },
		"small":   func() int64 { return int64(prng.Uint64n(rng, 100)) },
		"heavy":   func() int64 { return int64(float64(prng.Uint64n(rng, 1000)) * (-500 * math.Log(1-prng.Float64(rng)))) },
		"bimodal": func() int64 {
			if prng.Bool(rng, 0.9) {
				return int64(prng.Uint64n(rng, 1000))
			}
			return 1_000_000 + int64(prng.Uint64n(rng, 1_000_000))
		},
	}
	for name, gen := range distros {
		h := NewHistogram()
		samples := make([]int64, 0, 20000)
		for i := 0; i < 20000; i++ {
			v := gen()
			h.Record(v)
			samples = append(samples, v)
		}
		for _, p := range []float64{1, 25, 50, 75, 90, 99, 99.9} {
			got := h.Percentile(p)
			want := ExactPercentile(samples, p)
			// The histogram may round up to the end of a bucket; allow
			// its relative error bound (~0.8%) plus rank slack of one
			// sample value at sparse tails.
			if want > 0 && relErr(got, want) > 0.02 && absDiff(got, want) > 2 {
				t.Errorf("%s: P%v = %d, oracle %d (relErr %.4f)", name, p, got, want, relErr(got, want))
			}
		}
	}
}

func absDiff(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

// TestHistogramBucketRoundTrip property: every value lands in a bucket
// whose representative is within the precision bound.
func TestHistogramBucketRoundTrip(t *testing.T) {
	h := NewHistogram()
	f := func(v int64) bool {
		if v < 0 {
			v = -v
		}
		idx := h.bucketIndex(v)
		if idx < 0 || idx >= len(h.counts) {
			return false
		}
		hi := h.bucketHigh(idx)
		if hi < v {
			return false // representative must not under-report
		}
		return relErr(hi, v) <= 1.0/128+1e-9 || hi-v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramBucketMonotone property: bucketHigh is non-decreasing in
// the bucket index, so percentile extraction is order-correct.
func TestHistogramBucketMonotone(t *testing.T) {
	h := NewHistogram()
	prev := int64(-1)
	for i := 0; i < len(h.counts); i++ {
		hi := h.bucketHigh(i)
		if hi < prev {
			t.Fatalf("bucketHigh not monotone at %d: %d < %d", i, hi, prev)
		}
		prev = hi
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	rng := prng.NewSplitMix64(7)
	all := NewHistogram()
	for i := 0; i < 10000; i++ {
		v := int64(prng.Uint64n(rng, 1<<20))
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		all.Record(v)
	}
	a.Merge(b)
	if a.Count() != all.Count() {
		t.Fatalf("merged count %d != %d", a.Count(), all.Count())
	}
	for _, p := range []float64{50, 90, 99} {
		if a.Percentile(p) != all.Percentile(p) {
			t.Errorf("P%v: merged %d != direct %d", p, a.Percentile(p), all.Percentile(p))
		}
	}
	if a.Min() != all.Min() || a.Max() != all.Max() {
		t.Errorf("merged min/max mismatch")
	}
}

func TestHistogramMergePrecisionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on precision mismatch")
		}
	}()
	a := NewHistogramBits(8)
	b := NewHistogramBits(10)
	b.Record(1)
	a.Merge(b)
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(100)
	h.Reset()
	if h.Count() != 0 || h.P99() != 0 {
		t.Fatal("reset did not clear")
	}
	h.Record(7)
	if h.P99() != 7 || h.Count() != 1 {
		t.Fatal("histogram unusable after reset")
	}
}

func TestCDF(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 100; i++ {
		h.Record(i)
	}
	pts := h.CDF(0)
	if len(pts) != 100 {
		t.Fatalf("expected 100 CDF points, got %d", len(pts))
	}
	last := pts[len(pts)-1]
	if last.Probability != 1.0 {
		t.Errorf("final CDF probability = %v, want 1", last.Probability)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Probability < pts[i-1].Probability || pts[i].Value < pts[i-1].Value {
			t.Fatalf("CDF not monotone at %d", i)
		}
	}
	down := h.CDF(10)
	if len(down) != 10 {
		t.Fatalf("downsampled CDF has %d points, want 10", len(down))
	}
	if down[len(down)-1].Probability != 1.0 {
		t.Error("downsampled CDF must end at p=1")
	}
}

func TestHistogramQuickPercentileOrder(t *testing.T) {
	// Property: percentiles are monotone in p.
	f := func(seed uint64) bool {
		rng := prng.NewSplitMix64(seed)
		h := NewHistogram()
		for i := 0; i < 500; i++ {
			h.Record(int64(prng.Uint64n(rng, 1<<30)))
		}
		prev := int64(0)
		for p := 0.0; p <= 100; p += 5 {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
