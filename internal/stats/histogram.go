// Package stats provides the measurement substrate shared by the real
// and simulated benchmark engines: HDR-style latency histograms with
// bounded relative error, percentile and CDF extraction, time-series
// recording for adaptivity traces, and per-core-class summaries matching
// the paper's "Big P99 / Little P99 / Overall P99" reporting.
package stats

import (
	"fmt"
	"math/bits"
	"sort"
)

// Histogram is a log-linear histogram of non-negative int64 values
// (latencies in nanoseconds throughout this repository).
//
// Layout: values below 2^b (b = subBucketBits) are stored exactly, one
// bucket per value. Each power-of-two range [2^k, 2^(k+1)) with k >= b
// is divided into 2^(b-1) equal sub-buckets, so every recorded value is
// reproduced with relative error at most 2^(1-b) (~0.8% at the default
// precision) — the same guarantee as the HDR histogram.
//
// Histogram is not safe for concurrent use; each worker records into its
// own histogram and the harness merges them afterwards.
type Histogram struct {
	subBucketBits uint
	counts        []uint64
	total         uint64
	min           int64
	max           int64
}

// DefaultSubBucketBits gives ~0.8% worst-case relative error, more than
// enough to resolve the paper's percentile plots.
const DefaultSubBucketBits = 8

// NewHistogram returns a histogram with the default precision.
func NewHistogram() *Histogram { return NewHistogramBits(DefaultSubBucketBits) }

// NewHistogramBits returns a histogram with exact buckets below
// 2^subBucketBits and 2^(subBucketBits-1) sub-buckets per octave above.
// subBucketBits must be in [2, 16].
func NewHistogramBits(subBucketBits uint) *Histogram {
	if subBucketBits < 2 || subBucketBits > 16 {
		panic(fmt.Sprintf("stats: subBucketBits %d out of range [2,16]", subBucketBits))
	}
	linear := 1 << subBucketBits
	perOctave := 1 << (subBucketBits - 1)
	octaves := 64 - int(subBucketBits) // k = b .. 63
	return &Histogram{
		subBucketBits: subBucketBits,
		counts:        make([]uint64, linear+octaves*perOctave),
		min:           int64(^uint64(0) >> 1),
	}
}

// bucketIndex maps a non-negative value to its bucket index.
func (h *Histogram) bucketIndex(v int64) int {
	b := h.subBucketBits
	u := uint64(v)
	if u < 1<<b {
		return int(u)
	}
	k := uint(63 - bits.LeadingZeros64(u)) // v in [2^k, 2^(k+1)), k >= b
	shift := k - b + 1
	sub := int((u >> shift) & ((1 << (b - 1)) - 1)) // low b-1 bits after removing the leading 1
	return (1 << b) + int(k-b)*(1<<(b-1)) + sub
}

// bucketHigh returns the highest value contained in bucket i. Using the
// highest value (HDR's highestEquivalentValue) means percentiles never
// under-report.
func (h *Histogram) bucketHigh(i int) int64 {
	b := h.subBucketBits
	if i < 1<<b {
		return int64(i)
	}
	rem := i - 1<<b
	perOctave := 1 << (b - 1)
	k := uint(rem/perOctave) + b
	sub := uint64(rem % perOctave)
	shift := k - b + 1
	base := uint64(1)<<(b-1) | sub
	high := base<<shift + 1<<shift - 1
	// The top octave's buckets overflow int64; they can only be reached
	// by values near MaxInt64, so clamp.
	if shift >= 63 || high > uint64(1<<63-1) {
		return int64(^uint64(0) >> 1)
	}
	return int64(high)
}

// Record adds one observation. Negative values are clamped to zero (they
// can arise from clock retrograde on the real engine and are always
// measurement noise).
func (h *Histogram) Record(v int64) { h.RecordN(v, 1) }

// RecordN adds n observations of value v.
func (h *Histogram) RecordN(v int64, n uint64) {
	if n == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[h.bucketIndex(v)] += n
	h.total += n
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Min returns the smallest recorded value, or 0 if empty.
func (h *Histogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value, or 0 if empty.
func (h *Histogram) Max() int64 { return h.max }

// Percentile returns the value at percentile p in [0, 100]. The answer
// is exact for values in the linear region and within the configured
// relative error elsewhere. Returns 0 for an empty histogram.
func (h *Histogram) Percentile(p float64) int64 {
	if h.total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := uint64(p / 100 * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum > rank {
			v := h.bucketHigh(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// P50 and P99 are shorthands for common percentiles.
func (h *Histogram) P50() int64 { return h.Percentile(50) }
func (h *Histogram) P99() int64 { return h.Percentile(99) }

// Merge adds all observations of o into h. Both histograms must have the
// same precision.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.total == 0 {
		return
	}
	if o.subBucketBits != h.subBucketBits {
		panic("stats: merging histograms of different precision")
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

// Reset clears all recorded observations.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.max = 0
	h.min = int64(^uint64(0) >> 1)
}

// CDFPoint is one point of a cumulative distribution: Probability of the
// recorded values are <= Value.
type CDFPoint struct {
	Value       int64
	Probability float64
}

// CDF returns up to maxPoints points of the empirical CDF, suitable for
// the paper's latency-CDF figures (9c, 9f, 9i, 10c, 10f). Points are
// emitted only at occupied buckets so sparse distributions stay sharp.
// maxPoints <= 0 means no downsampling.
func (h *Histogram) CDF(maxPoints int) []CDFPoint {
	if h.total == 0 {
		return nil
	}
	var pts []CDFPoint
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		pts = append(pts, CDFPoint{Value: h.bucketHigh(i), Probability: float64(cum) / float64(h.total)})
	}
	if maxPoints > 1 && len(pts) > maxPoints {
		// Downsample evenly, always keeping the last point (p=1).
		out := make([]CDFPoint, 0, maxPoints)
		step := float64(len(pts)-1) / float64(maxPoints-1)
		for k := 0; k < maxPoints; k++ {
			out = append(out, pts[int(float64(k)*step+0.5)])
		}
		out[len(out)-1] = pts[len(pts)-1]
		return out
	}
	return pts
}

// ExactPercentile computes percentile p of raw samples by sorting; it is
// the oracle used by tests to validate the histogram implementation.
func ExactPercentile(samples []int64, p float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	s := make([]int64, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(p / 100 * float64(len(s)))
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}
