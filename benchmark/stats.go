package main

import (
	"math"
	"sort"
)

// samplesBeyond is the number of samples ranked above the one
// stats.ExactPercentile returns for percentile p of n samples: the guide
// asks for at least ten before a percentile is quoted.
func samplesBeyond(n int, p float64) int {
	return max(n-1-int(p/100*float64(n)), 0)
}

// median returns the median of vals (mean of the middle two when even).
// vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// repValue is one metric of one workload: the per-repetition values and
// the median/min/max the report quotes.
type repValue struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

func summarize(unit string, vals []float64) repValue {
	rv := repValue{Unit: unit, Values: vals, Median: median(vals)}
	if len(vals) > 0 {
		rv.Min, rv.Max = vals[0], vals[0]
		for _, v := range vals[1:] {
			rv.Min = math.Min(rv.Min, v)
			rv.Max = math.Max(rv.Max, v)
		}
	}
	return rv
}

// spread is the repetitions' range as a share of their median.
func (rv repValue) spread() float64 {
	if rv.Median == 0 {
		if rv.Max != rv.Min {
			return math.Inf(1)
		}
		return 0
	}
	return (rv.Max - rv.Min) / math.Abs(rv.Median)
}

// better is the direction a metric improves in.
type better uint8

const (
	lower better = iota
	higher
)

func (b better) String() string {
	if b == higher {
		return "higher"
	}
	return "lower"
}

// metricDef declares one end-to-end metric: its unit, direction, and the
// bound by which a later commit's median may be worse than its parent's
// before the change counts as a regression. absFloor widens the bound to
// an absolute amount for metrics whose median is small (setup_s).
type metricDef struct {
	name     string
	unit     string
	better   better
	bound    float64
	absFloor float64
}

// worseBy is how much b is worse than a, as a share of a (negative when b
// is better), and the allowance the definition grants at that baseline.
func (m metricDef) worseBy(a, b float64) (share, allowed float64) {
	diff := b - a
	if m.better == higher {
		diff = a - b
	}
	allowed = m.bound
	if a != 0 {
		share = diff / math.Abs(a)
		if m.absFloor > 0 {
			allowed = math.Max(allowed, m.absFloor/math.Abs(a))
		}
	} else if diff > 0 {
		share = math.Inf(1)
	}
	return share, allowed
}

// verdict classifies b against a: worse beyond the allowance is "worse";
// otherwise a spread wider than the allowance on either side cannot show
// the metric held, so it is "unresolved" rather than "within-bound".
func (m metricDef) verdict(a, b repValue) string {
	share, allowed := m.worseBy(a.Median, b.Median)
	switch {
	case share > allowed:
		return "worse"
	case math.Max(a.spread(), b.spread()) > allowed:
		return "unresolved"
	default:
		return "within-bound"
	}
}
