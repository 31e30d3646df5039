package main

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestSamplesBeyondMatchesExactPercentile(t *testing.T) {
	var s []int64
	for i := int64(1); i <= 1000; i++ {
		s = append(s, i)
	}
	for _, p := range []float64{50, 99, 99.9} {
		got := stats.ExactPercentile(s, p)
		if beyond := samplesBeyond(len(s), p); int64(beyond) != 1000-got {
			t.Errorf("p%v of 1..1000 is %d, so %d samples lie beyond it; samplesBeyond says %d", p, got, 1000-got, beyond)
		}
	}
	if got := samplesBeyond(0, 99); got != 0 {
		t.Errorf("samplesBeyond of nothing = %d, want 0", got)
	}
}

func TestMedianOfReps(t *testing.T) {
	for _, tc := range []struct {
		vals []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5}, 5},
		{nil, 0},
	} {
		if got := median(tc.vals); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.vals, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	rv := summarize("us", in)
	if rv.Median != 2 || rv.Min != 1 || rv.Max != 3 {
		t.Errorf("summarize = %+v, want median 2 min 1 max 3", rv)
	}
	if in[0] != 3 {
		t.Error("summarize reordered its input")
	}
	if got := rv.spread(); got != 1 {
		t.Errorf("spread = %v, want (3-1)/2 = 1", got)
	}
}

func TestBoundArithmetic(t *testing.T) {
	lat := metricDef{name: "lat", better: lower, bound: 0.10}
	rate := metricDef{name: "rate", better: higher, bound: 0.10}
	setup := metricDef{name: "setup_s", better: lower, bound: 0.10, absFloor: 0.1}
	none := metricDef{name: "failed_pct", better: lower, bound: 0}
	steady := func(v float64) repValue { return summarize("", []float64{v, v, v}) }
	noisy := func(v float64) repValue { return summarize("", []float64{v * 0.8, v, v * 1.2}) }

	for _, tc := range []struct {
		name string
		m    metricDef
		a, b repValue
		want string
	}{
		{"lower-is-better up 20 %", lat, steady(100), steady(120), "worse"},
		{"lower-is-better up 5 %", lat, steady(100), steady(105), "within-bound"},
		{"lower-is-better down 50 %", lat, steady(100), steady(50), "within-bound"},
		{"higher-is-better down 20 %", rate, steady(100), steady(80), "worse"},
		{"higher-is-better up 20 %", rate, steady(100), steady(120), "within-bound"},
		{"spread wider than the bound", lat, noisy(100), steady(101), "unresolved"},
		{"worse stays worse under noise", lat, noisy(100), steady(150), "worse"},
		{"absolute floor widens a small median", setup, steady(0.2), steady(0.29), "within-bound"},
		{"absolute floor exceeded", setup, steady(0.2), steady(0.31), "worse"},
		{"relative bound rules a large median", setup, steady(5), steady(5.6), "worse"},
		{"no-increase metric unchanged", none, steady(0), steady(0), "within-bound"},
		{"no-increase metric rises from zero", none, steady(0), steady(0.01), "worse"},
	} {
		if got := tc.m.verdict(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	if share, _ := rate.worseBy(200, 150); math.Abs(share-0.25) > 1e-12 {
		t.Errorf("worseBy(200 -> 150, higher is better) = %v, want 0.25", share)
	}
}
