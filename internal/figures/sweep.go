package figures

import (
	"repro/internal/harness"
	"repro/internal/stats"
)

// SLOSweep is the profiling tool of §3.1: "a latency-throughput graph
// ... generated by automatically iterating different SLO settings
// inside a given SLO range." It runs the workload config builds for
// each of points evenly spaced SLOs in [lo, hi] ns, both ends included
// (just lo when points < 2 or hi <= lo), and returns the graph Fig. 8b
// and the variant-SLOs panels of Figs. 9/10 plot: big-, little- and
// overall-class epoch P99 and throughput against the SLO in µs.
func SLOSweep(id, title string, config func(sloNs int64) MicroConfig, lo, hi int64, points int) *harness.Figure {
	f := &harness.Figure{
		ID:     id,
		Title:  title,
		XLabel: "slo(us)",
		YLabel: "p99(ns) / throughput(ops/s)",
	}
	big := harness.Series{Name: "big-p99"}
	little := harness.Series{Name: "little-p99"}
	overall := harness.Series{Name: "overall-p99"}
	thr := harness.Series{Name: "throughput"}
	for _, slo := range sloRange(lo, hi, points) {
		r := RunMicro(config(slo))
		x := float64(slo) / float64(microsecond)
		big.Add(x, float64(r.Epochs.ByClass(stats.Big).P99()))
		little.Add(x, float64(r.Epochs.ByClass(stats.Little).P99()))
		overall.Add(x, float64(r.Epochs.Overall().P99()))
		thr.Add(x, r.Throughput)
	}
	f.Series = append(f.Series, big, little, overall, thr)
	return f
}

// sloRange returns n evenly spaced SLOs in [lo, hi], rounded to the
// nanosecond, inclusive of both endpoints: the x-axis of a sweep.
func sloRange(lo, hi int64, n int) []int64 {
	if n <= 1 || hi <= lo {
		return []int64{lo}
	}
	out := make([]int64, 0, n)
	step := float64(hi-lo) / float64(n-1)
	for i := 0; i < n; i++ {
		out = append(out, lo+int64(float64(i)*step+0.5))
	}
	return out
}
