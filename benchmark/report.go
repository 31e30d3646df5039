package main

import (
	"fmt"
	"io"
	"math"

	"repro/internal/stats"
)

// endToEnd lists the client-side metrics every workload reports, with the
// bound by which a later commit's median may be worse than its parent's.
// Every time-based bound is the contract's ceiling of 25 %: on this shared
// 2-CPU host the run-to-run spread of the timings is 1-16 % of the median
// when the host is quiet and far more when a neighbour is not (README
// "Steadiness"), so nothing tighter would hold. The allocation pair
// repeats to about 1 % (it moves only with the two classes' share of the
// requests); failed_pct may not rise at all.
var endToEnd = []metricDef{
	{name: "ops_per_s", unit: "1/s", better: higher, bound: 0.25},
	{name: "interactive_ops_per_s", unit: "1/s", better: higher, bound: 0.25},
	{name: "bulk_ops_per_s", unit: "1/s", better: higher, bound: 0.25},
	{name: "interactive_p50_us", unit: "us", better: lower, bound: 0.25},
	{name: "interactive_p99_us", unit: "us", better: lower, bound: 0.25},
	{name: "bulk_p50_us", unit: "us", better: lower, bound: 0.25},
	{name: "bulk_p99_us", unit: "us", better: lower, bound: 0.25},
	{name: "cpu_us_per_op", unit: "us/op", better: lower, bound: 0.25},
	{name: "allocs_per_op", unit: "count/op", better: lower, bound: 0.05},
	{name: "alloc_bytes_per_op", unit: "B/op", better: lower, bound: 0.05},
	{name: "peak_rss_mb", unit: "MB", better: lower, bound: 0.25},
	{name: "failed_pct", unit: "%", better: lower, bound: 0},
	{name: "setup_s", unit: "s", better: lower, bound: 0.25, absFloor: 0.1},
}

// contractMetric reports whether m belongs in BENCHMARK.json's end_to_end
// list. failed_pct does not: the contract wants metrics that are never 0
// and carries failures in the result line's attempted/failed instead.
func contractMetric(m metricDef) bool { return m.name != "failed_pct" }

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func usOf(ns int64) float64 { return float64(ns) / 1e3 }

// endToEndValues computes one pass's value of every end-to-end metric.
func endToEndValues(r *passResult) map[string]float64 {
	secs := r.elapsed.Seconds()
	ops := float64(r.attempted())
	ia, bu := &r.class[interactive], &r.class[bulk]
	return map[string]float64{
		"ops_per_s":             ops / secs,
		"interactive_ops_per_s": float64(ia.attempted) / secs,
		"bulk_ops_per_s":        float64(bu.attempted) / secs,
		"interactive_p50_us":    usOf(stats.ExactPercentile(ia.lat, 50)),
		"interactive_p99_us":    usOf(stats.ExactPercentile(ia.lat, 99)),
		"bulk_p50_us":           usOf(stats.ExactPercentile(bu.lat, 50)),
		"bulk_p99_us":           usOf(stats.ExactPercentile(bu.lat, 99)),
		"cpu_us_per_op":         ratio(float64(r.use.cpu.Microseconds()), ops),
		"allocs_per_op":         ratio(float64(r.use.mallocs), ops),
		"alloc_bytes_per_op":    ratio(float64(r.use.bytes), ops),
		"peak_rss_mb":           r.peakMB,
		"failed_pct":            pct(r.failed(), r.attempted()),
		"setup_s":               r.setup.setupS,
	}
}

// workloadResult is one workload's section of the result file.
type workloadResult struct {
	Name      string              `json:"name"`
	Why       string              `json:"why"`
	Attempted uint64              `json:"attempted"`
	Failed    uint64              `json:"failed"`
	EndToEnd  map[string]repValue `json:"end_to_end"`
	// Samples is the number of latencies behind each class's percentiles,
	// one entry per repetition.
	Samples  map[string][]int       `json:"samples"`
	PerLayer map[string]metricVal   `json:"per_layer,omitempty"`
	Budget   map[string][]budgetRow `json:"latency_budget_us,omitempty"`
}

// metricVal is one reported metric: a value and its unit.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// repFolder folds a workload's repetitions into medians one at a time, so
// a finished repetition's latencies need not stay in memory (a live heap
// that grows with every repetition would move peak_rss_mb).
type repFolder struct {
	wr     *workloadResult
	perRep map[string][]float64
}

func newRepFolder(wl *workload) *repFolder {
	return &repFolder{
		wr:     &workloadResult{Name: wl.name, Why: wl.why, Samples: map[string][]int{}},
		perRep: map[string][]float64{},
	}
}

func (f *repFolder) add(r *passResult) {
	for name, v := range endToEndValues(r) {
		f.perRep[name] = append(f.perRep[name], v)
	}
	f.wr.Attempted += r.attempted()
	f.wr.Failed += r.failed()
	for c, name := range classNames {
		f.wr.Samples[name] = append(f.wr.Samples[name], len(r.class[c].lat))
	}
}

func (f *repFolder) result() *workloadResult {
	f.wr.EndToEnd = make(map[string]repValue, len(endToEnd))
	for _, m := range endToEnd {
		f.wr.EndToEnd[m.name] = summarize(m.unit, f.perRep[m.name])
	}
	return f.wr
}

func boundText(m metricDef) string {
	switch {
	case m.bound == 0:
		return "no increase"
	case m.absFloor > 0:
		return fmt.Sprintf("max(%.0f%%, %g %s)", 100*m.bound, m.absFloor, m.unit)
	default:
		return fmt.Sprintf("%.0f%%", 100*m.bound)
	}
}

// printEndToEnd writes one workload's end-to-end table: every metric by
// name with its unit, median over the repetitions, min and max beside it.
func printEndToEnd(w io.Writer, wr *workloadResult, reps int, durS float64, seed uint64) {
	fmt.Fprintf(w, "\n== %s: end to end, tracing off (median of %d x %.1f s, seed %d) ==\n", wr.Name, reps, durS, seed)
	fmt.Fprintf(w, "   %s\n", wr.Why)
	fmt.Fprintf(w, "  %-24s %-9s %14s %14s %14s  %s\n", "metric", "unit", "median", "min", "max", "regression bound")
	for _, m := range endToEnd {
		v := wr.EndToEnd[m.name]
		fmt.Fprintf(w, "  %-24s %-9s %14.4f %14.4f %14.4f  %s\n", m.name, m.unit, v.Median, v.Min, v.Max, boundText(m))
	}
	for _, class := range classNames {
		ns := wr.Samples[class]
		least := math.MaxInt
		for _, n := range ns {
			least = min(least, n)
		}
		fmt.Fprintf(w, "  samples behind %s p50/p99: %v per repetition (at least %d beyond p99)\n", class, ns, samplesBeyond(least, 99))
	}
	fmt.Fprintf(w, "  requests attempted %d, failed %d\n", wr.Attempted, wr.Failed)
}

// printPerLayer writes the traced run's metrics, layer by layer from the
// outside in (the order perLayer declares them).
func printPerLayer(w io.Writer, name string, vals map[string]metricVal) {
	fmt.Fprintf(w, "\n== %s: per layer, traced run ==\n", name)
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-44s %16.4f %s\n", d.name, vals[d.name].Value, d.unit)
	}
}
