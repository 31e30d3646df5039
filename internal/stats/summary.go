package stats

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
)

// Class aliases the core-class type so recorders and the LibASL library
// share one notion of big/little. The paper reports Big P99, Little P99
// and Overall P99 for every experiment, so class-segregated recording
// is built into the substrate.
type Class = core.Class

// Big and Little re-export the class constants for brevity at call
// sites that otherwise would not import internal/core.
const (
	Big    = core.Big
	Little = core.Little
)

const numClasses = 2

// ClassedRecorder accumulates latencies split by core class plus an
// overall view, and counts completed operations for throughput. It is
// not safe for concurrent use; use one per worker and Merge.
type ClassedRecorder struct {
	perClass [numClasses]*Histogram
	overall  *Histogram
	ops      [numClasses]uint64
}

// NewClassedRecorder returns an empty recorder.
func NewClassedRecorder() *ClassedRecorder {
	r := &ClassedRecorder{overall: NewHistogram()}
	for i := range r.perClass {
		r.perClass[i] = NewHistogram()
	}
	return r
}

// Record adds one completed operation of the given class with the given
// latency in nanoseconds.
func (r *ClassedRecorder) Record(c Class, latencyNs int64) {
	r.RecordBatch(c, latencyNs, 1)
}

// RecordBatch adds one completed batched request that covered ops
// operations: one latency sample (the request's), ops counted toward
// throughput. Keeps batched rows in the same ops/s unit as point rows
// while P99 stays per request.
func (r *ClassedRecorder) RecordBatch(c Class, latencyNs int64, ops uint64) {
	r.perClass[c].Record(latencyNs)
	r.overall.Record(latencyNs)
	r.ops[c] += ops
}

// Merge folds o into r.
func (r *ClassedRecorder) Merge(o *ClassedRecorder) {
	if o == nil {
		return
	}
	for i := range r.perClass {
		r.perClass[i].Merge(o.perClass[i])
		r.ops[i] += o.ops[i]
	}
	r.overall.Merge(o.overall)
}

// Ops returns the number of completed operations of class c.
func (r *ClassedRecorder) Ops(c Class) uint64 { return r.ops[c] }

// TotalOps returns the number of completed operations across classes.
func (r *ClassedRecorder) TotalOps() uint64 {
	var t uint64
	for _, n := range r.ops {
		t += n
	}
	return t
}

// Overall returns the merged histogram across classes.
func (r *ClassedRecorder) Overall() *Histogram { return r.overall }

// ByClass returns the histogram for class c.
func (r *ClassedRecorder) ByClass(c Class) *Histogram { return r.perClass[c] }

// Summary is the per-experiment result row used throughout the harness:
// it matches the bar groups of the paper's comparison figures.
type Summary struct {
	Name       string
	Throughput float64 // operations (or epochs) per second
	BigP99     int64   // ns
	LittleP99  int64   // ns
	OverallP99 int64   // ns
	BigOps     uint64
	LittleOps  uint64
}

// Summarize converts a recorder plus the covered duration into a
// Summary row.
func (r *ClassedRecorder) Summarize(name string, elapsed time.Duration) Summary {
	sec := elapsed.Seconds()
	var thr float64
	if sec > 0 {
		thr = float64(r.TotalOps()) / sec
	}
	return Summary{
		Name:       name,
		Throughput: thr,
		BigP99:     r.perClass[Big].P99(),
		LittleP99:  r.perClass[Little].P99(),
		OverallP99: r.overall.P99(),
		BigOps:     r.ops[Big],
		LittleOps:  r.ops[Little],
	}
}

// String renders the summary as one aligned line.
func (s Summary) String() string {
	return fmt.Sprintf("%-14s thr=%11.0f ops/s  bigP99=%9s littleP99=%9s overallP99=%9s  (big=%d little=%d)",
		s.Name, s.Throughput,
		time.Duration(s.BigP99), time.Duration(s.LittleP99), time.Duration(s.OverallP99),
		s.BigOps, s.LittleOps)
}

// FormatSummaries renders rows as an aligned table with a header,
// mirroring the layout of the paper's comparison figures. The name
// column is as wide as the longest name (at least 14).
func FormatSummaries(rows []Summary) string {
	nameW := 14
	for _, s := range rows {
		nameW = max(nameW, len(s.Name))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s %14s %12s %12s %12s %10s %10s\n",
		nameW, "lock", "thr(ops/s)", "bigP99", "littleP99", "overallP99", "bigOps", "littleOps")
	for _, s := range rows {
		fmt.Fprintf(&b, "%-*s %14.0f %12s %12s %12s %10d %10d\n",
			nameW, s.Name, s.Throughput,
			time.Duration(s.BigP99), time.Duration(s.LittleP99), time.Duration(s.OverallP99),
			s.BigOps, s.LittleOps)
	}
	return b.String()
}
