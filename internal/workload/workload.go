// Package workload provides the building blocks of the paper's
// micro-benchmarks for the real (non-simulated) engine: contended
// cache-line read-modify-write critical sections, calibrated NOP-style
// delay loops, and the asymmetry shim that makes a symmetric host
// behave like an AMP (little-class workers execute proportionally more
// work per logical unit — see AsymmetryShim).
package workload

import (
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// CacheLine is one padded cache line of shared state.
type CacheLine struct {
	v atomic.Uint64
	_ [120]byte
}

// SharedLines is the contended array the critical sections mutate,
// mirroring the paper's "read-modify-write N shared cache lines".
type SharedLines struct {
	lines []CacheLine
}

// NewSharedLines allocates n shared lines.
func NewSharedLines(n int) *SharedLines {
	return &SharedLines{lines: make([]CacheLine, n)}
}

// Len returns the number of lines.
func (s *SharedLines) Len() int { return len(s.lines) }

// RMW read-modify-writes lines [0, n); callers must hold the protecting
// lock — the operations are atomic only so the race detector stays
// quiet if a test misuses the harness, not for correctness.
func (s *SharedLines) RMW(n int) {
	if n > len(s.lines) {
		n = len(s.lines)
	}
	for i := 0; i < n; i++ {
		s.lines[i].v.Store(s.lines[i].v.Load() + 1)
	}
}

// Sum returns the sum of all lines (used by tests to check no lost
// updates).
func (s *SharedLines) Sum() uint64 {
	var t uint64
	for i := range s.lines {
		t += s.lines[i].v.Load()
	}
	return t
}

// Spin burns approximately n units of calibrated CPU work (the paper's
// NOP loops). The unit is one pass of a small arithmetic loop; use
// Calibrate to convert between units and wall time on this host.
func Spin(n int64) {
	var sink uint64 = 0x9e3779b9
	for i := int64(0); i < n; i++ {
		sink ^= sink << 13
		sink ^= sink >> 7
		sink ^= sink << 17
	}
	spinSink.Store(sink)
}

// spinSink defeats dead-code elimination of Spin.
var spinSink atomic.Uint64

// Calibration reports how long one Spin unit takes on this host.
type Calibration struct {
	NsPerUnit float64
}

// Calibrate measures the cost of one Spin unit. It runs for a few
// milliseconds; harnesses call it once at startup.
func Calibrate() Calibration {
	const probe = 1 << 20
	// Warm up, then measure.
	Spin(probe / 4)
	start := time.Now()
	Spin(probe)
	elapsed := time.Since(start)
	ns := float64(elapsed.Nanoseconds()) / probe
	if ns <= 0 {
		ns = 1
	}
	return Calibration{NsPerUnit: ns}
}

// Units converts a wall-time target into Spin units.
func (c Calibration) Units(d time.Duration) int64 {
	u := int64(float64(d.Nanoseconds()) / c.NsPerUnit)
	if u < 1 {
		u = 1
	}
	return u
}

// AsymmetryShim scales logical work per worker class: the host is
// symmetric, so little-class workers run each critical section
// CSFactor times and each non-critical gap NCSFactor times longer than
// big-class workers. This preserves the quantity the paper's analysis
// depends on — the ratio of critical-section durations across classes.
type AsymmetryShim struct {
	CSFactor  float64 // e.g. 3.75 (the paper's Sysbench gap)
	NCSFactor float64 // e.g. 1.8 (the paper's NOP gap)
}

// DefaultShim returns the M1-calibrated factors used across the
// benchmarks.
func DefaultShim() AsymmetryShim { return AsymmetryShim{CSFactor: 3.75, NCSFactor: 1.8} }

// CSUnits scales critical-section work for the given class.
func (a AsymmetryShim) CSUnits(base int64, c core.Class) int64 {
	if c == core.Big {
		return base
	}
	return int64(float64(base) * a.CSFactor)
}

// NCSUnits scales non-critical work for the given class.
func (a AsymmetryShim) NCSUnits(base int64, c core.Class) int64 {
	if c == core.Big {
		return base
	}
	return int64(float64(base) * a.NCSFactor)
}

// OpKind is a KV benchmark operation type.
type OpKind int

const (
	// OpPut inserts or updates a key.
	OpPut OpKind = iota
	// OpGet reads a key.
	OpGet
	// OpScan is a KV range scan: an ordered walk of [lo, hi] whose
	// critical-section length depends on how many keys the range
	// holds.
	OpScan
)

// String names the operation.
func (k OpKind) String() string {
	switch k {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpScan:
		return "scan"
	default:
		return "unknown"
	}
}

// Mix draws operations according to fixed proportions.
type Mix struct {
	kinds []OpKind
}

// YCSBA returns the 50% put / 50% get mix the paper uses for the
// KV-store benchmarks (referencing YCSB-A).
func YCSBA() *Mix {
	return &Mix{kinds: []OpKind{OpPut, OpGet}}
}

// Draw picks an operation using the caller's PRNG value.
func (m *Mix) Draw(r uint64) OpKind {
	return m.kinds[int(r%uint64(len(m.kinds)))]
}
