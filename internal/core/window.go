// Package core implements the engine-independent parts of LibASL
// (PPoPP 2022): the AIMD reorder-window controller driven by latency
// SLOs (paper Algorithm 2), the epoch registry with nesting support,
// and the worker/core-class model. Both the real lock library
// (internal/locks) and the discrete-event simulator (internal/simlock)
// build on this package, so the feedback behaviour being evaluated is
// literally the same code in both engines.
package core

// All durations in this package are int64 nanoseconds, compatible with
// time.Duration, matching the paper's u64-nanosecond interfaces.

// Default tuning constants. The paper gives the window and unit "a
// default size" that quickly adapts; it uses PCT=99 and a 100 ms
// maximum reorder window in the evaluation.
const (
	// DefaultPercentile is the SLO percentile (P99 in the paper).
	DefaultPercentile = 99
	// DefaultInitWindow is the initial reorder window before any
	// feedback has been observed.
	DefaultInitWindow = int64(10_000) // 10 µs
	// DefaultMaxWindow bounds the reorder window so the reorderable
	// lock stays starvation-free; it is also the window used by
	// LibASL-MAX and by threads outside any epoch.
	DefaultMaxWindow = int64(100_000_000) // 100 ms
	// DefaultMinUnit keeps the additive-increase step positive even
	// after deep multiplicative decreases. Algorithm 2 as printed sets
	// unit = window*(100-PCT)/100, which truncates to zero for windows
	// under 100 ns and would freeze the controller at window 0 forever;
	// a small floor restores the recovery behaviour shown in Fig. 8d.
	DefaultMinUnit = int64(64)
)

// Controller adjusts a reorder window from per-epoch latency feedback.
// Implementations must be cheap: Observe runs on every epoch_end.
type Controller interface {
	// Window returns the current reorder window in nanoseconds.
	Window() int64
	// Observe feeds one epoch completion: the measured latency and the
	// SLO that applied to it.
	Observe(latencyNs, sloNs int64)
}

// AIMDConfig parameterises the paper's controller.
type AIMDConfig struct {
	Percentile int   // SLO percentile (1..99); 0 means DefaultPercentile
	InitWindow int64 // 0 means DefaultInitWindow
	MaxWindow  int64 // 0 means DefaultMaxWindow
	MinUnit    int64 // 0 means DefaultMinUnit
}

func (c AIMDConfig) withDefaults() AIMDConfig {
	if c.Percentile <= 0 || c.Percentile > 99 {
		c.Percentile = DefaultPercentile
	}
	if c.InitWindow <= 0 {
		c.InitWindow = DefaultInitWindow
	}
	if c.MaxWindow <= 0 {
		c.MaxWindow = DefaultMaxWindow
	}
	if c.MinUnit <= 0 {
		c.MinUnit = DefaultMinUnit
	}
	return c
}

// AIMD is the paper's controller (Algorithm 2, lines 19–30): on an SLO
// violation the window halves and the additive unit is recomputed as
// (100-PCT)% of the reduced window; otherwise the window grows by one
// unit. With PCT = 99 the window regrows to its pre-violation size after
// 100 compliant epochs, so the probability of a violating epoch is held
// near 1-PCT/100 — the TCP-congestion-control analogy made in §3.3.
type AIMD struct {
	cfg    AIMDConfig
	window int64
	unit   int64
}

// NewAIMD returns the paper's controller with the given configuration.
func NewAIMD(cfg AIMDConfig) *AIMD {
	a := &AIMD{cfg: cfg.withDefaults()}
	a.Reset()
	return a
}

// Window returns the current reorder window.
func (a *AIMD) Window() int64 { return a.window }

// Unit returns the current additive-increase step (exposed for tests).
func (a *AIMD) Unit() int64 { return a.unit }

// Observe applies the AIMD update for one completed epoch.
func (a *AIMD) Observe(latencyNs, sloNs int64) {
	if latencyNs > sloNs {
		a.window >>= 1
		a.unit = a.window * int64(100-a.cfg.Percentile) / 100
		if a.unit < a.cfg.MinUnit {
			a.unit = a.cfg.MinUnit
		}
	} else {
		a.window += a.unit
		if a.window > a.cfg.MaxWindow {
			a.window = a.cfg.MaxWindow
		}
	}
}

// Reset restores the initial window and unit.
func (a *AIMD) Reset() {
	a.window = a.cfg.InitWindow
	a.unit = a.window * int64(100-a.cfg.Percentile) / 100
	if a.unit < a.cfg.MinUnit {
		a.unit = a.cfg.MinUnit
	}
}

// Static is a controller with a fixed window; it implements the
// LibASL-OPT configuration of Figs. 8a and 8c (a hand-chosen static
// window, no runtime adjustment).
type Static struct{ W int64 }

// Window returns the fixed window.
func (s *Static) Window() int64 { return s.W }

// Observe is a no-op.
func (s *Static) Observe(latencyNs, sloNs int64) {}
