package figures

import (
	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/simlock"
)

// Calibration constants for the simulated M1; each carries its
// rationale. All durations are big-core nanoseconds; little-core
// durations follow from the machine's class factors.
const (
	// LineRMWNs is the cost of read-modify-writing one contended
	// shared cache line on a big core (the line bounces between cores,
	// so this is dominated by an L2 transfer).
	LineRMWNs = 40
	// NopNs is the cost of one NOP on a big core, times 100 (fixed
	// point so interval arithmetic stays integral): M1 big cores retire
	// NOPs several per cycle, so a NOP is a fraction of a nanosecond.
	NopNs100 = 35
	// LittleCSFactor is how much longer memory-bound critical sections
	// take on little cores. The paper measures big cores 3.75x faster
	// on Sysbench (memory-heavy); we reuse that ratio for CS work.
	LittleCSFactor = 3.75
	// LittleNCSFactor matches the paper's 1.8x NOP-execution gap.
	LittleNCSFactor = 1.8
)

// nops converts a NOP count to big-core nanoseconds.
func nops(n int64) int64 { return n * NopNs100 / 100 }

// lines converts a shared-cache-line count to big-core nanoseconds of
// critical-section work.
func lines(n int64) int64 { return n * LineRMWNs }

// m1 returns the simulated machine used by all micro-benchmarks:
// 4 big + 4 little cores with the calibrated class factors.
func m1() amp.Config {
	return amp.Config{
		Bigs:            4,
		Littles:         4,
		LittleCSFactor:  LittleCSFactor,
		LittleNCSFactor: LittleNCSFactor,
	}
}

// Affinity regimes for the TAS lock. On the M1 the direction depends on
// contention spacing (paper §2.2 footnote 1); the factors are chosen so
// the simulated TAS reproduces the paper's measured gaps (≈35% below
// MCS throughput in the little-affinity regime of Fig. 1, ≈32% above
// MCS in the big-affinity regime of Fig. 4).
var (
	littleAffinity = simlock.Affinity{Favoured: core.Little, Factor: 4}
	bigAffinity    = simlock.Affinity{Favoured: core.Big, Factor: 5}
)

// Default run lengths. Experiments run long enough for thousands of
// epochs per thread; warmup covers feedback convergence.
const (
	defaultDuration = int64(150_000_000) // 150 ms virtual
	defaultWarmup   = int64(30_000_000)  // 30 ms virtual
)
