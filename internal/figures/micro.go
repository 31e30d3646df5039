// Package figures reproduces every figure of the paper's evaluation
// (§4) on the discrete-event AMP simulator, plus real-engine variants
// where meaningful. Each FigXX function returns a harness.Figure whose
// rows/series correspond one-to-one to the paper's plots; the
// integration tests in figures_test.go state and assert each figure's
// qualitative shape targets.
package figures

import (
	"fmt"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/prng"
	"repro/internal/sim"
	"repro/internal/simlock"
	"repro/internal/stats"
)

// LockKind selects the lock under test in a micro-benchmark run.
type LockKind int

const (
	// KindPthread is the barging blocking mutex (pthread stand-in).
	KindPthread LockKind = iota
	// KindTAS is the test-and-set spinlock with configurable affinity.
	KindTAS
	// KindTicket is the ticket lock.
	KindTicket
	// KindMCS is the MCS queue lock.
	KindMCS
	// KindMCSSTP is spin-then-park MCS (blocking FIFO).
	KindMCSSTP
	// KindSHFLPB is ShflLock with the proportional static policy.
	KindSHFLPB
	// KindASL is LibASL (reorderable lock + SLO feedback).
	KindASL
)

// String names the kind as in the paper's legends.
func (k LockKind) String() string {
	switch k {
	case KindPthread:
		return "pthread"
	case KindTAS:
		return "tas"
	case KindTicket:
		return "ticket"
	case KindMCS:
		return "mcs"
	case KindMCSSTP:
		return "mcs-stp"
	case KindSHFLPB:
		return "shfl-pb"
	case KindASL:
		return "libasl"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// CSSpec is one critical section of the benchmark epoch: which lock
// protects it and its length in big-core nanoseconds.
type CSSpec struct {
	Lock int
	Ns   int64
}

// MicroConfig fully describes one simulator micro-benchmark run. The
// zero value is not runnable; see the Fig* constructors for the
// parameter sets mirroring the paper's benchmarks.
type MicroConfig struct {
	Machine        amp.Config
	Threads        int // total threads; bound to big cores first (paper's setup)
	ThreadsPerCore int // 1 normally; 2 for Bench-6 over-subscription
	Kind           LockKind
	TASAff         simlock.Affinity       // affinity regime for KindTAS
	PBn            int                    // proportion for KindSHFLPB (0 = 10)
	NumLocks       int                    // distinct locks (Bench-1 uses 2); 0 = 1
	CS             []CSSpec               // the epoch's critical sections
	NCS            int64                  // non-critical gap between epochs (big-core ns)
	SLO            int64                  // epoch SLO in ns; <0 = no epoch (LibASL-MAX / plain locks)
	Sleeping       bool                   // blocking LibASL over the barging mutex (Bench-6)
	Controller     func() core.Controller // override (LibASL-OPT, ablations); nil = paper AIMD
	Duration       int64                  // virtual run length, ns
	Warmup         int64                  // samples before this instant are dropped
	Seed           uint64
	// EpochOps, if set, generates the epoch's sections dynamically (the
	// database workloads draw a random operation per epoch). A section
	// with Lock < 0 is executed without any lock (MVCC reads). When
	// nil, the static CS list is used for every epoch.
	EpochOps func(now int64, rng prng.Source) []CSSpec
	// EpochScale, if set, scales every CS duration of an epoch started
	// at virtual time now (Bench-2's phase changes, Bench-3's mixes).
	EpochScale func(now int64, rng prng.Source) float64
	// EpochExtra, if set, adds inner non-critical work (ns) to each
	// epoch (Bench-3's "100x longer by inserting more NOPs").
	EpochExtra func(now int64, rng prng.Source) int64
	// RecordTrace enables the per-epoch time series (Bench-2 / Fig 8d).
	RecordTrace bool
}

// MicroResult is what one run produces.
type MicroResult struct {
	// Epochs aggregates per-epoch latency by class; throughput counts
	// completed epochs after warmup.
	Epochs *stats.ClassedRecorder
	// LockSection aggregates acquire→release latency by class
	// (Figs. 1b, 4b, 8f measure this).
	LockSection *stats.ClassedRecorder
	// Throughput is completed epochs per second of virtual time.
	Throughput float64
	// Trace is the per-epoch time series when RecordTrace is set.
	Trace *stats.TimeSeries
	// FinalWindows holds each little thread's final reorder window
	// (diagnostics for feedback convergence tests).
	FinalWindows []int64
}

// Summary converts the run into a named summary row (epoch view).
func (r *MicroResult) Summary(name string) stats.Summary {
	s := r.Epochs.Summarize(name, 0)
	s.Throughput = r.Throughput
	return s
}

// LockSummary converts the run into a summary row of the
// acquire→release view used by Figs. 1, 4, 8e, 8f.
func (r *MicroResult) LockSummary(name string) stats.Summary {
	s := r.LockSection.Summarize(name, 0)
	s.Throughput = r.Throughput
	return s
}

// acquirer abstracts class-aware lock acquisition over the simulated
// locks so the benchmark loop is lock-agnostic.
type acquirer interface {
	acquire(t *amp.Thread, w *core.Worker)
	release(t *amp.Thread, w *core.Worker)
}

type plainAcq struct{ l simlock.Lock }

func (a plainAcq) acquire(t *amp.Thread, w *core.Worker) { a.l.Lock(t) }
func (a plainAcq) release(t *amp.Thread, w *core.Worker) { a.l.Unlock(t) }

type aslAcq struct{ r *simlock.SimReorderable }

func (a aslAcq) acquire(t *amp.Thread, w *core.Worker) {
	if w.Class() == core.Big {
		a.r.LockImmediately(t)
		return
	}
	a.r.LockReorder(t, w.ReorderWindow())
}
func (a aslAcq) release(t *amp.Thread, w *core.Worker) { a.r.Unlock(t) }

// buildLocks constructs the per-run lock instances.
func buildLocks(cfg *MicroConfig) []acquirer {
	n := cfg.NumLocks
	if n <= 0 {
		n = 1
	}
	out := make([]acquirer, n)
	for i := 0; i < n; i++ {
		switch cfg.Kind {
		case KindPthread:
			out[i] = plainAcq{&simlock.SimBarging{}}
		case KindTAS:
			out[i] = plainAcq{&simlock.SimTAS{Aff: cfg.TASAff, Seed: cfg.Seed + uint64(i)}}
		case KindTicket:
			out[i] = plainAcq{&simlock.SimTicket{}}
		case KindMCS:
			out[i] = plainAcq{&simlock.SimMCS{}}
		case KindMCSSTP:
			out[i] = plainAcq{&simlock.SimMCSPark{}}
		case KindSHFLPB:
			out[i] = plainAcq{&simlock.SimProportional{N: cfg.PBn}}
		case KindASL:
			var fifo simlock.FIFO = &simlock.SimMCS{}
			if cfg.Sleeping {
				fifo = &simlock.SimBarging{}
			}
			out[i] = aslAcq{&simlock.SimReorderable{Fifo: fifo, Sleeping: cfg.Sleeping}}
		default:
			panic("figures: unknown lock kind")
		}
	}
	return out
}

// RunMicro executes one micro-benchmark configuration on the simulator
// and collects its measurements.
func RunMicro(cfg MicroConfig) *MicroResult {
	if cfg.Threads <= 0 {
		panic("figures: Threads must be positive")
	}
	if cfg.ThreadsPerCore <= 0 {
		cfg.ThreadsPerCore = 1
	}
	if len(cfg.CS) == 0 && cfg.EpochOps == nil {
		panic("figures: benchmark needs at least one critical section")
	}
	k := sim.NewKernel()
	m := amp.NewMachine(k, cfg.Machine)
	locks := buildLocks(&cfg)

	res := &MicroResult{
		Epochs:      stats.NewClassedRecorder(),
		LockSection: stats.NewClassedRecorder(),
	}
	if cfg.RecordTrace {
		res.Trace = stats.NewTimeSeries(1 << 16)
	}
	totalCores := cfg.Machine.Bigs + cfg.Machine.Littles
	var epochsDone uint64
	littleWorkers := []*core.Worker{}

	for i := 0; i < cfg.Threads; i++ {
		// The paper binds the first threads to distinct big cores, the
		// rest to distinct little cores; over-subscription wraps around.
		coreID := i % totalCores
		tid := i
		var w *core.Worker
		spawn := func(t *amp.Thread) {
			wc := core.WorkerConfig{Class: t.Class(), Clock: t.Clock()}
			if cfg.Controller != nil {
				wc.NewController = cfg.Controller
			}
			w = core.NewWorker(wc)
			if t.Class() == core.Little {
				littleWorkers = append(littleWorkers, w)
			}
			rng := prng.NewXoshiro256(cfg.Seed ^ (0x9e3779b9*uint64(tid) + 1))
			runThread(&cfg, t, w, locks, rng, res, &epochsDone)
		}
		// Stagger starts a little so identical threads do not phase-lock.
		m.NewThread(fmt.Sprintf("t%d", i), coreID, int64(i)*137, spawn)
	}

	k.Run(cfg.Duration)
	k.Shutdown()

	measured := cfg.Duration - cfg.Warmup
	if measured > 0 {
		res.Throughput = float64(epochsDone) / (float64(measured) / 1e9)
	}
	for _, w := range littleWorkers {
		if cfg.SLO >= 0 {
			res.FinalWindows = append(res.FinalWindows, w.EpochWindow(0))
		}
	}
	return res
}

// runThread is the benchmark loop of one simulated thread: epochs of
// critical sections separated by non-critical gaps, forever (the
// kernel's time limit ends the run).
func runThread(cfg *MicroConfig, t *amp.Thread, w *core.Worker, locks []acquirer, rng prng.Source, res *MicroResult, epochsDone *uint64) {
	for {
		epochStart := t.Now()
		if cfg.SLO >= 0 {
			w.EpochStart(0)
		}
		scale := 1.0
		if cfg.EpochScale != nil {
			scale = cfg.EpochScale(epochStart, rng)
		}
		sections := cfg.CS
		if cfg.EpochOps != nil {
			sections = cfg.EpochOps(epochStart, rng)
		}
		for _, cs := range sections {
			if cs.Lock < 0 {
				// Unlocked work inside the epoch (e.g. an MVCC read).
				t.Compute(int64(float64(cs.Ns)*scale), amp.CS)
				continue
			}
			l := locks[cs.Lock%len(locks)]
			acqStart := t.Now()
			l.acquire(t, w)
			t.Compute(int64(float64(cs.Ns)*scale), amp.CS)
			l.release(t, w)
			if acqStart >= cfg.Warmup {
				res.LockSection.Record(t.Class(), t.Now()-acqStart)
			}
		}
		if cfg.EpochExtra != nil {
			if extra := cfg.EpochExtra(epochStart, rng); extra > 0 {
				t.Compute(extra, amp.NCS)
			}
		}
		var lat int64
		if cfg.SLO >= 0 {
			lat = w.EpochEnd(0, cfg.SLO)
		} else {
			lat = t.Now() - epochStart
		}
		if epochStart >= cfg.Warmup {
			res.Epochs.Record(t.Class(), lat)
			*epochsDone++
			if res.Trace != nil {
				res.Trace.Add(t.Now(), lat, t.Class())
			}
		}
		if cfg.NCS > 0 {
			t.Compute(cfg.NCS, amp.NCS)
		}
	}
}

// Compare runs the same workload once per lock configuration and
// collects summary rows; it is the engine behind all of the paper's
// bar-comparison figures.
func Compare(base MicroConfig, variants []Variant, lockView bool) *harness.Figure {
	f := &harness.Figure{}
	for _, v := range variants {
		cfg := base
		v.Apply(&cfg)
		r := RunMicro(cfg)
		if lockView {
			f.Rows = append(f.Rows, r.LockSummary(v.Name))
		} else {
			f.Rows = append(f.Rows, r.Summary(v.Name))
		}
	}
	return f
}

// Variant is one named configuration mutation in a comparison.
type Variant struct {
	Name  string
	Apply func(cfg *MicroConfig)
}
