// Package dbbench drives the paper's database evaluation (§4.2) on the
// real lock implementations: N big-class plus M little-class workers
// issue operations from a mix against a database engine, each wrapped
// in a LibASL epoch, and the harness reports throughput plus per-class
// P99 latency and the latency CDF — the contents of Figs. 9 and 10.
package dbbench

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/prng"
	"repro/internal/stats"
	"repro/internal/workload"
)

// DB is a database engine under test. Engines are constructed with a
// lock factory so any of the evaluation's locks can be injected.
type DB interface {
	Name() string
	// Do executes one operation on behalf of worker w. The engine is
	// responsible for its own locking (its Table 1 topology) and for
	// applying the asymmetry padding inside critical sections.
	Do(w *core.Worker, rng prng.Source, op workload.OpKind)
}

// Padder injects the emulated little-core slowdown: on a symmetric
// host, little-class workers execute extra calibrated work so the
// critical-section duration ratio matches the paper's AMP
// (workload.AsymmetryShim). Engines call CS while holding their locks.
type Padder struct {
	Shim workload.AsymmetryShim
}

// DefaultPadder returns the M1-calibrated padder.
func DefaultPadder() Padder { return Padder{Shim: workload.DefaultShim()} }

// CS pads critical-section work of baseUnits spin units for w's class.
func (p Padder) CS(w *core.Worker, baseUnits int64) {
	if w.Class() == core.Big {
		return
	}
	extra := int64(float64(baseUnits) * (p.Shim.CSFactor - 1))
	if extra > 0 {
		workload.Spin(extra)
	}
}

// NCS pads non-critical work.
func (p Padder) NCS(w *core.Worker, baseUnits int64) {
	if w.Class() == core.Big {
		return
	}
	extra := int64(float64(baseUnits) * (p.Shim.NCSFactor - 1))
	if extra > 0 {
		workload.Spin(extra)
	}
}

// Config describes one benchmark run.
type Config struct {
	BigWorkers    int
	LittleWorkers int
	Duration      time.Duration
	// WarmupFrac is the fraction of Duration discarded; zero means 0.2.
	WarmupFrac float64
	// SLO is the per-epoch latency SLO in ns; < 0 runs without epochs
	// (plain locks and LibASL-MAX).
	SLO int64
	// Mix draws operation kinds; nil means the YCSB-A-style 50/50.
	Mix  *workload.Mix
	Seed uint64
	// EpochID annotates the request epoch (paper Fig. 6 usage).
	EpochID int
	// NCSUnits is calibrated spin work between operations.
	NCSUnits int64
	// Controller optionally overrides the window controller.
	Controller func() core.Controller
}

func (c Config) withDefaults() Config {
	if c.WarmupFrac <= 0 {
		c.WarmupFrac = 0.2
	}
	if c.Mix == nil {
		c.Mix = workload.YCSBA()
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	return c
}

// Result carries the measurements of one run.
type Result struct {
	Summary stats.Summary
	// Overall and Little are the epoch-latency histograms used for the
	// paper's CDF figures.
	Overall *stats.Histogram
	Little  *stats.Histogram
	// Ops is the number of completed operations after warmup.
	Ops uint64
}

// Run executes the benchmark against db.
func Run(name string, db DB, cfg Config) *Result {
	cfg = cfg.withDefaults()
	total := cfg.BigWorkers + cfg.LittleWorkers
	recs := make([]*stats.ClassedRecorder, total)
	var stop atomic.Bool
	var started sync.WaitGroup
	var done sync.WaitGroup

	warmup := time.Duration(float64(cfg.Duration) * cfg.WarmupFrac)
	begin := time.Now()
	warmupEnd := begin.Add(warmup)

	for i := 0; i < total; i++ {
		class := core.Big
		if i >= cfg.BigWorkers {
			class = core.Little
		}
		rec := stats.NewClassedRecorder()
		recs[i] = rec
		started.Add(1)
		done.Add(1)
		go func(id int, class core.Class) {
			defer done.Done()
			// Spread workers across OS threads; on a multicore host
			// this mirrors the paper's thread-per-core binding.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			w := core.NewWorker(core.WorkerConfig{Class: class, NewController: cfg.Controller})
			rng := prng.NewXoshiro256(cfg.Seed ^ (uint64(id)*0x9e3779b97f4a7c15 + 1))
			started.Done()
			for !stop.Load() {
				op := cfg.Mix.Draw(rng.Uint64())
				var lat int64
				if cfg.SLO >= 0 {
					w.EpochStart(cfg.EpochID)
					db.Do(w, rng, op)
					lat = w.EpochEnd(cfg.EpochID, cfg.SLO)
				} else {
					s := w.Now()
					db.Do(w, rng, op)
					lat = w.Now() - s
				}
				if time.Now().After(warmupEnd) {
					rec.Record(class, lat)
				}
				if cfg.NCSUnits > 0 {
					workload.Spin(cfg.NCSUnits)
				}
			}
		}(i, class)
	}
	started.Wait()
	time.Sleep(cfg.Duration)
	stop.Store(true)
	done.Wait()

	merged := stats.NewClassedRecorder()
	for _, r := range recs {
		merged.Merge(r)
	}
	measured := cfg.Duration - warmup
	res := &Result{
		Summary: merged.Summarize(name, measured),
		Overall: merged.Overall(),
		Little:  merged.ByClass(core.Little),
		Ops:     merged.TotalOps(),
	}
	return res
}
