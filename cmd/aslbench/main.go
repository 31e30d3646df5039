// Command aslbench runs real-engine micro-benchmarks on the actual Go
// lock implementations: worker goroutines (optionally one per OS
// thread) repeatedly acquire a lock, read-modify-write shared cache
// lines and execute a calibrated delay, with the paper's asymmetry
// emulated by the class work shim. Use cmd/ampsim for the
// shape-faithful simulator reproduction of the figures.
//
// Usage:
//
//	aslbench -lock libasl -slo 100us -threads 8
//	aslbench -compare -dur 1s
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/stats"
	"repro/internal/workload"
)

type benchConfig struct {
	threads  int
	bigs     int
	dur      time.Duration
	slo      int64
	lines    int
	ncsUnits int64
	csUnits  int64
}

// run executes one lock configuration and returns its summary row.
func run(name string, lock locks.WLock, cfg benchConfig) stats.Summary {
	shim := workload.DefaultShim()
	shared := workload.NewSharedLines(cfg.lines)
	var stop atomic.Bool
	recs := make([]*stats.ClassedRecorder, cfg.threads)
	var wg sync.WaitGroup
	for i := 0; i < cfg.threads; i++ {
		class := core.Big
		if i >= cfg.bigs {
			class = core.Little
		}
		rec := stats.NewClassedRecorder()
		recs[i] = rec
		wg.Add(1)
		go func(class core.Class) {
			defer wg.Done()
			w := core.NewWorker(core.WorkerConfig{Class: class})
			cs := shim.CSUnits(cfg.csUnits, class)
			ncs := shim.NCSUnits(cfg.ncsUnits, class)
			for !stop.Load() {
				var lat int64
				if cfg.slo >= 0 {
					w.EpochStart(0)
					lock.Acquire(w)
					shared.RMW(cfg.lines)
					workload.Spin(cs)
					lock.Release(w)
					lat = w.EpochEnd(0, cfg.slo)
				} else {
					s := w.Now()
					lock.Acquire(w)
					shared.RMW(cfg.lines)
					workload.Spin(cs)
					lock.Release(w)
					lat = w.Now() - s
				}
				rec.Record(class, lat)
				workload.Spin(ncs)
			}
		}(class)
	}
	time.Sleep(cfg.dur)
	stop.Store(true)
	wg.Wait()
	merged := stats.NewClassedRecorder()
	for _, r := range recs {
		merged.Merge(r)
	}
	return merged.Summarize(name, cfg.dur)
}

func factoryByName(name string) (locks.Factory, int64, bool) {
	switch name {
	case "pthread":
		return locks.FactoryPthread(), -1, true
	case "tas":
		return locks.FactoryTAS(core.Big, 4), -1, true
	case "ticket":
		return locks.FactoryTicket(), -1, true
	case "mcs":
		return locks.FactoryMCS(), -1, true
	case "shfl-pb10":
		return locks.FactoryProportional(10), -1, true
	case "libasl":
		return locks.FactoryASL(), 0, true // SLO overridden by flag
	default:
		return nil, 0, false
	}
}

func main() {
	lockName := flag.String("lock", "libasl", "pthread|tas|ticket|mcs|shfl-pb10|libasl")
	threads := flag.Int("threads", 8, "total workers (first half big-class)")
	bigs := flag.Int("bigs", 4, "big-class workers")
	dur := flag.Duration("dur", 2*time.Second, "duration per configuration")
	slo := flag.Duration("slo", 100*time.Microsecond, "epoch SLO (libasl only); 0 disables reordering")
	lines := flag.Int("lines", 4, "shared cache lines per critical section")
	compare := flag.Bool("compare", false, "run the full lock comparison")
	flag.Parse()

	cal := workload.Calibrate()
	fmt.Fprintf(os.Stderr, "calibration: %.2f ns/spin-unit\n", cal.NsPerUnit)
	cfg := benchConfig{
		threads:  *threads,
		bigs:     *bigs,
		dur:      *dur,
		lines:    *lines,
		csUnits:  cal.Units(200 * time.Nanosecond),
		ncsUnits: cal.Units(600 * time.Nanosecond),
	}

	if *compare {
		var rows []stats.Summary
		for _, name := range []string{"pthread", "tas", "ticket", "shfl-pb10", "mcs", "libasl"} {
			f, defSLO, _ := factoryByName(name)
			c := cfg
			c.slo = defSLO
			if name == "libasl" {
				c.slo = int64(*slo)
			}
			rows = append(rows, run(name, f(), c))
			fmt.Fprintf(os.Stderr, "done: %s\n", name)
		}
		fmt.Print(stats.FormatSummaries(rows))
		return
	}

	f, defSLO, ok := factoryByName(*lockName)
	if !ok {
		fmt.Fprintf(os.Stderr, "aslbench: unknown lock %q\n", *lockName)
		os.Exit(2)
	}
	cfg.slo = defSLO
	if *lockName == "libasl" {
		cfg.slo = int64(*slo)
	}
	fmt.Println(run(*lockName, f(), cfg).String())
}
