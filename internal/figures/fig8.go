package figures

import (
	"sort"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/prng"
	"repro/internal/stats"
)

// Bench1Config is Bench-1 (§4.1): every thread repeatedly executes the
// same epoch of 4 critical sections of different lengths protected by
// 2 different locks (64 shared cache lines in total), separated by a
// fixed NOP interval.
func Bench1Config(kind LockKind, sloNs int64) MicroConfig {
	return MicroConfig{
		Machine:  m1(),
		Threads:  8,
		Kind:     kind,
		NumLocks: 2,
		CS: []CSSpec{
			{Lock: 0, Ns: lines(6)},
			{Lock: 1, Ns: lines(10)},
			{Lock: 0, Ns: lines(18)},
			{Lock: 1, Ns: lines(30)},
		},
		NCS:      nops(2700), // NOP interval calibrated for heavy contention (§4.1)
		SLO:      sloNs,
		Duration: defaultDuration,
		Warmup:   defaultWarmup,
		Seed:     8,
	}
}

const microsecond = int64(1_000)
const millisecond = int64(1_000_000)

// median returns the median of xs (0 when empty).
func median(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// Fig8a reproduces Figure 8a: the Bench-1 comparison of pthread, TAS,
// ticket, SHFL-PB10 and MCS against LibASL at SLOs of 0, 25, 50 and
// 65 µs, plus LibASL-MAX (maximum reordering) and LibASL-OPT (the best
// static window, obtained here from the converged window of the
// LibASL-50 run — the oracle the paper describes as impossible to set a
// priori).
func Fig8a() *harness.Figure {
	f := &harness.Figure{ID: "fig8a", Title: "Bench-1: throughput and per-class P99 under heavy contention"}
	run := func(name string, cfg MicroConfig) *MicroResult {
		r := RunMicro(cfg)
		f.Rows = append(f.Rows, r.Summary(name))
		return r
	}

	run("pthread", Bench1Config(KindPthread, -1))
	tas := Bench1Config(KindTAS, -1)
	tas.TASAff = bigAffinity // the paper: "the TAS lock shows big-core-affinity here"
	run("tas", tas)
	run("ticket", Bench1Config(KindTicket, -1))
	shfl := Bench1Config(KindSHFLPB, -1)
	shfl.PBn = 10
	run("shfl-pb10", shfl)
	run("mcs", Bench1Config(KindMCS, -1))

	run("libasl-0", Bench1Config(KindASL, 0))
	run("libasl-25", Bench1Config(KindASL, 25*microsecond))
	asl50 := run("libasl-50", Bench1Config(KindASL, 50*microsecond))
	run("libasl-65", Bench1Config(KindASL, 65*microsecond))
	run("libasl-max", Bench1Config(KindASL, -1))

	// LibASL-OPT: freeze the window LibASL-50 converged to.
	opt := Bench1Config(KindASL, 50*microsecond)
	w := median(asl50.FinalWindows)
	opt.Controller = func() core.Controller { return &core.Static{W: w} }
	run("libasl-opt", opt)
	f.Note("libasl-opt static window = %d ns (median converged window of libasl-50)", w)
	return f
}

// Fig8b reproduces Figure 8b: Bench-1 with the SLO swept from 0 to
// 100 µs. The little-core P99 must hug the y=x SLO line while
// throughput grows and then saturates.
func Fig8b() *harness.Figure {
	bench1 := func(slo int64) MicroConfig { return Bench1Config(KindASL, slo) }
	f := SLOSweep("fig8b", "Bench-1 under variant SLOs", bench1, 0, 100*microsecond, 11)
	f.Note("little-p99 should track y=x (in ns: 1000*slo) once the SLO is achievable; throughput non-decreasing")
	return f
}

// Bench3Config is Bench-3 (Fig. 8c): epochs of two very different
// lengths are mixed; long epochs are ~100x longer by inserting more
// NOPs inside the epoch. Critical sections are small so the epoch
// length is dominated by the inner NOP block.
func Bench3Config(kind LockKind, sloNs int64, longRatio float64, seed uint64) MicroConfig {
	cfg := Bench1Config(kind, sloNs)
	cfg.NCS = 1000
	cfg.Seed = seed
	// Long epochs are ~100x the short epoch's execution time, obtained
	// by inserting a large NOP block inside the epoch (§4.1 Bench-3).
	// The length is calibrated so that at ratio 100% the MCS tail
	// latency reaches the 100 µs SLO, the paper's fallback point.
	const longExtra = int64(35_000)
	cfg.EpochExtra = func(now int64, rng prng.Source) int64 {
		if prng.Bool(rng, longRatio) {
			return longExtra
		}
		return 0
	}
	return cfg
}

// Fig8c reproduces Figure 8c: short/long epoch mixes at ratios 0..100%
// with the SLO fixed at 100 µs, comparing LibASL's dynamic window with
// the static-optimal LibASL-OPT and normalising throughput to MCS.
func Fig8c() *harness.Figure {
	f := &harness.Figure{
		ID:     "fig8c",
		Title:  "Bench-3: mixed epoch lengths, SLO 100us",
		XLabel: "% long epochs",
		YLabel: "throughput normalized to MCS / p99(ns)",
	}
	const slo = 100 * 1000 // 100 µs
	asl := harness.Series{Name: "libasl/mcs"}
	opt := harness.Series{Name: "libasl-opt/mcs"}
	overall := harness.Series{Name: "overall-p99"}
	little := harness.Series{Name: "little-p99"}
	for pct := 0; pct <= 100; pct += 10 {
		ratio := float64(pct) / 100
		mcsR := RunMicro(Bench3Config(KindMCS, -1, ratio, 31))
		aslR := RunMicro(Bench3Config(KindASL, slo, ratio, 31))
		// OPT freezes the converged window of the dynamic run.
		optCfg := Bench3Config(KindASL, slo, ratio, 31)
		w := median(aslR.FinalWindows)
		optCfg.Controller = func() core.Controller { return &core.Static{W: w} }
		optR := RunMicro(optCfg)

		x := float64(pct)
		if mcsR.Throughput > 0 {
			asl.Add(x, aslR.Throughput/mcsR.Throughput)
			opt.Add(x, optR.Throughput/mcsR.Throughput)
		}
		overall.Add(x, float64(aslR.Epochs.Overall().P99()))
		little.Add(x, float64(aslR.Epochs.ByClass(stats.Little).P99()))
	}
	f.Series = append(f.Series, asl, opt, overall, little)
	f.Note("paper: LibASL close to OPT (max ~20%% gap) and P99 <= SLO at all ratios; ratio=100%% falls back to FIFO")
	return f
}

// bench2Scale is the Bench-2 phase driver (Fig. 8d): epoch length
// multiplies by 128 during [100ms,200ms), returns to normal, varies
// randomly in [250ms,300ms), and becomes 1024x (SLO-impossible) from
// 300ms on.
func bench2Scale(now int64, rng prng.Source) float64 {
	switch ms := now / millisecond; {
	case ms < 100:
		return 1
	case ms < 200:
		return 128
	case ms < 250:
		return 1
	case ms < 300:
		return 1 + prng.Float64(rng)*127
	default:
		return 1024
	}
}

// Fig8d reproduces Figure 8d: the per-epoch latency trace of a highly
// variable workload under a 100 µs SLO, demonstrating the self-adaptive
// reorder window. It returns 10ms-window P99 aggregates as series plus
// the raw trace in the result for CSV export.
func Fig8d() (*harness.Figure, *stats.TimeSeries) {
	// Calibration: the base epoch is one tiny critical section in a
	// long NOP interval, so the x128 phase saturates the lock yet stays
	// SLO-feasible under reordering (big CS 5.1 µs, little exec 19 µs,
	// both within the 100 µs SLO), while the x1024 phase is infeasible
	// for everyone and must trigger the FIFO fallback.
	cfg := MicroConfig{
		Machine:     m1(),
		Threads:     8,
		Kind:        KindASL,
		NumLocks:    1,
		CS:          []CSSpec{{Lock: 0, Ns: lines(1)}},
		NCS:         12_000,
		SLO:         100 * microsecond,
		Duration:    350 * millisecond,
		Warmup:      0,
		Seed:        82,
		EpochScale:  bench2Scale,
		RecordTrace: true,
	}
	r := RunMicro(cfg)
	f := &harness.Figure{
		ID:     "fig8d",
		Title:  "Bench-2: self-adaptive reorder window under phase changes (SLO 100us)",
		XLabel: "time(ms)",
		YLabel: "p99(ns) per 10ms window",
	}
	all := harness.Series{Name: "window-p99"}
	little := harness.Series{Name: "window-little-p99"}
	for _, w := range r.Trace.Windows(10 * millisecond) {
		x := float64(w.Start) / 1e6
		all.Add(x, float64(w.P99))
		little.Add(x, float64(w.LittleP99))
	}
	f.Series = append(f.Series, all, little)
	f.Note("phases: x128 at 100ms, back at 200ms, random at 250ms, x1024 (SLO-impossible, FIFO fallback) at 300ms")
	return f, r.Trace
}

// fig8eVariants are the locks of Figures 8e/8f (Bench-4): the Fig. 4
// workload with LibASL at SLO 0, a mid SLO and a TAS-equivalent SLO,
// plus MAX. The paper uses 12 µs and 50 µs on the M1; our simulator's
// latency floor differs (MCS P99 ≈ 40 µs at 8 threads), so the SLOs
// are chosen at the same positions relative to the baselines: one
// between MCS and TAS latency, one matching TAS latency.
func fig8eVariants() []Variant {
	return []Variant{
		{Name: "mcs", Apply: func(cfg *MicroConfig) { cfg.Kind = KindMCS }},
		{Name: "tas", Apply: func(cfg *MicroConfig) { cfg.Kind = KindTAS; cfg.TASAff = bigAffinity }},
		{Name: "libasl-0", Apply: func(cfg *MicroConfig) { cfg.Kind = KindASL; cfg.SLO = 0 }},
		{Name: "libasl-90", Apply: func(cfg *MicroConfig) { cfg.Kind = KindASL; cfg.SLO = 90 * microsecond }},
		{Name: "libasl-180", Apply: func(cfg *MicroConfig) { cfg.Kind = KindASL; cfg.SLO = 180 * microsecond }},
		{Name: "libasl-max", Apply: func(cfg *MicroConfig) { cfg.Kind = KindASL; cfg.SLO = -1 }},
	}
}

// Fig8e reproduces Figure 8e: lock throughput scalability of Bench-4.
func Fig8e() *harness.Figure {
	f := scalabilityFigure("fig8e", "Bench-4: throughput scalability (64-line CS)", 64, fig8eVariants())
	f.Note("paper: LibASL-MAX does not drop when little threads join; LibASL-0 tracks MCS")
	return f
}

// Fig8f is Figure 8f: the matching acquire-to-release P99 series (it
// shares Fig8e's runs; the series are produced together there, so this
// simply re-labels). Kept separate so every paper figure has a named
// entry point.
func Fig8f() *harness.Figure {
	f := scalabilityFigure("fig8f", "Bench-4: overall tail latency (acquire to release)", 64, fig8eVariants())
	f.Note("paper: LibASL-12 matches TAS latency with better throughput scaling; LibASL caps latency near its SLO")
	return f
}

// Fig8g reproduces Figure 8g (Bench-5): the throughput speedup of
// LibASL (no SLO, maximum reordering) over each baseline as contention
// falls: threads RMW 2 shared lines with 10^n NOPs between
// acquisitions, n = 0..5. MCS-4 runs the MCS lock on the 4 big cores
// only.
func Fig8g() *harness.Figure {
	f := &harness.Figure{
		ID:     "fig8g",
		Title:  "Bench-5: LibASL speedup across contention levels",
		XLabel: "log10(nops between CS)",
		YLabel: "speedup (thr_libasl/thr_baseline - 1)",
	}
	base := func(n int64) MicroConfig {
		return MicroConfig{
			Machine:  m1(),
			Threads:  8,
			Kind:     KindMCS,
			CS:       []CSSpec{{Lock: 0, Ns: lines(2)}},
			NCS:      nops(pow10(n)),
			SLO:      -1,
			Duration: defaultDuration,
			Warmup:   defaultWarmup,
			Seed:     87,
		}
	}
	baselines := []Variant{
		{Name: "mcs-4", Apply: func(cfg *MicroConfig) { cfg.Kind = KindMCS; cfg.Threads = 4 }},
		{Name: "tas", Apply: func(cfg *MicroConfig) { cfg.Kind = KindTAS }},
		{Name: "ticket", Apply: func(cfg *MicroConfig) { cfg.Kind = KindTicket }},
		{Name: "mcs", Apply: func(cfg *MicroConfig) { cfg.Kind = KindMCS }},
		{Name: "pthread", Apply: func(cfg *MicroConfig) { cfg.Kind = KindPthread }},
		{Name: "shfl-pb10", Apply: func(cfg *MicroConfig) { cfg.Kind = KindSHFLPB; cfg.PBn = 10 }},
	}
	series := make([]harness.Series, len(baselines))
	for i, b := range baselines {
		series[i] = harness.Series{Name: b.Name}
	}
	for n := int64(0); n <= 5; n++ {
		aslCfg := base(n)
		aslCfg.Kind = KindASL
		aslThr := RunMicro(aslCfg).Throughput
		for i, b := range baselines {
			cfg := base(n)
			b.Apply(&cfg)
			thr := RunMicro(cfg).Throughput
			if thr > 0 {
				series[i].Add(float64(n), aslThr/thr-1)
			}
		}
	}
	f.Series = append(f.Series, series...)
	f.Note("paper: largest speedups at n=0; little cores help at low contention (libasl beats mcs-4); speedups shrink toward 0 as contention vanishes")
	return f
}

func pow10(n int64) int64 {
	p := int64(1)
	for i := int64(0); i < n; i++ {
		p *= 10
	}
	return p
}

// OversubConfig is Bench-6 (Figs. 8h/8i): Bench-1 with two threads per
// core. Blocking locks only: pthread (barging futex mutex), MCS-STP and
// the blocking LibASL (nanosleep standby over the pthread-style lock —
// the paper's exact substitution).
func OversubConfig(kind LockKind, sloNs int64) MicroConfig {
	cfg := Bench1Config(kind, sloNs)
	cfg.Threads = 16
	cfg.ThreadsPerCore = 2
	cfg.Sleeping = true
	cfg.Duration = 2_000 * millisecond
	cfg.Warmup = 400 * millisecond
	cfg.Seed = 86
	// Bench-6 runs Bench-1 with its original (longer) NOP interval:
	// inter-acquisition gaps must exceed the futex wake-up latency or
	// sleeping waiters can never win a barging race at all. Critical
	// sections are doubled so the big-core demand alone saturates the
	// locks — the regime where the reorder window, and therefore the
	// SLO, actually governs little-core latency.
	cfg.NCS = nops(16200)
	for i := range cfg.CS {
		cfg.CS[i].Ns *= 2
	}
	return cfg
}

// Fig8h reproduces Figure 8h: blocking locks under core
// over-subscription.
func Fig8h() *harness.Figure {
	f := &harness.Figure{ID: "fig8h", Title: "Bench-6: over-subscription (2 threads/core), blocking locks"}
	run := func(name string, cfg MicroConfig) {
		r := RunMicro(cfg)
		f.Rows = append(f.Rows, r.Summary(name))
	}
	run("pthread", OversubConfig(KindPthread, -1))
	run("mcs-stp", OversubConfig(KindMCSSTP, -1))
	run("libasl-0", OversubConfig(KindASL, 0))
	run("libasl-3", OversubConfig(KindASL, 3*millisecond))
	run("libasl-8", OversubConfig(KindASL, 8*millisecond))
	run("libasl-max", OversubConfig(KindASL, -1))
	f.Note("paper: MCS-STP collapses (wake-up latency on the FIFO critical path); blocking LibASL beats pthread by up to 80%% while holding the SLO")
	return f
}

// Fig8i reproduces Figure 8i: the SLO sweep under over-subscription.
func Fig8i() *harness.Figure {
	f := &harness.Figure{
		ID:     "fig8i",
		Title:  "Bench-6: variant SLOs under over-subscription",
		XLabel: "slo(ms)",
		YLabel: "p99(ns) / throughput(ops/s)",
	}
	big := harness.Series{Name: "big-p99"}
	little := harness.Series{Name: "little-p99"}
	overall := harness.Series{Name: "overall-p99"}
	thr := harness.Series{Name: "throughput"}
	for slo := int64(0); slo <= 10; slo++ {
		r := RunMicro(OversubConfig(KindASL, slo*millisecond))
		x := float64(slo)
		big.Add(x, float64(r.Epochs.ByClass(stats.Big).P99()))
		little.Add(x, float64(r.Epochs.ByClass(stats.Little).P99()))
		overall.Add(x, float64(r.Epochs.Overall().P99()))
		thr.Add(x, r.Throughput)
	}
	f.Series = append(f.Series, big, little, overall, thr)
	f.Note("little-p99 tracks the SLO line; throughput grows with looser SLOs")
	return f
}
