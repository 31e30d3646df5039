package figures

import (
	"repro/internal/harness"
)

// collapseConfig is the shared setup of Figs. 1 and 4: every thread
// repeatedly acquires one lock, read-modify-writes csLines shared
// cache lines, releases, and executes a fixed NOP interval. Threads
// 1..4 land on big cores, 5..8 on little cores.
func collapseConfig(threads int, csLines int64, kind LockKind) MicroConfig {
	return MicroConfig{
		Machine:  m1(),
		Threads:  threads,
		Kind:     kind,
		CS:       []CSSpec{{Lock: 0, Ns: lines(csLines)}},
		NCS:      500, // calibrated so the lock saturates near 4 big threads
		SLO:      -1,  // plain locks, no epochs
		Duration: defaultDuration,
		Warmup:   defaultWarmup,
		Seed:     1,
	}
}

// scalabilityFigure sweeps thread count 1..8 for each variant and
// emits throughput and P99 acquire→release latency series.
func scalabilityFigure(id, title string, csLines int64, variants []Variant) *harness.Figure {
	f := &harness.Figure{
		ID:     id,
		Title:  title,
		XLabel: "threads",
		YLabel: "throughput(ops/s) / p99(ns)",
	}
	for _, v := range variants {
		thr := harness.Series{Name: v.Name + "/throughput"}
		lat := harness.Series{Name: v.Name + "/p99"}
		for n := 1; n <= 8; n++ {
			cfg := collapseConfig(n, csLines, KindMCS)
			v.Apply(&cfg)
			cfg.Threads = n
			r := RunMicro(cfg)
			thr.Add(float64(n), r.Throughput)
			lat.Add(float64(n), float64(r.LockSection.Overall().P99()))
		}
		f.Series = append(f.Series, thr, lat)
	}
	return f
}

// Fig1 reproduces Figure 1: on a 4+4 machine, threads RMW 4 shared
// cache lines under one lock. The MCS lock's throughput collapses once
// little cores join (1a); the TAS lock, in its little-core-affinity
// regime, collapses in both throughput and latency (1b).
func Fig1() *harness.Figure {
	f := scalabilityFigure("fig1", "Existing locks collapse on AMP (TAS little-affinity)", 4, []Variant{
		{Name: "mcs", Apply: func(cfg *MicroConfig) { cfg.Kind = KindMCS }},
		{Name: "tas", Apply: func(cfg *MicroConfig) {
			cfg.Kind = KindTAS
			cfg.TASAff = littleAffinity
		}},
	})
	f.Note("paper: MCS throughput drops >50%% from 4 to 8 threads; TAS ends ~35%% below MCS with ~6x its P99")
	return f
}

// Fig4 reproduces Figure 4: the same benchmark with 64-line critical
// sections, where the TAS lock shows big-core affinity — higher
// throughput than MCS but still a latency collapse.
func Fig4() *harness.Figure {
	f := scalabilityFigure("fig4", "TAS with big-core affinity: throughput above MCS, latency collapse", 64, []Variant{
		{Name: "mcs", Apply: func(cfg *MicroConfig) { cfg.Kind = KindMCS }},
		{Name: "tas", Apply: func(cfg *MicroConfig) {
			cfg.Kind = KindTAS
			cfg.TASAff = bigAffinity
		}},
	})
	f.Note("paper: TAS ~32%% above MCS throughput at 8 threads, with a P99 collapse for little cores")
	return f
}
