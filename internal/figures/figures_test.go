package figures

import (
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/stats"
)

// findSeries returns f's series with the given name.
func findSeries(f *harness.Figure, name string) (harness.Series, bool) {
	for _, s := range f.Series {
		if s.Name == name {
			return s, true
		}
	}
	return harness.Series{}, false
}

// findRow returns f's summary row with the given name.
func findRow(f *harness.Figure, name string) (stats.Summary, bool) {
	for _, r := range f.Rows {
		if r.Name == name {
			return r, true
		}
	}
	return stats.Summary{}, false
}

// These are the repository's headline integration tests: each checks
// the qualitative shape targets of one paper figure against the
// simulator. Absolute values are model-dependent;
// orderings, crossovers and SLO-tracking are what the paper's claims
// rest on.

// short runs use reduced duration for the cheap direct-config tests.
func shortBench1(kind LockKind, slo int64) MicroConfig {
	cfg := Bench1Config(kind, slo)
	cfg.Duration = 60_000_000
	cfg.Warmup = 15_000_000
	return cfg
}

func TestASL0FallsBackToMCS(t *testing.T) {
	// LibASL with SLO 0 must behave like the underlying MCS lock
	// (±10%): the fallback of §3.4.
	mcs := RunMicro(shortBench1(KindMCS, -1))
	asl0 := RunMicro(shortBench1(KindASL, 0))
	ratio := asl0.Throughput / mcs.Throughput
	if ratio < 0.90 || ratio > 1.10 {
		t.Fatalf("libasl-0 / mcs throughput = %.3f, want ~1", ratio)
	}
	lp99 := float64(asl0.Epochs.ByClass(stats.Little).P99())
	mp99 := float64(mcs.Epochs.ByClass(stats.Little).P99())
	if lp99 > mp99*1.25 {
		t.Fatalf("libasl-0 little P99 %.0f vs mcs %.0f: fallback broken", lp99, mp99)
	}
}

func TestASLMaxBeatsAllBaselinesUnderContention(t *testing.T) {
	max := RunMicro(shortBench1(KindASL, -1)).Throughput
	for _, k := range []LockKind{KindMCS, KindTicket, KindPthread} {
		base := RunMicro(shortBench1(k, -1)).Throughput
		if max <= base {
			t.Errorf("libasl-max (%.0f) must beat %v (%.0f) on Bench-1", max, k, base)
		}
	}
}

func TestASLThroughputMonotoneInSLO(t *testing.T) {
	// Larger SLOs can only help throughput (Fig. 8b's monotone curve).
	var last float64
	for _, slo := range []int64{0, 40_000, 80_000, 120_000} {
		thr := RunMicro(shortBench1(KindASL, slo)).Throughput
		if thr < last*0.93 { // 7% tolerance for sampling noise
			t.Fatalf("throughput fell from %.0f to %.0f at SLO %d", last, thr, slo)
		}
		if thr > last {
			last = thr
		}
	}
}

func TestASLLittleP99TracksSLO(t *testing.T) {
	// The headline property (Fig. 8b): once the SLO is achievable, the
	// little-core P99 sits at the SLO (within the histogram's bucket
	// error plus scheduling slack), never far above it.
	for _, slo := range []int64{50_000, 80_000, 110_000} {
		r := RunMicro(shortBench1(KindASL, slo))
		p99 := r.Epochs.ByClass(stats.Little).P99()
		if float64(p99) > float64(slo)*1.15 {
			t.Errorf("SLO %d: little P99 %d exceeds SLO by >15%%", slo, p99)
		}
		if float64(p99) < float64(slo)*0.5 {
			t.Errorf("SLO %d: little P99 %d far below SLO — reordering not exploited", slo, p99)
		}
	}
}

func TestMCSCollapseOnLittleCores(t *testing.T) {
	// Fig. 1a: MCS throughput must drop >35% from 4 threads (bigs
	// only) to 8 threads (bigs + littles).
	at := func(n int) float64 {
		cfg := collapseConfig(n, 4, KindMCS)
		cfg.Duration = 60_000_000
		cfg.Warmup = 15_000_000
		return RunMicro(cfg).Throughput
	}
	t4, t8 := at(4), at(8)
	if t8 > t4*0.65 {
		t.Fatalf("MCS 4→8 threads: %.0f → %.0f, want >35%% collapse", t4, t8)
	}
}

func TestTASLittleAffinityCollapse(t *testing.T) {
	// Fig. 1: with little-affinity, TAS at 8 threads is below MCS in
	// throughput and far above it in P99.
	run := func(kind LockKind) *MicroResult {
		cfg := collapseConfig(8, 4, kind)
		cfg.Duration = 60_000_000
		cfg.Warmup = 15_000_000
		if kind == KindTAS {
			cfg.TASAff = littleAffinity
		}
		return RunMicro(cfg)
	}
	mcs, tas := run(KindMCS), run(KindTAS)
	if tas.Throughput >= mcs.Throughput {
		t.Errorf("little-affinity TAS throughput (%.0f) should trail MCS (%.0f)", tas.Throughput, mcs.Throughput)
	}
	if tas.LockSection.Overall().P99() < 3*mcs.LockSection.Overall().P99() {
		t.Errorf("little-affinity TAS P99 (%d) should be multiples of MCS (%d)",
			tas.LockSection.Overall().P99(), mcs.LockSection.Overall().P99())
	}
}

func TestTASBigAffinityBeatsMCSThroughput(t *testing.T) {
	// Fig. 4: big-affinity TAS beats MCS on throughput at 8 threads
	// while collapsing latency for little cores.
	run := func(kind LockKind) *MicroResult {
		cfg := collapseConfig(8, 64, kind)
		cfg.Duration = 60_000_000
		cfg.Warmup = 15_000_000
		if kind == KindTAS {
			cfg.TASAff = bigAffinity
		}
		return RunMicro(cfg)
	}
	mcs, tas := run(KindMCS), run(KindTAS)
	if tas.Throughput <= mcs.Throughput {
		t.Errorf("big-affinity TAS (%.0f) should beat MCS (%.0f)", tas.Throughput, mcs.Throughput)
	}
	if tas.LockSection.ByClass(stats.Little).P99() <= mcs.LockSection.ByClass(stats.Little).P99() {
		t.Errorf("big-affinity TAS must hurt little-core latency")
	}
}

func TestProportionalTradeoffMonotone(t *testing.T) {
	// Fig. 5: throughput and P99 both grow with the proportion N.
	thrAt := func(n int) (float64, int64) {
		cfg := Bench1Config(KindSHFLPB, -1)
		cfg.PBn = n
		cfg.Duration = 60_000_000
		cfg.Warmup = 15_000_000
		r := RunMicro(cfg)
		return r.Throughput, r.Epochs.Overall().P99()
	}
	t1, p1 := thrAt(1)
	t20, p20 := thrAt(20)
	if t20 <= t1 {
		t.Errorf("throughput should grow with N: N=1 %.0f, N=20 %.0f", t1, t20)
	}
	if p20 <= p1 {
		t.Errorf("P99 should grow with N: N=1 %d, N=20 %d", p1, p20)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := RunMicro(shortBench1(KindASL, 50_000))
	b := RunMicro(shortBench1(KindASL, 50_000))
	if a.Throughput != b.Throughput {
		t.Fatalf("same seed must reproduce identical throughput: %.0f vs %.0f", a.Throughput, b.Throughput)
	}
	if a.Epochs.Overall().P99() != b.Epochs.Overall().P99() {
		t.Fatal("same seed must reproduce identical P99")
	}
}

func TestFig8dAdaptivityPhases(t *testing.T) {
	// Cheap enough (virtual time) to run in -short as well.
	f, trace := Fig8d()
	if trace.Len() == 0 {
		t.Fatal("no trace samples")
	}
	s, ok := findSeries(f, "window-p99")
	if !ok {
		t.Fatal("missing window-p99 series")
	}
	const slo = 100_000.0
	check := func(fromMs, toMs float64, pred func(y float64) bool, what string) {
		for _, p := range s.Points {
			if p.X >= fromMs && p.X < toMs && !pred(p.Y) {
				t.Errorf("%s violated at %vms: p99=%v", what, p.X, p.Y)
			}
		}
	}
	// Steady phases: far below SLO. x128 phase (after the adaptation
	// window at 100ms): bounded by the SLO. x1024 phase: far above it
	// (FIFO fallback; the SLO is impossible).
	check(10, 100, func(y float64) bool { return y < slo/10 }, "baseline phase")
	check(110, 200, func(y float64) bool { return y < slo*1.1 }, "x128 phase under SLO")
	check(210, 250, func(y float64) bool { return y < slo/10 }, "recovery phase")
	check(250, 300, func(y float64) bool { return y < slo*1.1 }, "random phase under SLO")
	check(310, 350, func(y float64) bool { return y > slo*2 }, "x1024 fallback phase")
}

func TestFig8hOversubscription(t *testing.T) {
	// A tenth of the figure's virtual duration, in -short and full runs
	// alike: longer runs only sharpen the P99 estimates, not the
	// orderings.
	short := func(kind LockKind, slo int64) MicroConfig {
		cfg := OversubConfig(kind, slo)
		cfg.Duration = 200_000_000
		cfg.Warmup = 50_000_000
		return cfg
	}
	pthread := RunMicro(short(KindPthread, -1)).Throughput
	stp := RunMicro(short(KindMCSSTP, -1)).Throughput
	asl := RunMicro(short(KindASL, 3_000_000))
	max := RunMicro(short(KindASL, -1)).Throughput
	if stp >= pthread {
		t.Errorf("MCS-STP (%.0f) must collapse below pthread (%.0f)", stp, pthread)
	}
	if asl.Throughput <= pthread {
		t.Errorf("blocking LibASL (%.0f) must beat pthread (%.0f)", asl.Throughput, pthread)
	}
	if max <= pthread {
		t.Errorf("LibASL-MAX (%.0f) must beat pthread (%.0f)", max, pthread)
	}
	if p99 := asl.Epochs.ByClass(stats.Little).P99(); p99 > 3_450_000 {
		t.Errorf("blocking LibASL little P99 %d exceeds the 3ms SLO by >15%%", p99)
	}
}

func TestDBComparisonShapes(t *testing.T) {
	// Every template's rows that the checks read, at a tenth of the
	// published virtual duration, in -short and full runs alike: each
	// checked ordering already holds there, and the simulator is
	// deterministic, so the full duration would only sharpen numbers no
	// assertion reads.
	for _, tpl := range AllDBTemplates() {
		rows := map[string]stats.Summary{}
		for _, row := range dbComparisonRows(tpl) {
			switch row.name {
			case "mcs", "libasl-0", "libasl-max", "pthread", "tas":
				row.cfg.Duration /= 10
				row.cfg.Warmup /= 10
				rows[row.name] = RunMicro(row.cfg).Summary(row.name)
			}
		}
		mcs := rows["mcs"]
		asl0 := rows["libasl-0"]
		max := rows["libasl-max"]
		pthread := rows["pthread"]
		if r := asl0.Throughput / mcs.Throughput; r < 0.9 || r > 1.1 {
			t.Errorf("%s: libasl-0/mcs = %.2f, want ~1", tpl.Name, r)
		}
		if max.Throughput <= mcs.Throughput {
			t.Errorf("%s: libasl-max (%.0f) must beat mcs (%.0f)", tpl.Name, max.Throughput, mcs.Throughput)
		}
		if pthread.Throughput >= max.Throughput {
			t.Errorf("%s: pthread (%.0f) must trail libasl-max (%.0f)", tpl.Name, pthread.Throughput, max.Throughput)
		}
		tas := rows["tas"]
		if tpl.TASBigAffinity {
			if tas.Throughput <= mcs.Throughput {
				t.Errorf("%s: big-affinity TAS should beat MCS", tpl.Name)
			}
		} else if tas.Throughput >= mcs.Throughput*1.05 {
			t.Errorf("%s: little-affinity TAS should not beat MCS", tpl.Name)
		}
	}
}

func TestDBCDFWellFormed(t *testing.T) {
	scale := int64(1)
	if testing.Short() {
		scale = 4
	}
	f := DBCDFScaled(UpscaleTemplate(), scale)
	overall, ok := findSeries(f, "overall")
	if !ok || len(overall.Points) == 0 {
		t.Fatal("missing overall CDF")
	}
	last := overall.Points[len(overall.Points)-1]
	if last.Y != 1.0 {
		t.Fatalf("CDF must end at 1, got %v", last.Y)
	}
	for i := 1; i < len(overall.Points); i++ {
		if overall.Points[i].Y < overall.Points[i-1].Y {
			t.Fatal("CDF not monotone")
		}
	}
}

// TestControllerOverrideReachesLittleWorkers: the controller a config
// names (LibASL-OPT's static window) is the one every little worker's
// epoch runs, not the default AIMD.
func TestControllerOverrideReachesLittleWorkers(t *testing.T) {
	cfg := shortBench1(KindASL, 50_000)
	cfg.Duration, cfg.Warmup = 5_000_000, 0
	const w = 12_345
	cfg.Controller = func() core.Controller { return &core.Static{W: w} }
	res := RunMicro(cfg)
	if len(res.FinalWindows) == 0 {
		t.Fatal("no little worker reported a window")
	}
	for i, got := range res.FinalWindows {
		if got != w {
			t.Fatalf("little worker %d ended with window %d, want the static %d", i, got, w)
		}
	}
}

func TestOptControllerBeatsNothing(t *testing.T) {
	// Sanity on the Compare helper and variants plumbing.
	f := Compare(shortBench1(KindMCS, -1), []Variant{
		{Name: "mcs", Apply: func(cfg *MicroConfig) { cfg.Kind = KindMCS }},
		{Name: "ticket", Apply: func(cfg *MicroConfig) { cfg.Kind = KindTicket }},
	}, false)
	if len(f.Rows) != 2 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	if _, ok := findRow(f, "ticket"); !ok {
		t.Fatal("missing ticket row")
	}
}
