package figures

import (
	"testing"

	"repro/internal/stats"
)

func TestSLORange(t *testing.T) {
	got := sloRange(0, 100, 11)
	if len(got) != 11 || got[0] != 0 || got[10] != 100 || got[5] != 50 {
		t.Fatalf("sloRange = %v", got)
	}
	if one := sloRange(5, 5, 3); len(one) != 1 || one[0] != 5 {
		t.Fatalf("degenerate range = %v", one)
	}
}

// TestSLOSweep checks the sweep runs its workload once per SLO and
// plots exactly what that run measured, at the SLO in µs.
func TestSLOSweep(t *testing.T) {
	short := func(slo int64) MicroConfig {
		cfg := Bench1Config(KindASL, slo)
		cfg.Duration, cfg.Warmup = 10_000_000, 2_000_000
		return cfg
	}
	f := SLOSweep("sweep", "short Bench-1", short, 20*microsecond, 60*microsecond, 2)
	for i, slo := range []int64{20 * microsecond, 60 * microsecond} {
		r := RunMicro(short(slo))
		for _, want := range []struct {
			series string
			y      float64
		}{
			{"big-p99", float64(r.Epochs.ByClass(stats.Big).P99())},
			{"little-p99", float64(r.Epochs.ByClass(stats.Little).P99())},
			{"overall-p99", float64(r.Epochs.Overall().P99())},
			{"throughput", r.Throughput},
		} {
			s, ok := findSeries(f, want.series)
			if !ok || len(s.Points) != 2 {
				t.Fatalf("series %q: found %v, %d points; want 2", want.series, ok, len(s.Points))
			}
			if p := s.Points[i]; p.X != float64(slo/microsecond) || p.Y != want.y {
				t.Errorf("%s at SLO %d ns = (%v, %v), want (%v, %v)", want.series, slo, p.X, p.Y, slo/microsecond, want.y)
			}
		}
	}
}
