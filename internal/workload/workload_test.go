package workload

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/prng"
)

func TestCalibrate(t *testing.T) {
	cal := Calibrate()
	if cal.NsPerUnit <= 0 || cal.NsPerUnit > 1000 {
		t.Fatalf("implausible calibration: %v ns/unit", cal.NsPerUnit)
	}
	u := cal.Units(time.Microsecond)
	if u < 1 {
		t.Fatalf("units = %d", u)
	}
	// The calibrated conversion should be within an order of magnitude
	// when re-measured (CI hosts are noisy; this is a sanity bound).
	start := time.Now()
	Spin(u * 1000)
	per := float64(time.Since(start).Nanoseconds()) / float64(u*1000)
	if per <= 0 || per/cal.NsPerUnit > 10 || cal.NsPerUnit/per > 10 {
		t.Fatalf("re-measured %v ns/unit vs calibrated %v", per, cal.NsPerUnit)
	}
}

func TestAsymmetryShim(t *testing.T) {
	shim := DefaultShim()
	if shim.CSUnits(100, core.Big) != 100 {
		t.Fatal("big class must be unscaled")
	}
	if got := shim.CSUnits(100, core.Little); got != 375 {
		t.Fatalf("little CS units = %d, want 375", got)
	}
	if got := shim.NCSUnits(100, core.Little); got != 180 {
		t.Fatalf("little NCS units = %d, want 180", got)
	}
}

func TestMixes(t *testing.T) {
	rng := prng.NewXoshiro256(1)
	counts := map[OpKind]int{}
	m := YCSBA()
	for i := 0; i < 10000; i++ {
		counts[m.Draw(rng.Uint64())]++
	}
	if counts[OpPut] < 4500 || counts[OpGet] < 4500 {
		t.Fatalf("YCSB-A mix skewed: %v", counts)
	}
}

func TestOpKindStrings(t *testing.T) {
	for _, k := range []OpKind{OpPut, OpGet, OpScan} {
		if k.String() == "unknown" || k.String() == "" {
			t.Fatalf("missing name for op %d", int(k))
		}
	}
}
