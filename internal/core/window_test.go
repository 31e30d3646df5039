package core

import (
	"testing"
	"testing/quick"
)

func TestAIMDDefaults(t *testing.T) {
	a := NewAIMD(AIMDConfig{})
	if a.Window() != DefaultInitWindow {
		t.Fatalf("initial window = %d, want %d", a.Window(), DefaultInitWindow)
	}
	if a.Unit() != DefaultInitWindow/100 {
		t.Fatalf("initial unit = %d, want %d", a.Unit(), DefaultInitWindow/100)
	}
}

func TestAIMDViolationHalves(t *testing.T) {
	a := NewAIMD(AIMDConfig{InitWindow: 1000})
	a.Observe(2000, 1000) // latency above SLO
	if a.Window() != 500 {
		t.Fatalf("window after violation = %d, want 500", a.Window())
	}
	// unit = 500 * 1/100 = 5, but floored at MinUnit.
	if a.Unit() != DefaultMinUnit {
		t.Fatalf("unit = %d, want MinUnit %d", a.Unit(), DefaultMinUnit)
	}
}

func TestAIMDComplianceGrowsLinearly(t *testing.T) {
	a := NewAIMD(AIMDConfig{InitWindow: 100_000})
	w0, u := a.Window(), a.Unit()
	for i := 1; i <= 10; i++ {
		a.Observe(10, 1_000_000)
		if got, want := a.Window(), w0+int64(i)*u; got != want {
			t.Fatalf("after %d compliant epochs window = %d, want %d", i, got, want)
		}
	}
}

func TestAIMDEquality(t *testing.T) {
	// latency == SLO is compliant (paper: "latency > SLO" triggers the
	// reduction).
	a := NewAIMD(AIMDConfig{InitWindow: 1000})
	a.Observe(1000, 1000)
	if a.Window() <= 1000 {
		t.Fatalf("latency == SLO must grow the window, got %d", a.Window())
	}
}

func TestAIMDWindowCapped(t *testing.T) {
	a := NewAIMD(AIMDConfig{InitWindow: 100, MaxWindow: 1000, MinUnit: 600})
	for i := 0; i < 100; i++ {
		a.Observe(0, 1<<40)
	}
	if a.Window() != 1000 {
		t.Fatalf("window = %d, want capped at 1000", a.Window())
	}
}

func TestAIMDRecoversFromZero(t *testing.T) {
	// Algorithm 2 as printed freezes at window 0 (unit truncates to 0);
	// the MinUnit floor must allow recovery once the SLO is met again.
	a := NewAIMD(AIMDConfig{InitWindow: 64})
	for i := 0; i < 30; i++ {
		a.Observe(1<<40, 1) // hopeless SLO: window collapses to 0
	}
	if a.Window() != 0 {
		t.Fatalf("window should be 0 after sustained violations, got %d", a.Window())
	}
	a.Observe(0, 1<<40) // compliant again
	if a.Window() <= 0 {
		t.Fatal("window must recover from 0 via the MinUnit floor")
	}
}

func TestAIMDPercentileScalesUnit(t *testing.T) {
	// With PCT=90, unit = 10% of the reduced window, so regrowth takes
	// ~10 compliant epochs — the paper's 100/(100-PCT) bound.
	a := NewAIMD(AIMDConfig{InitWindow: 1 << 20, Percentile: 90})
	a.Observe(2, 1) // violation: window = 1<<19, unit = 10% of that
	w, u := a.Window(), a.Unit()
	if u != w/10 {
		t.Fatalf("unit = %d, want %d (10%% of window)", u, w/10)
	}
	for i := 0; i < 10; i++ {
		a.Observe(0, 1<<40)
	}
	if got, want := a.Window(), w+10*u; got != want {
		t.Fatalf("after 10 compliant epochs window = %d, want %d", got, want)
	}
}

func TestAIMDReset(t *testing.T) {
	a := NewAIMD(AIMDConfig{InitWindow: 5000})
	a.Observe(10, 1<<40)
	a.Reset()
	if a.Window() != 5000 {
		t.Fatalf("reset window = %d, want 5000", a.Window())
	}
}

// TestAIMDInvariants property-checks the controller: the window never
// exceeds MaxWindow, never goes negative, violations never grow it,
// and compliance never shrinks it.
func TestAIMDInvariants(t *testing.T) {
	f := func(lat, slo uint32, steps uint8) bool {
		a := NewAIMD(AIMDConfig{InitWindow: 10_000, MaxWindow: 1_000_000})
		for i := 0; i < int(steps%64)+1; i++ {
			before := a.Window()
			a.Observe(int64(lat), int64(slo))
			after := a.Window()
			if after < 0 || after > 1_000_000 {
				return false
			}
			if int64(lat) > int64(slo) && after > before {
				return false
			}
			if int64(lat) <= int64(slo) && after < before {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStaticController(t *testing.T) {
	s := &Static{W: 777}
	s.Observe(1<<40, 1)
	if s.Window() != 777 {
		t.Fatal("static controller must never change")
	}
}
