package core_test

import (
	"fmt"

	"repro/internal/core"
)

// ExampleAIMD shows the paper's window update (Algorithm 2): halve on
// an SLO violation, grow linearly by (100-PCT)% of the window while
// compliant.
func ExampleAIMD() {
	a := core.NewAIMD(core.AIMDConfig{InitWindow: 1 << 20, Percentile: 99})

	before := a.Window()
	a.Observe(2_000_000, 1_000_000) // latency 2ms > SLO 1ms: violation
	afterViolation := a.Window()
	a.Observe(500_000, 1_000_000) // compliant: grow by one unit
	afterCompliance := a.Window()

	fmt.Println(afterViolation == before/2, afterCompliance > afterViolation)
	// Output: true true
}

// ExampleWorker_nested shows nested epochs: the innermost epoch's
// window governs lock acquisition (§3.4).
func ExampleWorker_nested() {
	w := core.NewWorker(core.WorkerConfig{Class: core.Little})

	w.EpochStart(1) // outer: whole request
	w.EpochStart(2) // inner: one latency-critical step
	fmt.Println(w.CurrentEpoch())
	w.EpochEnd(2, 50_000)
	fmt.Println(w.CurrentEpoch())
	w.EpochEnd(1, 1_000_000)
	fmt.Println(w.InEpoch())
	// Output:
	// 2
	// 1
	// false
}
