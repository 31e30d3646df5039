package figures_test

import (
	"fmt"

	"repro/internal/figures"
)

// ExampleSLOSweep profiles a shortened Bench-1 at five SLOs from 0 to
// 100 µs and prints the graph's x-axis, in µs.
func ExampleSLOSweep() {
	bench1 := func(slo int64) figures.MicroConfig {
		cfg := figures.Bench1Config(figures.KindASL, slo)
		cfg.Duration, cfg.Warmup = 5_000_000, 1_000_000
		return cfg
	}
	f := figures.SLOSweep("sweep", "short Bench-1", bench1, 0, 100_000, 5)
	var slos []float64
	for _, s := range f.Series {
		if s.Name == "throughput" {
			for _, p := range s.Points {
				slos = append(slos, p.X)
			}
		}
	}
	fmt.Println(slos)
	// Output: [0 25 50 75 100]
}
