// Command sloprof is the profiling tool described in §3.1 of the paper:
// for applications without a clear latency SLO, it iterates SLO
// settings inside a given range against a representative workload and
// prints the latency-throughput graph (figures.SLOSweep) from which a
// suitable SLO can be picked: per-class epoch P99 and throughput at
// each SLO. It profiles Bench-1 on the simulator by default
// (deterministic, AMP-faithful) or a database template with -db.
//
// Usage:
//
//	sloprof -lo 0 -hi 100us -points 11   # the sweep of ampsim -fig 8b
//	sloprof -db upscaledb -hi 400us      # the sweep of ampsim -fig upscaledb-slos
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/figures"
)

func main() {
	db := flag.String("db", "", "profile a database template instead of Bench-1: kyoto|upscaledb|lmdb|leveldb|sqlite")
	lo := flag.Duration("lo", 0, "lowest SLO")
	hi := flag.Duration("hi", 100*time.Microsecond, "highest SLO")
	points := flag.Int("points", 11, "number of SLO settings")
	flag.Parse()

	name := "bench-1"
	config := func(slo int64) figures.MicroConfig { return figures.Bench1Config(figures.KindASL, slo) }
	if *db != "" {
		found := false
		for _, t := range figures.AllDBTemplates() {
			if t.Name == *db {
				name, found = t.Name, true
				config = func(slo int64) figures.MicroConfig { return figures.DBConfig(t, figures.KindASL, slo, 91) }
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "sloprof: unknown database %q\n", *db)
			os.Exit(2)
		}
	}
	f := figures.SLOSweep("sloprof", name+": latency-throughput graph", config, int64(*lo), int64(*hi), *points)
	fmt.Print(f.Render())
}
