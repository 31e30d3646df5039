// Command dbbench runs the paper's database evaluation (§4.2, Figs. 9
// and 10) against the real Go lock implementations and the from-scratch
// database engines in internal/dbs. Asymmetry is emulated with the
// calibrated work shim (workload.AsymmetryShim); on hosts without
// enough cores the numbers are sanity-level only — cmd/ampsim holds the
// shape-faithful reproduction.
//
// Usage:
//
//	dbbench -db kyoto -mode compare
//	dbbench -db sqlite -mode sweep -points 6
//	dbbench -db upscaledb -mode cdf -slo 140us
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dbbench"
	"repro/internal/dbs/kyoto"
	"repro/internal/dbs/ldb"
	"repro/internal/dbs/lmdbx"
	"repro/internal/dbs/sqlike"
	"repro/internal/dbs/upscale"
	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/stats"
	"repro/internal/workload"
)

// build constructs the chosen engine with the given lock factory.
func build(db string, f locks.Factory) (dbbench.DB, *workload.Mix, error) {
	pad := dbbench.DefaultPadder()
	switch db {
	case "kyoto":
		return kyoto.New(f, pad, kyoto.Config{}), workload.YCSBA(), nil
	case "upscaledb":
		return upscale.New(f, pad, upscale.Config{}), workload.YCSBA(), nil
	case "lmdb":
		return lmdbx.New(f, pad, lmdbx.Config{}), workload.YCSBA(), nil
	case "leveldb":
		getOnly := workload.NewMix(struct {
			Kind   workload.OpKind
			Weight int
		}{workload.OpGet, 1})
		return ldb.New(f, pad, ldb.Config{}), getOnly, nil
	case "sqlite":
		return sqlike.New(f, pad, sqlike.Config{}), workload.SQLiteMix(), nil
	default:
		return nil, nil, fmt.Errorf("unknown database %q", db)
	}
}

func main() {
	db := flag.String("db", "kyoto", "database: kyoto|upscaledb|lmdb|leveldb|sqlite")
	mode := flag.String("mode", "compare", "compare|sweep|cdf")
	dur := flag.Duration("dur", 2*time.Second, "measurement duration per configuration")
	bigs := flag.Int("bigs", 4, "big-class workers")
	littles := flag.Int("littles", 4, "little-class workers")
	slo := flag.Duration("slo", 100*time.Microsecond, "SLO for cdf mode / max for sweep")
	points := flag.Int("points", 6, "sweep points")
	flag.Parse()

	runOne := func(name string, factory locks.Factory, sloNs int64) *dbbench.Result {
		engine, mix, err := build(*db, factory)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dbbench:", err)
			os.Exit(2)
		}
		cfg := dbbench.Config{
			BigWorkers:    *bigs,
			LittleWorkers: *littles,
			Duration:      *dur,
			SLO:           sloNs,
			Mix:           mix,
			Seed:          uint64(17),
			NCSUnits:      200,
		}
		return dbbench.Run(name, engine, cfg)
	}

	switch *mode {
	case "compare":
		rows := []stats.Summary{}
		add := func(name string, f locks.Factory, sloNs int64) {
			rows = append(rows, runOne(name, f, sloNs).Summary)
			fmt.Fprintf(os.Stderr, "done: %s\n", name)
		}
		add("pthread", locks.FactoryPthread(), -1)
		add("tas", locks.FactoryTAS(core.Big, 4), -1)
		add("ticket", locks.FactoryTicket(), -1)
		add("shfl-pb10", locks.FactoryProportional(10), -1)
		add("mcs", locks.FactoryMCS(), -1)
		add("libasl-0", locks.FactoryASL(), 0)
		add("libasl-slo", locks.FactoryASL(), int64(*slo))
		add("libasl-max", locks.FactoryASL(), -1)
		fmt.Print(stats.FormatSummaries(rows))
	case "sweep":
		pts := []core.ProfilePoint{}
		for i := 0; i < *points; i++ {
			s := int64(*slo) * int64(i) / int64(*points-1)
			r := runOne(fmt.Sprintf("slo=%d", s), locks.FactoryASL(), s)
			pts = append(pts, core.ProfilePoint{
				SLO:        s,
				Throughput: r.Summary.Throughput,
				BigP99:     r.Summary.BigP99,
				LittleP99:  r.Summary.LittleP99,
				OverallP99: r.Summary.OverallP99,
			})
			fmt.Fprintf(os.Stderr, "done: slo=%v\n", time.Duration(s))
		}
		fmt.Print(core.FormatProfile(pts))
	case "cdf":
		r := runOne("libasl", locks.FactoryASL(), int64(*slo))
		f := harness.CDFFigure(*db+"-cdf", *db+" latency CDF", int64(*slo), r.Overall, r.Little, 48)
		fmt.Print(f.Render())
	default:
		fmt.Fprintf(os.Stderr, "dbbench: unknown mode %q\n", *mode)
		os.Exit(2)
	}
}
