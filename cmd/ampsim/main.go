// Command ampsim regenerates the paper's evaluation figures on the
// deterministic discrete-event AMP simulator: the micro-benchmarks
// (Figs. 1, 4, 5, 8a–8i), the database studies (Figs. 9/10 as
// <db>-cmp, <db>-slos and <db>-cdf for kyoto, upscaledb, lmdb,
// leveldb and sqlite) and the cross-platform summary ("platforms").
// Output is aligned text by default, CSV with -csv.
//
// Usage:
//
//	ampsim -fig 8a               # one figure
//	ampsim -fig upscaledb-cmp    # Fig. 9d
//	ampsim -fig all              # everything (minutes)
//	ampsim -fig 8d -trace t.csv  # also dump the Bench-2 trace
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/figures"
	"repro/internal/harness"
	"repro/internal/stats"
)

func main() {
	fig := flag.String("fig", "8a", "figure to regenerate: 1,4,5,8a..8i or 'all'")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	trace := flag.String("trace", "", "with -fig 8d: write the raw per-epoch trace CSV to this file")
	flag.Parse()

	runners := map[string]func() *harness.Figure{
		"1":  figures.Fig1,
		"4":  figures.Fig4,
		"5":  figures.Fig5,
		"8a": figures.Fig8a,
		"8b": figures.Fig8b,
		"8c": figures.Fig8c,
		"8e": figures.Fig8e,
		"8f": figures.Fig8f,
		"8g": figures.Fig8g,
		"8h": figures.Fig8h,
		"8i": figures.Fig8i,
	}
	// Database figures (9a..9i, 10a..10f): comparison bars, SLO sweep
	// and latency CDF per database template.
	for _, tpl := range figures.AllDBTemplates() {
		tpl := tpl
		runners[tpl.Name+"-cmp"] = func() *harness.Figure { return figures.DBComparison(tpl) }
		runners[tpl.Name+"-slos"] = func() *harness.Figure { return figures.DBSLOSweep(tpl) }
		runners[tpl.Name+"-cdf"] = func() *harness.Figure { return figures.DBCDF(tpl) }
	}
	runners["platforms"] = func() *harness.Figure {
		rows, f := figures.PlatformStudy()
		fmt.Print(figures.FormatPlatformRows(rows))
		return f
	}
	order := []string{"1", "4", "5", "8a", "8b", "8c", "8d", "8e", "8f", "8g", "8h", "8i",
		"kyoto-cmp", "kyoto-slos", "kyoto-cdf",
		"upscaledb-cmp", "upscaledb-slos", "upscaledb-cdf",
		"lmdb-cmp", "lmdb-slos", "lmdb-cdf",
		"leveldb-cmp", "leveldb-slos", "leveldb-cdf",
		"sqlite-cmp", "sqlite-slos", "sqlite-cdf",
		"platforms",
	}

	var names []string
	if strings.EqualFold(*fig, "all") {
		names = order
	} else {
		names = strings.Split(*fig, ",")
	}
	for _, name := range names {
		name = strings.TrimSpace(strings.TrimPrefix(name, "fig"))
		start := time.Now()
		var f *harness.Figure
		var tr *stats.TimeSeries
		if name == "8d" {
			f, tr = figures.Fig8d()
		} else if run, ok := runners[name]; ok {
			f = run()
		} else {
			fmt.Fprintf(os.Stderr, "ampsim: unknown figure %q\n", name)
			os.Exit(2)
		}
		if *csv {
			fmt.Print(f.CSV())
		} else {
			fmt.Print(f.Render())
		}
		fmt.Printf("-- %s regenerated in %v --\n\n", f.ID, time.Since(start).Round(time.Millisecond))
		if name == "8d" && *trace != "" && tr != nil {
			if err := os.WriteFile(*trace, []byte(tr.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "ampsim: writing trace: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "trace written to %s (%d samples)\n", *trace, tr.Len())
		}
	}
}
