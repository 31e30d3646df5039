package main

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/shardedkv"
)

// TestExpandLocksRowNames pins the row family each flag combination
// produces, and that each row's name says what it runs.
func TestExpandLocksRowNames(t *testing.T) {
	base := []lockSpec{{name: "asl", slo: true}, {name: "mutex"}}
	for _, tc := range []struct {
		name     string
		pipeline bool
		want     string // per base lock, "X" standing for its name
	}{
		{"plain", false, "X"},
		{"pipeline", true, "X pipe-X"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want []string
			for _, b := range base {
				want = append(want, strings.Fields(strings.ReplaceAll(tc.want, "X", b.name))...)
			}
			var names []string
			for _, lk := range expandLocks(base, tc.pipeline) {
				names = append(names, lk.name)
				type flags struct{ slo, pipe bool }
				got := flags{lk.slo, lk.pipe}
				named := flags{strings.HasSuffix(lk.name, "asl"), strings.HasPrefix(lk.name, "pipe-")}
				if got != named {
					t.Errorf("%s: %+v, but its name says %+v", lk.name, got, named)
				}
			}
			if !slices.Equal(names, want) {
				t.Fatalf("rows = %v, want %v", names, want)
			}
		})
	}
}

func TestPick(t *testing.T) {
	specs := []string{"asl", "mutex", "mcs"}
	ident := func(s string) string { return s }
	for _, tc := range []struct {
		sel     string
		want    []string
		wantErr string
	}{
		{"all", specs, ""},
		{"", specs, ""},
		{"mcs,asl", []string{"mcs", "asl"}, ""},
		{" mutex , asl", []string{"mutex", "asl"}, ""},
		{"asl, spinlock ", nil, `unknown name "spinlock"`},
		{"asl,,mcs", nil, `unknown name ""`},
	} {
		got, err := pick(tc.sel, specs, ident)
		if tc.wantErr != "" {
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("pick(%q) error = %v, want %s", tc.sel, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("pick(%q) = %v, %v; want %v", tc.sel, got, err, tc.want)
		}
	}
}

func TestSpanHiClampsAtTopOfKeySpace(t *testing.T) {
	const top = uint64(math.MaxUint64)
	for _, tc := range []struct{ lo, span, want uint64 }{
		{0, 1, 0},
		{10, 256, 265},
		{top - 255, 256, top},
		{top - 254, 256, top},
		{top, 1, top},
		{top, 256, top},
		{5, top, top},
	} {
		if got := spanHi(tc.lo, tc.span); got != tc.want {
			t.Errorf("spanHi(%d, %d) = %d, want %d", tc.lo, tc.span, got, tc.want)
		}
	}
}

func TestValidate(t *testing.T) {
	good := benchConfig{shards: 16, threads: 8, bigs: 4, vsize: 64, keys: 1 << 16, batch: 16, span: 256, zipfS: 0.99}
	for _, tc := range []struct {
		flag string // the flag the error must name; "" = must be accepted
		edit func(*benchConfig)
	}{
		{"", func(*benchConfig) {}},
		{"", func(c *benchConfig) { c.bigs = 0 }},
		{"", func(c *benchConfig) { c.bigs = c.threads }},
		{"", func(c *benchConfig) { c.vsize = 0 }},
		{"", func(c *benchConfig) { c.keys = 1 }},
		{"", func(c *benchConfig) { c.shards = 1 }},
		{"-shards", func(c *benchConfig) { c.shards = 0 }},
		{"-shards", func(c *benchConfig) { c.shards = -3 }},
		{"-threads", func(c *benchConfig) { c.threads, c.bigs = 0, 0 }},
		{"-bigs", func(c *benchConfig) { c.bigs = 9 }},
		{"-bigs", func(c *benchConfig) { c.bigs = -1 }},
		{"-vsize", func(c *benchConfig) { c.vsize = -1 }},
		{"-keys", func(c *benchConfig) { c.keys = 0 }},
		{"-batch", func(c *benchConfig) { c.batch = 0 }},
		{"-span", func(c *benchConfig) { c.span = 0 }},
		{"-zipf", func(c *benchConfig) { c.zipfS = 0 }},
		{"-zipf", func(c *benchConfig) { c.zipfS = 1 }},
	} {
		c := good
		tc.edit(&c)
		switch err := validate(c); {
		case tc.flag == "" && err != nil:
			t.Errorf("%+v rejected: %v", c, err)
		case tc.flag != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ")):
			t.Errorf("%+v: error = %v, want one naming %s", c, err, tc.flag)
		}
	}
}

// TestRunGridPipeRowReportsCombining runs one tiny plain row and its
// pipe- sibling: both rows must print, and only the pipe row reports
// combining counters, with lock takes, which proves it ran through
// the pipeline.
func TestRunGridPipeRowReportsCombining(t *testing.T) {
	cfg := benchConfig{shards: 2, threads: 2, bigs: 1, dur: 20 * time.Millisecond,
		warmup: 5 * time.Millisecond, slo: int64(100 * time.Microsecond),
		keys: 64, vsize: 8, batch: 4, span: 8, zipfS: 0.99}
	engs, err := pick("hashkv", shardedkv.AllEngines(), func(e shardedkv.EngineSpec) string { return e.Name })
	if err != nil {
		t.Fatal(err)
	}
	mxs, err := pick("zipf", allMixes(), func(m mixSpec) string { return m.name })
	if err != nil {
		t.Fatal(err)
	}
	lks, err := pick("asl", allLocks(), func(l lockSpec) string { return l.name })
	if err != nil {
		t.Fatal(err)
	}
	var out, progress bytes.Buffer
	runGrid(&out, &progress, engs, mxs, expandLocks(lks, true), cfg)

	for _, row := range []string{"hashkv/zipf/asl", "hashkv/zipf/pipe-asl"} {
		if !strings.Contains(out.String(), row) {
			t.Errorf("summary table lacks row %s:\n%s", row, out.String())
		}
	}
	lines := strings.Split(strings.TrimSpace(progress.String()), "\n")
	want := []string{"done: hashkv/zipf/asl", "done: hashkv/zipf/pipe-asl", "  combining: "}
	if len(lines) != len(want) {
		t.Fatalf("progress has %d lines, want %d:\n%s", len(lines), len(want), progress.String())
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i], w) {
			t.Fatalf("progress line %d = %q, want prefix %q", i, lines[i], w)
		}
	}
	var ops, takes uint64
	if _, err := fmt.Sscanf(lines[2], "  combining: %d ops / %d takes", &ops, &takes); err != nil || ops == 0 || takes == 0 {
		t.Fatalf("combining line %q: %d ops / %d takes (err %v), want both > 0", lines[2], ops, takes, err)
	}
}
