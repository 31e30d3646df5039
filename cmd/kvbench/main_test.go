package main

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// TestExpandLocksRowNames pins the row family each flag combination
// produces, and that each row's name says what it runs.
func TestExpandLocksRowNames(t *testing.T) {
	base := []lockSpec{{name: "asl", slo: true}, {name: "mutex"}}
	for _, tc := range []struct {
		name         string
		pipeline, ff bool
		want         string // per base lock, "X" standing for its name
	}{
		{"plain", false, false, "X"},
		{"pipeline", true, false, "X pipe-X"},
		{"ff", false, true, "X pipe-ff-X"},
		{"everything", true, true, "X pipe-X pipe-ff-X"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want []string
			for _, b := range base {
				want = append(want, strings.Fields(strings.ReplaceAll(tc.want, "X", b.name))...)
			}
			var names []string
			for _, lk := range expandLocks(base, tc.pipeline, tc.ff) {
				names = append(names, lk.name)
				has := func(part string) bool { return strings.Contains(lk.name, part) }
				type flags struct{ slo, pipe, ff bool }
				got := flags{lk.slo, lk.pipe, lk.ff}
				named := flags{strings.HasSuffix(lk.name, "asl"), has("pipe-"), has("-ff-")}
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
		{"-pipebatch", func(c *benchConfig) { c.pipeBatch = -1 }},
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
