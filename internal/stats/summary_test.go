package stats

import (
	"slices"
	"strings"
	"testing"
	"time"
)

func TestClassedRecorder(t *testing.T) {
	r := NewClassedRecorder()
	for i := 0; i < 100; i++ {
		r.Record(Big, 100)
		r.Record(Little, 1000)
	}
	if r.Ops(Big) != 100 || r.Ops(Little) != 100 || r.TotalOps() != 200 {
		t.Fatalf("ops miscounted: %d/%d", r.Ops(Big), r.Ops(Little))
	}
	if got := r.ByClass(Big).P99(); got != 100 {
		t.Errorf("big P99 = %d, want 100", got)
	}
	if got := r.ByClass(Little).P99(); got != 1000 {
		t.Errorf("little P99 = %d, want 1000", got)
	}
	if got := r.Overall().P99(); got != 1000 {
		t.Errorf("overall P99 = %d, want 1000", got)
	}
	if got := r.Overall().P50(); got != 1000 && got != 100 {
		t.Errorf("overall P50 = %d, want one of the recorded values", got)
	}
}

func TestClassedRecorderMerge(t *testing.T) {
	a, b := NewClassedRecorder(), NewClassedRecorder()
	a.Record(Big, 10)
	b.Record(Little, 20)
	b.Record(Big, 30)
	a.Merge(b)
	if a.TotalOps() != 3 || a.Ops(Big) != 2 || a.Ops(Little) != 1 {
		t.Fatalf("merge miscounted: total=%d", a.TotalOps())
	}
	a.Merge(nil) // must not panic
}

func TestSummarize(t *testing.T) {
	r := NewClassedRecorder()
	for i := 0; i < 1000; i++ {
		r.Record(Big, int64(i))
	}
	s := r.Summarize("test", time.Second)
	if s.Throughput != 1000 {
		t.Errorf("throughput = %v, want 1000", s.Throughput)
	}
	if s.Name != "test" || s.BigOps != 1000 || s.LittleOps != 0 {
		t.Errorf("summary fields wrong: %+v", s)
	}
	if s.String() == "" || !strings.Contains(s.String(), "test") {
		t.Error("summary string should mention the name")
	}
	// Zero elapsed must not divide by zero.
	z := r.Summarize("z", 0)
	if z.Throughput != 0 {
		t.Errorf("zero-elapsed throughput = %v, want 0", z.Throughput)
	}
}

// TestFormatSummaries checks the table carries every row and that a
// name longer than the default column (kvbench's engine/mix/lock rows
// are) widens it for every line: each right-aligned column ends at the
// same offset in the header and in every row.
func TestFormatSummaries(t *testing.T) {
	long := strings.Repeat("x", 30)
	rows := []Summary{
		{Name: "mcs", Throughput: 100, BigP99: 1000, LittleP99: 2000, OverallP99: 1500, BigOps: 7, LittleOps: 9},
		{Name: "tas", Throughput: 200, BigP99: 500, LittleP99: 9000, OverallP99: 8000},
		{Name: long, Throughput: 123456, BigP99: 500, LittleP99: 9_000_000, OverallP99: 8000, BigOps: 70, LittleOps: 90000},
	}
	out := FormatSummaries(rows)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected header + 3 rows:\n%s", out)
	}
	for i, r := range rows {
		if !strings.HasPrefix(lines[i+1], r.Name+" ") {
			t.Errorf("row %d does not start with %q:\n%s", i, r.Name, out)
		}
	}
	// colEnds returns where each field after the name ends, in runes
	// (durations print a two-byte µ).
	colEnds := func(line string) []int {
		var ends []int
		r := []rune(line)
		for i := range r {
			if r[i] != ' ' && (i+1 == len(r) || r[i+1] == ' ') {
				ends = append(ends, i+1)
			}
		}
		return ends[1:]
	}
	want := colEnds(lines[0])
	if len(want) != 6 {
		t.Fatalf("header has %d columns after the name, want 6:\n%s", len(want), out)
	}
	for _, line := range lines[1:] {
		if got := colEnds(line); !slices.Equal(got, want) {
			t.Errorf("columns end at %v, header's at %v:\n%s", got, want, out)
		}
	}
}
