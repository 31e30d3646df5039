package harness

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

// FindRow returns the summary row with the given name.
func (f *Figure) FindRow(name string) (stats.Summary, bool) {
	for _, r := range f.Rows {
		if r.Name == name {
			return r, true
		}
	}
	return stats.Summary{}, false
}

// FindSeries returns the series with the given name.
func (f *Figure) FindSeries(name string) (Series, bool) {
	for _, s := range f.Series {
		if s.Name == name {
			return s, true
		}
	}
	return Series{}, false
}

func TestFigureRenderAndCSV(t *testing.T) {
	f := &Figure{ID: "figX", Title: "test figure", XLabel: "x", YLabel: "y"}
	f.Series = append(f.Series, Series{Name: "a", Points: []Point{{1, 2}}})
	f.Note("hello %d", 42)
	out := f.Render()
	for _, want := range []string{"figX", "test figure", "a:", "hello 42"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	csv := f.CSV()
	if !strings.HasPrefix(csv, "series,x,y\n") || !strings.Contains(csv, "a,1,2") {
		t.Errorf("csv wrong:\n%s", csv)
	}
}

func TestFigureRowsCSV(t *testing.T) {
	f := &Figure{ID: "figY"}
	f.Rows = append(f.Rows, stats.Summary{Name: "mcs", Throughput: 123, BigP99: 1, LittleP99: 2, OverallP99: 3})
	csv := f.CSV()
	if !strings.Contains(csv, "mcs,123,1,2,3") {
		t.Errorf("rows csv wrong:\n%s", csv)
	}
	if _, ok := f.FindRow("mcs"); !ok {
		t.Fatal("FindRow failed")
	}
	if _, ok := f.FindRow("nope"); ok {
		t.Fatal("FindRow found a ghost")
	}
}

func TestCDFFigure(t *testing.T) {
	overall, little := stats.NewHistogram(), stats.NewHistogram()
	for i := int64(1); i <= 1000; i++ {
		overall.Record(i)
		if i%2 == 0 {
			little.Record(i)
		}
	}
	f := CDFFigure("cdf", "t", 500, overall, little, 16)
	ov, ok := f.FindSeries("overall")
	if !ok || len(ov.Points) == 0 || len(ov.Points) > 16 {
		t.Fatalf("overall CDF wrong: %d points", len(ov.Points))
	}
	if ov.Points[len(ov.Points)-1].Y != 1 {
		t.Fatal("CDF must end at probability 1")
	}
	if _, ok := f.FindSeries("little"); !ok {
		t.Fatal("missing little series")
	}
}
