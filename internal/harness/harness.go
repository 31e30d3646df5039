// Package harness holds the result container the simulator's figure
// reproductions return: the paper's figure types (comparison bars, x/y
// series, CDFs) with aligned-text and CSV rendering.
package harness

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// Point is one (x, y) pair of a series.
type Point struct {
	X, Y float64
}

// Series is one named line of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{X: x, Y: y}) }

// Figure is the result of reproducing one paper figure: either bar rows
// (Summary per lock), line series, or both, plus free-form notes.
type Figure struct {
	ID     string // e.g. "fig8a"
	Title  string
	XLabel string
	YLabel string
	Rows   []stats.Summary
	Series []Series
	Notes  []string
}

// Note appends a free-form annotation rendered with the figure.
func (f *Figure) Note(format string, args ...any) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}

// Render returns an aligned-text view of the figure.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	if len(f.Rows) > 0 {
		b.WriteString(stats.FormatSummaries(f.Rows))
	}
	if len(f.Series) > 0 {
		if f.XLabel != "" || f.YLabel != "" {
			fmt.Fprintf(&b, "x=%s  y=%s\n", f.XLabel, f.YLabel)
		}
		for _, s := range f.Series {
			fmt.Fprintf(&b, "%s:\n", s.Name)
			for _, p := range s.Points {
				fmt.Fprintf(&b, "  %14.3f %14.3f\n", p.X, p.Y)
			}
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the series of the figure as long-format CSV
// (series,x,y), or the rows if the figure is a bar comparison.
func (f *Figure) CSV() string {
	var b strings.Builder
	if len(f.Series) > 0 {
		b.WriteString("series,x,y\n")
		for _, s := range f.Series {
			for _, p := range s.Points {
				fmt.Fprintf(&b, "%s,%g,%g\n", s.Name, p.X, p.Y)
			}
		}
		return b.String()
	}
	b.WriteString("name,throughput,big_p99_ns,little_p99_ns,overall_p99_ns\n")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%s,%.0f,%d,%d,%d\n", r.Name, r.Throughput, r.BigP99, r.LittleP99, r.OverallP99)
	}
	return b.String()
}

// CDFFigure renders a latency CDF (paper Figs. 9c/9f/9i/10c/10f) from
// overall and little-core histograms.
func CDFFigure(id, title string, sloNs int64, overall, little *stats.Histogram, maxPoints int) *Figure {
	f := &Figure{ID: id, Title: title, XLabel: "latency_ns", YLabel: "cumulative probability"}
	toSeries := func(name string, pts []stats.CDFPoint) Series {
		s := Series{Name: name}
		for _, p := range pts {
			s.Add(float64(p.Value), p.Probability)
		}
		return s
	}
	f.Series = append(f.Series,
		toSeries("overall", overall.CDF(maxPoints)),
		toSeries("little", little.CDF(maxPoints)))
	f.Note("SLO=%dns halfSLO=%dns", sloNs, sloNs/2)
	return f
}
