// Package stats provides series, tables and their plain-text and CSV
// renderers used by the experiment harness.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Point is one (X, Y) sample of a Series.
type Point struct {
	X, Y float64
}

// Series is a named sequence of points, e.g. one line on a figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// YAt returns the Y value at the first point with the given X.
func (s *Series) YAt(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// MaxY returns the largest Y in the series, or 0 when empty.
func (s *Series) MaxY() float64 {
	m := math.Inf(-1)
	for _, p := range s.Points {
		if p.Y > m {
			m = p.Y
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}

// MinY returns the smallest Y in the series, or 0 when empty.
func (s *Series) MinY() float64 {
	m := math.Inf(1)
	for _, p := range s.Points {
		if p.Y < m {
			m = p.Y
		}
	}
	if math.IsInf(m, 1) {
		return 0
	}
	return m
}

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	ncols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > ncols {
			ncols = len(r)
		}
	}
	width := make([]int, ncols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(r []string) {
		for i := 0; i < ncols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteString("\n")
	}
	if len(t.Headers) > 0 {
		writeRow(t.Headers)
		var sep []string
		for i := 0; i < ncols; i++ {
			sep = append(sep, strings.Repeat("-", width[i]))
		}
		writeRow(sep)
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// RenderSeries renders a set of series as an aligned text block with one
// row per distinct X, in ascending order — the textual equivalent of a
// multi-line figure.
func RenderSeries(title, xlabel string, series []*Series) string {
	xs := map[float64]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)

	tbl := Table{Title: title, Headers: []string{xlabel}}
	for _, s := range series {
		tbl.Headers = append(tbl.Headers, s.Name)
	}
	for _, x := range sorted {
		row := []string{trimFloat(x)}
		for _, s := range series {
			if y, ok := s.YAt(x); ok {
				row = append(row, fmt.Sprintf("%.4g", y))
			} else {
				row = append(row, "-")
			}
		}
		tbl.AddRow(row...)
	}
	return tbl.String()
}

func trimFloat(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e15 {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%g", x)
}

// Speedup returns base/v — the conventional "times faster than baseline"
// metric for run times (larger is better).
func Speedup(baseline, v float64) float64 {
	if v == 0 {
		return math.Inf(1)
	}
	return baseline / v
}

// GeoMean returns the geometric mean of vs (all must be positive).
func GeoMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			panic("stats: GeoMean requires positive values")
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}
