package stats

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
)

// WriteSeriesCSV emits a set of series as CSV with one row per distinct X
// (ascending) and one column per series; missing points are empty cells.
func WriteSeriesCSV(w io.Writer, xlabel string, series []*Series) error {
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

	cw := csv.NewWriter(w)
	header := []string{xlabel}
	for _, s := range series {
		header = append(header, s.Name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, x := range sorted {
		row := []string{trimFloat(x)}
		for _, s := range series {
			if y, ok := s.YAt(x); ok {
				row = append(row, formatCell(y))
			} else {
				row = append(row, "")
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatCell(y float64) string {
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return ""
	}
	return fmt.Sprintf("%g", y)
}
