package stats

import (
	"math"
	"strings"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSeries(t *testing.T) {
	s := &Series{Name: "gputn"}
	s.Add(1, 10)
	s.Add(2, 30)
	s.Add(3, 20)
	if y, ok := s.YAt(2); !ok || y != 30 {
		t.Fatalf("YAt(2) = %v,%v", y, ok)
	}
	if _, ok := s.YAt(99); ok {
		t.Fatal("YAt(99) should miss")
	}
	if s.MaxY() != 30 || s.MinY() != 10 {
		t.Fatalf("MaxY/MinY = %v/%v", s.MaxY(), s.MinY())
	}
	var empty Series
	if empty.MaxY() != 0 || empty.MinY() != 0 {
		t.Fatal("empty series extrema should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{Title: "T", Headers: []string{"a", "bbb"}}
	tbl.AddRow("x", "1")
	tbl.AddRow("yyyy", "2")
	out := tbl.String()
	if !strings.Contains(out, "T\n") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	// All data lines should have equal widths per column (aligned).
	if !strings.HasPrefix(lines[3], "x    ") {
		t.Errorf("row not padded: %q", lines[3])
	}
}

func TestRenderSeries(t *testing.T) {
	a := &Series{Name: "A"}
	a.Add(1, 1.5)
	a.Add(2, 2.5)
	b := &Series{Name: "B"}
	b.Add(2, 9)
	out := RenderSeries("fig", "x", []*Series{a, b})
	if !strings.Contains(out, "fig") || !strings.Contains(out, "A") || !strings.Contains(out, "B") {
		t.Fatalf("missing pieces: %q", out)
	}
	// X=1 has no B value -> "-".
	if !strings.Contains(out, "-") {
		t.Fatalf("missing placeholder: %q", out)
	}
}

func TestSpeedup(t *testing.T) {
	if Speedup(10, 5) != 2 {
		t.Fatal("Speedup(10,5) != 2")
	}
	if !math.IsInf(Speedup(1, 0), 1) {
		t.Fatal("Speedup with zero should be +Inf")
	}
}

func TestGeoMean(t *testing.T) {
	if !almost(GeoMean([]float64{1, 4}), 2) {
		t.Fatal("GeoMean(1,4) != 2")
	}
	if GeoMean(nil) != 0 {
		t.Fatal("GeoMean(nil) != 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on non-positive")
		}
	}()
	GeoMean([]float64{1, 0})
}
