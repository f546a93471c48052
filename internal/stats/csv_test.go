package stats

import (
	"bytes"
	"encoding/csv"
	"math"
	"strings"
	"testing"
)

func TestWriteSeriesCSV(t *testing.T) {
	a := &Series{Name: "A"}
	a.Add(1, 1.5)
	a.Add(2, 2.5)
	b := &Series{Name: "B"}
	b.Add(2, 9)
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, "x", []*Series{a, b}); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if strings.Join(rows[0], ",") != "x,A,B" {
		t.Fatalf("header = %v", rows[0])
	}
	if rows[1][0] != "1" || rows[1][1] != "1.5" || rows[1][2] != "" {
		t.Fatalf("row1 = %v", rows[1])
	}
	if rows[2][2] != "9" {
		t.Fatalf("row2 = %v", rows[2])
	}
}

func TestFormatCellSpecials(t *testing.T) {
	if formatCell(math.NaN()) != "" || formatCell(math.Inf(1)) != "" {
		t.Fatal("non-finite cells should be empty")
	}
	if formatCell(2.5) != "2.5" {
		t.Fatal("plain cell wrong")
	}
}
