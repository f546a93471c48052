package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestWriteChromeTrace(t *testing.T) {
	e := sim.NewEngine()
	tr := New(e)
	tr.Record("initiator", "Kernel Launch", 0, 1500*sim.Nanosecond)
	tr.Record("initiator", "Kernel Execution", 1500*sim.Nanosecond, 2000*sim.Nanosecond)
	tr.Record("target", "Wait", 0, 2700*sim.Nanosecond)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// 2 metadata + 3 spans.
	if len(events) != 5 {
		t.Fatalf("events = %d", len(events))
	}
	var phases []string
	for _, ev := range events {
		phases = append(phases, ev["ph"].(string))
	}
	joined := strings.Join(phases, "")
	if joined != "MMXXX" {
		t.Fatalf("phases = %v", phases)
	}
	// Span timestamps are microseconds.
	for _, ev := range events {
		if ev["name"] == "Kernel Execution" {
			if ev["ts"].(float64) != 1.5 || ev["dur"].(float64) != 0.5 {
				t.Fatalf("exec ts/dur = %v/%v", ev["ts"], ev["dur"])
			}
		}
	}
}

func TestWriteChromeTraceDeterministicActorOrder(t *testing.T) {
	e := sim.NewEngine()
	tr := New(e)
	tr.Record("zeta", "a", 0, 1)
	tr.Record("alpha", "b", 0, 1)
	var buf1, buf2 bytes.Buffer
	if err := tr.WriteChromeTrace(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeTrace(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf1.String() != buf2.String() {
		t.Fatal("trace export not deterministic")
	}
}
