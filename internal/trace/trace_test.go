package trace

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestSpanLifecycle(t *testing.T) {
	e := sim.NewEngine()
	tr := New(e)
	e.Go("p", func(p *sim.Proc) {
		tr.Begin("init", "launch")
		p.Sleep(1500 * sim.Nanosecond)
		tr.End("init", "launch")
		tr.Begin("init", "exec")
		p.Sleep(500 * sim.Nanosecond)
		tr.End("init", "exec")
	})
	e.Run()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d", len(spans))
	}
	if spans[0].Label != "launch" || spans[0].Duration() != 1500*sim.Nanosecond {
		t.Fatalf("span0 = %+v", spans[0])
	}
	if spans[1].Start != 1500*sim.Nanosecond {
		t.Fatalf("span1 start = %v", spans[1].Start)
	}
	if tr.OpenCount() != 0 {
		t.Fatalf("OpenCount = %d", tr.OpenCount())
	}
}

func TestDoubleBeginPanics(t *testing.T) {
	e := sim.NewEngine()
	tr := New(e)
	tr.Begin("a", "x")
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tr.Begin("a", "x")
}

func TestEndWithoutBeginPanics(t *testing.T) {
	e := sim.NewEngine()
	tr := New(e)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tr.End("a", "x")
}

func TestRecordValidation(t *testing.T) {
	e := sim.NewEngine()
	tr := New(e)
	tr.Record("a", "ok", 5, 10)
	if len(tr.Spans()) != 1 {
		t.Fatal("Record did not store span")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for inverted span")
		}
	}()
	tr.Record("a", "bad", 10, 5)
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Begin("a", "x")
	tr.End("a", "x") // would panic on a real tracer without Begin; nil discards
	tr.Record("a", "x", 0, 1)
	if tr.Spans() != nil || tr.OpenCount() != 0 {
		t.Fatal("nil tracer must report empty")
	}
}

func TestByActorSortedAndTotals(t *testing.T) {
	e := sim.NewEngine()
	tr := New(e)
	tr.Record("b", "w", 50, 70)
	tr.Record("a", "x", 10, 30)
	tr.Record("a", "x", 40, 45)
	tr.Record("a", "y", 0, 5)
	spans := tr.ByActor("a")
	if len(spans) != 3 || spans[0].Label != "y" {
		t.Fatalf("ByActor = %+v", spans)
	}
	totals := tr.TotalByLabel()
	if totals["a"]["x"] != 25 || totals["a"]["y"] != 5 || totals["b"]["w"] != 20 {
		t.Fatalf("totals = %v", totals)
	}
}

func TestRender(t *testing.T) {
	e := sim.NewEngine()
	tr := New(e)
	tr.Record("initiator", "Kernel Launch", 0, 1500*sim.Nanosecond)
	out := tr.Render()
	if !strings.Contains(out, "initiator:") || !strings.Contains(out, "Kernel Launch") {
		t.Fatalf("render missing content: %q", out)
	}
}
