// Package trace records labeled time spans during a simulation run, used to
// build latency decompositions such as the paper's Figure 8 (kernel launch /
// execution / teardown / put / wait segments on initiator and target).
package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Span is a completed labeled interval on some actor's timeline.
type Span struct {
	Actor string   // e.g. "initiator", "target"
	Label string   // e.g. "Kernel Launch"
	Start sim.Time // inclusive
	End   sim.Time // exclusive
}

// Duration returns End - Start.
func (s Span) Duration() sim.Time { return s.End - s.Start }

// Tracer accumulates spans. The zero value is unusable;
// create one with New. A nil *Tracer is valid and discards everything, so
// models can trace unconditionally.
type Tracer struct {
	eng   *sim.Engine
	spans []Span
	open  map[string]openSpan // key: actor + "\x00" + label
}

type openSpan struct {
	actor, label string
	start        sim.Time
}

// New creates a Tracer bound to the engine's clock.
func New(eng *sim.Engine) *Tracer {
	return &Tracer{eng: eng, open: make(map[string]openSpan)}
}

func key(actor, label string) string { return actor + "\x00" + label }

// Begin opens a span. Opening a span that is already open panics — that is
// always a model bookkeeping bug.
func (t *Tracer) Begin(actor, label string) {
	if t == nil {
		return
	}
	k := key(actor, label)
	if _, dup := t.open[k]; dup {
		panic(fmt.Sprintf("trace: span %q/%q already open", actor, label))
	}
	t.open[k] = openSpan{actor, label, t.eng.Now()}
}

// End closes a previously opened span and records it.
func (t *Tracer) End(actor, label string) {
	if t == nil {
		return
	}
	k := key(actor, label)
	o, ok := t.open[k]
	if !ok {
		panic(fmt.Sprintf("trace: span %q/%q not open", actor, label))
	}
	delete(t.open, k)
	t.spans = append(t.spans, Span{Actor: o.actor, Label: o.label, Start: o.start, End: t.eng.Now()})
}

// Record adds a complete span directly.
func (t *Tracer) Record(actor, label string, start, end sim.Time) {
	if t == nil {
		return
	}
	if end < start {
		panic("trace: span ends before it starts")
	}
	t.spans = append(t.spans, Span{Actor: actor, Label: label, Start: start, End: end})
}

// Spans returns all completed spans in record order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// OpenCount reports how many spans are currently open (should be zero at
// the end of a well-formed run).
func (t *Tracer) OpenCount() int {
	if t == nil {
		return 0
	}
	return len(t.open)
}

// ByActor returns the spans of one actor sorted by start time.
func (t *Tracer) ByActor(actor string) []Span {
	var out []Span
	for _, s := range t.Spans() {
		if s.Actor == actor {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// TotalByLabel sums span durations per (actor, label).
func (t *Tracer) TotalByLabel() map[string]map[string]sim.Time {
	out := map[string]map[string]sim.Time{}
	for _, s := range t.Spans() {
		m := out[s.Actor]
		if m == nil {
			m = map[string]sim.Time{}
			out[s.Actor] = m
		}
		m[s.Label] += s.Duration()
	}
	return out
}

// Render returns a human-readable per-actor timeline, one line per span,
// e.g.:
//
//	initiator  [   0ns ..  1.5us ] Kernel Launch
func (t *Tracer) Render() string {
	var b strings.Builder
	actors := map[string]bool{}
	for _, s := range t.Spans() {
		actors[s.Actor] = true
	}
	names := make([]string, 0, len(actors))
	for a := range actors {
		names = append(names, a)
	}
	sort.Strings(names)
	for _, a := range names {
		fmt.Fprintf(&b, "%s:\n", a)
		for _, s := range t.ByActor(a) {
			fmt.Fprintf(&b, "  [%10s .. %10s] %-18s (%s)\n",
				s.Start, s.End, s.Label, s.Duration())
		}
	}
	return b.String()
}
