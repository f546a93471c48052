package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// spanLog keeps the spans of a profiled child in memory: one per call the
// benchmark makes into the simulator, with the spans of one op sharing its
// op ID. A nil log records nothing.
type spanLog struct {
	epoch time.Time // trace time zero
	spans []span
}

type span struct {
	name       string
	op         int
	start, end time.Time
}

func (l *spanLog) add(name string, op int, start, end time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{name, op, start, end})
}

// traceEvent is one Chrome trace-event "complete" event; Perfetto and
// chrome://tracing open a file of them.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// write saves the spans as Chrome trace-event JSON.
func (l *spanLog) write(path string) error {
	evs := make([]traceEvent, 0, len(l.spans))
	for _, s := range l.spans {
		evs = append(evs, traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Sub(l.epoch).Nanoseconds()) / 1e3,
			Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"op": s.op},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
