package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one entry of the Chrome trace-event format ("X" complete
// events), loadable in chrome://tracing and Perfetto.
type chromeEvent struct {
	Name  string `json:"name"`
	Phase string `json:"ph"`
	// Timestamps and durations are microseconds in the trace-event format.
	TS  float64 `json:"ts"`
	Dur float64 `json:"dur,omitempty"`
	PID int     `json:"pid"`
	TID int     `json:"tid"`
}

// WriteChromeTrace serializes the tracer's spans as a Chrome
// trace-event JSON array. Each actor becomes one thread row; rows are
// ordered by actor name for determinism.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	actors := map[string]int{}
	var names []string
	for _, s := range t.Spans() {
		if _, ok := actors[s.Actor]; !ok {
			actors[s.Actor] = 0
			names = append(names, s.Actor)
		}
	}
	sort.Strings(names)
	for i, n := range names {
		actors[n] = i + 1
	}

	var events []chromeEvent
	// Thread-name metadata rows.
	for _, n := range names {
		events = append(events, chromeEvent{
			Name: "thread_name", Phase: "M", PID: 1, TID: actors[n],
		})
	}
	for _, s := range t.Spans() {
		events = append(events, chromeEvent{
			Name: s.Label, Phase: "X",
			TS: s.Start.Us(), Dur: s.Duration().Us(),
			PID: 1, TID: actors[s.Actor],
		})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(events); err != nil {
		return fmt.Errorf("trace: encoding chrome trace: %w", err)
	}
	return nil
}
