package collective

import (
	"testing"

	"repro/internal/backends"
	"repro/internal/config"
	"repro/internal/node"
	"repro/internal/sim"
)

// TestGPUTNRingEventBudget pins the engine cost of the repository's ring
// benchmark shape: a 16-node, 128 KB GPU-TN ring Allreduce on the serial
// engine. The simulated duration must not move, and the event count must
// stay within the budget work-group local time bought (from 208,336 events
// when every kernel-side cost was its own sleep), so per-step sleeps do not
// quietly come back.
func TestGPUTNRingEventBudget(t *testing.T) {
	const (
		wantDuration = 67757790 * sim.Picosecond
		maxEvents    = 132000
	)
	c := node.NewCluster(config.Default(), 16)
	res, err := Run(c, Config{Kind: backends.GPUTN, TotalBytes: 128 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration != wantDuration {
		t.Errorf("Duration = %d ps, want %d ps", int64(res.Duration), int64(wantDuration))
	}
	if got := c.Eng.Executed(); got > maxEvents {
		t.Errorf("Executed = %d events, budget %d", got, maxEvents)
	}
}
