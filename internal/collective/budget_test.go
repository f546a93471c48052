package collective

import (
	"strings"
	"testing"

	"repro/internal/backends"
	"repro/internal/config"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/workloads/jacobi"
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

// TestGPUTNJacobiFatTreeBudget pins the engine cost of the halo benchmark's
// shape at a quarter of its size: a 16x16 GPU-TN Jacobi on the fat-tree.
// The simulated duration and the event count must not move, and the
// coroutine resumes must stay within the budget that running the NIC
// command executor and the GPU front-end on plain events bought (from
// 12,160 when both were queue servers). Neither server may come back: no
// process named nic.N.cmd or gpu.frontend ever runs.
func TestGPUTNJacobiFatTreeBudget(t *testing.T) {
	const (
		wantDuration = 7107280 * sim.Picosecond
		wantEvents   = 38144
		maxResumes   = 5376
	)
	cfg := config.Default()
	cfg.Network.Topology = config.TopologyFatTree
	c := node.NewCluster(cfg, 256)
	servers, first := 0, ""
	c.Eng.Trace = func(_ sim.Time, label string) {
		_, name, _ := strings.Cut(label, ":")
		if name == "gpu.frontend" || strings.HasPrefix(name, "nic.") && strings.HasSuffix(name, ".cmd") {
			if servers++; first == "" {
				first = label
			}
		}
	}
	res, err := jacobi.Run(c, jacobi.Params{Kind: backends.GPUTN, N: 8, PX: 16, PY: 16, Iters: 2, WithData: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration != wantDuration {
		t.Errorf("Duration = %d ps, want %d ps", int64(res.Duration), int64(wantDuration))
	}
	if got := c.Eng.Executed(); got != wantEvents {
		t.Errorf("Executed = %d events, want %d", got, wantEvents)
	}
	if got := c.Eng.Resumes(); got > maxResumes {
		t.Errorf("Resumes = %d, budget %d", got, maxResumes)
	}
	if servers > 0 {
		t.Errorf("%d events dispatched a command or front-end server, first %q", servers, first)
	}
}
