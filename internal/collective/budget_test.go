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
// engine. The simulated duration and the event count must not move.
// Counted trigger writes, stores issued ahead and gang wakes took the
// count from 131,488 (each work-group's store cost its wake, an MMIO
// landing, a match and a counter wake) to about two events per rank and
// round; work-group local time had taken it from 208,336, when every
// kernel-side cost was its own sleep. The coroutine resumes must stay
// within the budget that running the ring kernel's work-groups as
// stackless processes bought (from 32,544, when each work-group was a
// coroutine resumed at its start and each poll, and 63,264 before that,
// when a round's trigger store and its poll each resumed it): only the
// rank processes resume, so neither per-step sleeps nor a work-group
// coroutine quietly come back.
func TestGPUTNRingEventBudget(t *testing.T) {
	const (
		wantDuration = 67757790 * sim.Picosecond
		wantEvents   = 9104
		maxResumes   = 800
	)
	c := node.NewCluster(config.Default(), 16)
	res, err := Run(c, Config{Kind: backends.GPUTN, TotalBytes: 128 << 10})
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
}

// TestHDNAllreduceBudget pins the engine cost of the same ring on the HDN
// backend, whose per-round reduction kernels have no body: their
// work-groups run on plain events, so no hdn.reduce work-group process
// ever starts or wakes. The simulated duration and the event count must
// not move, and the resumes stay within the budget that bought (from
// 33,376, when every work-group was a process resumed at its start and its
// end).
func TestHDNAllreduceBudget(t *testing.T) {
	const (
		wantDuration = 120917790 * sim.Picosecond
		wantEvents   = 40576
		maxResumes   = 2656
	)
	c := node.NewCluster(config.Default(), 16)
	procs, first := 0, ""
	c.Eng.Trace = func(_ sim.Time, label string) {
		if strings.Contains(label, "hdn.reduce") {
			if procs++; first == "" {
				first = label
			}
		}
	}
	res, err := Run(c, Config{Kind: backends.HDN, TotalBytes: 128 << 10})
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
	if procs > 0 {
		t.Errorf("%d events dispatched an hdn.reduce work-group process, first %q", procs, first)
	}
}

// TestGPUTNJacobiFatTreeBudget pins the engine cost of the halo benchmark's
// shape at a quarter of its size: a 16x16 GPU-TN Jacobi on the fat-tree.
// The simulated duration and the event count must not move (38,144 before
// trigger writes were counted rather than landed and matched one by one),
// and the
// coroutine resumes must stay within the budget that running the NIC
// command executor and the GPU front-end on plain events bought (from
// 12,160 when both were queue servers). Neither server may come back: no
// process named nic.N.cmd or gpu.frontend ever runs.
func TestGPUTNJacobiFatTreeBudget(t *testing.T) {
	const (
		wantDuration = 7107280 * sim.Picosecond
		wantEvents   = 34304
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

// TestGPUTNAbortableRingBudget pins the engine cost of the GPU-TN
// ring kernel's two abortable modes, whose work-groups are stackless like
// the untimed ring's: the 16-node 128 KB ring with a receive timeout armed
// (each poll a deadline wait after a sync), and a 4-node hedged ring with a
// GPU straggler (polls sliced into hedge deadlines that report lag and
// abandon the hop, then a retry over the responsive ranks). The simulated
// durations and event counts must not move, and the coroutine resumes are
// only the host side's: rank and attempt drivers, and the heartbeat
// tickers of the hedged run. A gputn.allreduce work-group that is a
// coroutine again resumes at least at its start, 64 per kernel, and breaks
// the budget (the body form made 78,624 and 5,877). Counted trigger
// writes took the event counts from 146,848 and 14,884: a timed poll's
// store lands at the wake that pays its lag, so it costs no landing or
// match event.
func TestGPUTNAbortableRingBudget(t *testing.T) {
	t.Run("timeout", func(t *testing.T) {
		const (
			wantDuration = 67757790 * sim.Picosecond
			wantEvents   = 55648
			maxResumes   = 800
		)
		c := node.NewCluster(config.Default(), 16)
		res, err := Run(c, Config{Kind: backends.GPUTN, TotalBytes: 128 << 10, Timeout: 100 * sim.Microsecond})
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
	})
	t.Run("hedged", func(t *testing.T) {
		const (
			wantDuration = 246767528 * sim.Picosecond
			wantAttempts = 2
			wantEvents   = 10293
			maxResumes   = 1461
		)
		res, cl, _ := runHedgedStraggler(t, backends.GPUTN, slowTestSchedule("gpu", 10, 3))
		if res.Duration != wantDuration || len(res.Attempts) != wantAttempts {
			t.Errorf("Duration = %d ps after %d attempts, want %d ps after %d", int64(res.Duration), len(res.Attempts), int64(wantDuration), wantAttempts)
		}
		if got := cl.Eng.Executed(); got != wantEvents {
			t.Errorf("Executed = %d events, want %d", got, wantEvents)
		}
		if got := cl.Eng.Resumes(); got > maxResumes {
			t.Errorf("Resumes = %d, budget %d", got, maxResumes)
		}
	})
}

// TestGPUTNRingAtScaleBudget pins the cost of one 64-node, 8 MB GPU-TN
// ring Allreduce, Figure 10's payload, where the trigger traffic grows as
// the square of the node count: each of the 64 work-groups of every rank
// stores the round's tag in each of the 126 rounds. The simulated duration
// must not move, and the events stay within the budget that counted
// trigger writes and gang wakes bought (3,164,800 when every store was
// landed, matched and woken on its own); what is left is mostly per-frame
// fabric traffic.
func TestGPUTNRingAtScaleBudget(t *testing.T) {
	const (
		wantDuration = 2196828840 * sim.Picosecond
		maxEvents    = 1150000
	)
	c := node.NewCluster(config.Default(), 64)
	res, err := Run(c, Config{Kind: backends.GPUTN, TotalBytes: 8 << 20})
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
