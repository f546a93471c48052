package collective

import (
	"testing"

	"repro/internal/backends"
	"repro/internal/config"
	"repro/internal/node"
	"repro/internal/sim"
)

// crashHealth, crashElems, driveRecoverable, and expectSum live in
// chaostest_test.go, shared with the partition/SDC/straggler/scenario
// suites.

// crashSchedule is one deterministic crash scenario on a 4-node cluster.
type crashSchedule struct {
	name       string
	events     []config.CrashEvent
	finalAlive []int
}

// timeoutSchedules exercise backends whose receive waits can time out:
// crashes land mid-attempt and the survivors abort and retry.
var timeoutSchedules = []crashSchedule{
	{
		name:       "crash",
		events:     []config.CrashEvent{{Node: 2, At: 70 * sim.Microsecond}},
		finalAlive: []int{0, 1, 3},
	},
	{
		name: "crash+restart",
		events: []config.CrashEvent{
			{Node: 2, At: 70 * sim.Microsecond, RestartAfter: 60 * sim.Microsecond},
		},
		finalAlive: []int{0, 1, 2, 3},
	},
	{
		name: "double",
		events: []config.CrashEvent{
			{Node: 1, At: 70 * sim.Microsecond, RestartAfter: 90 * sim.Microsecond},
			{Node: 3, At: 90 * sim.Microsecond},
		},
		finalAlive: []int{0, 1, 2},
	},
}

// gdsSchedules keep every crash and restart strictly before the first
// attempt can start (the view stabilizes no earlier than StabilizeDelay),
// because GDS stream waits cannot be interrupted mid-attempt.
var gdsSchedules = []crashSchedule{
	{
		name:       "early-crash",
		events:     []config.CrashEvent{{Node: 2, At: 5 * sim.Microsecond}},
		finalAlive: []int{0, 1, 3},
	},
	{
		name: "early-crash+restart",
		events: []config.CrashEvent{
			{Node: 2, At: 5 * sim.Microsecond, RestartAfter: 30 * sim.Microsecond},
		},
		finalAlive: []int{0, 1, 2, 3},
	},
}

func schedulesFor(kind backends.Kind) []crashSchedule {
	if kind == backends.GDS {
		return gdsSchedules
	}
	return timeoutSchedules
}

// The chaos crash matrix: every backend x every seeded fault schedule x
// every crash schedule completes with the exact reduction over the final
// membership, with zero stale-incarnation effects — retransmits, triggered
// fires, and placeholders staged before a crash are all fenced by the
// incarnation epochs.
func TestCrashChaosMatrixExactOverFinalMembership(t *testing.T) {
	const n, nelems = 4, crashElems
	for _, kind := range backends.All() {
		for _, seed := range chaosSeeds {
			for _, sched := range schedulesFor(kind) {
				data, _ := makeInputs(n, nelems, seed)
				cfg := config.Default()
				cfg.Faults = chaosFaults(seed)
				cfg.NIC.Reliability = config.DefaultReliability()
				cfg.Health = crashHealth()
				cfg.Crash = config.CrashConfig{Events: sched.events}
				rcfg := RecoverConfig{Kind: kind, TotalBytes: nelems * elemBytes, Data: data}
				if kind != backends.GDS {
					// Comfortably above a retransmit chain: the chaos drop
					// rate with RTOBase 30us makes a 100us round budget a
					// coin flip, and every spurious abort is a retry.
					rcfg.Timeout = 300 * sim.Microsecond
				}
				res, cl, _ := driveRecoverable(t, cfg, n, rcfg)
				expectSum(t, res, data, sched.finalAlive, nelems, n)
				assertCrashAccounting(t, cl, sched)
			}
		}
	}
}

// assertCrashAccounting checks the epoch-fencing bookkeeping after a
// crash schedule ran: crash/restart counts match the schedule, a restarted
// node advanced its incarnation and absorbed traffic while down, and no
// node still believes a stale incarnation of a restarted peer.
func assertCrashAccounting(t *testing.T, cl *node.Cluster, sched crashSchedule) {
	t.Helper()
	for _, ev := range sched.events {
		ns := cl.Nodes[ev.Node].NIC.Stats()
		if ns.Crashes != 1 {
			t.Fatalf("%s: node %d Crashes=%d, want 1", sched.name, ev.Node, ns.Crashes)
		}
		wantRestarts := int64(0)
		wantInc := int64(1)
		if ev.RestartAfter > 0 {
			wantRestarts, wantInc = 1, 2
		}
		if ns.Restarts != wantRestarts {
			t.Fatalf("%s: node %d Restarts=%d, want %d", sched.name, ev.Node, ns.Restarts, wantRestarts)
		}
		if inc := cl.Nodes[ev.Node].NIC.Incarnation(); inc != wantInc {
			t.Fatalf("%s: node %d incarnation=%d, want %d", sched.name, ev.Node, inc, wantInc)
		}
		// Peers keep heartbeating while the node is down. That traffic is
		// absorbed either on the wire (frames in flight land on the down
		// NIC) or at the source (survivors suppress sends to a peer they
		// have declared crashed) — but it must be absorbed somewhere.
		absorbed := ns.DownDrops
		for _, peer := range cl.Nodes {
			if peer.Index != ev.Node {
				absorbed += peer.NIC.Stats().SendsToDeadPeer
			}
		}
		if absorbed == 0 {
			t.Fatalf("%s: no traffic toward node %d was absorbed during its down window", sched.name, ev.Node)
		}
		if ev.RestartAfter > 0 {
			// Every up peer must have adopted the new incarnation — no one
			// may still address the dead epoch after the run.
			for _, peer := range cl.Nodes {
				if peer.Index == ev.Node || peer.NIC.Down() {
					continue
				}
				ps := peer.NIC.Stats()
				if ps.EpochResets == 0 {
					t.Fatalf("%s: node %d never adopted node %d's new incarnation", sched.name, peer.Index, ev.Node)
				}
			}
		}
	}
}

// A crashed-and-restarted node must rejoin and contribute: the successful
// attempt's membership includes it, and at least one earlier attempt was
// aborted or retried (the crash was actually felt mid-run).
func TestCrashRestartRejoinsMidCollective(t *testing.T) {
	const n, nelems = 4, crashElems
	data, want := makeInputs(n, nelems, 21)
	cfg := config.Default()
	cfg.NIC.Reliability = config.DefaultReliability()
	cfg.Health = crashHealth()
	cfg.Crash = config.CrashConfig{Events: []config.CrashEvent{
		{Node: 2, At: 70 * sim.Microsecond, RestartAfter: 60 * sim.Microsecond},
	}}
	res, cl, suite := driveRecoverable(t, cfg, n, RecoverConfig{
		Kind: backends.GPUTN, TotalBytes: nelems * elemBytes, Data: data,
		Timeout: 100 * sim.Microsecond,
	})
	if len(res.Alive) != n {
		t.Fatalf("restarted node did not rejoin: final membership %v", res.Alive)
	}
	for r := 0; r < n; r++ {
		for i := range want {
			if res.Output[r][i] != want[i] {
				t.Fatalf("rank %d elem %d: got %v want %v", r, i, res.Output[r][i], want[i])
			}
		}
	}
	if len(res.Attempts) < 2 {
		t.Fatalf("expected a retried attempt, got %d attempts", len(res.Attempts))
	}
	if ms := suite.Membership.Stats(); ms.Rejoins != 1 {
		t.Fatalf("membership recorded %d rejoins, want 1", ms.Rejoins)
	}
	if inc := cl.Nodes[2].NIC.Incarnation(); inc != 2 {
		t.Fatalf("restarted node incarnation=%d, want 2", inc)
	}
}

// Same seed, same crash schedule: the whole recovery timeline must replay
// bit-for-bit — attempt count, completion time, fencing counters, and
// membership transitions.
func TestCrashRecoveryDeterministicTrace(t *testing.T) {
	run := func() (sim.Time, int, int64, int64) {
		const n, nelems = 4, crashElems
		data, _ := makeInputs(n, nelems, 7)
		cfg := config.Default()
		cfg.Faults = chaosFaults(7)
		cfg.NIC.Reliability = config.DefaultReliability()
		cfg.Health = crashHealth()
		cfg.Crash = config.CrashConfig{Events: []config.CrashEvent{
			{Node: 1, At: 70 * sim.Microsecond, RestartAfter: 90 * sim.Microsecond},
			{Node: 3, At: 90 * sim.Microsecond},
		}}
		res, cl, suite := driveRecoverable(t, cfg, n, RecoverConfig{
			Kind: backends.GPUTN, TotalBytes: nelems * elemBytes, Data: data,
			Timeout: 300 * sim.Microsecond,
		})
		var fenced, stale int64
		for _, nd := range cl.Nodes {
			ns := nd.NIC.Stats()
			fenced += ns.FencedCommands + ns.FencedTriggers + ns.FencedDeliveries
			stale += ns.StaleSrcDrops + ns.StaleDstDrops + ns.DownDrops
		}
		_ = suite
		return res.Duration, len(res.Attempts), fenced, stale
	}
	d1, a1, f1, s1 := run()
	d2, a2, f2, s2 := run()
	if d1 != d2 || a1 != a2 || f1 != f2 || s1 != s2 {
		t.Fatalf("same seed diverged: dur %v/%v attempts %d/%d fenced %d/%d stale %d/%d",
			d1, d2, a1, a2, f1, f2, s1, s2)
	}
}

// NeighborFailedError after an explicit crash names the crash, not the
// retry budget: PeerDeadDetail distinguishes the two declaration reasons.
func TestPeerDeadReasonDistinguishesCrashFromCongestion(t *testing.T) {
	const n = 4
	cfg := config.Default()
	cfg.NIC.Reliability = config.DefaultReliability()
	cfg.Health = crashHealth()
	cfg.Crash = config.CrashConfig{Events: []config.CrashEvent{
		{Node: 2, At: 80 * sim.Microsecond},
	}}
	_, cl, _ := driveRecoverable(t, cfg, n, RecoverConfig{
		Kind: backends.HDN, TotalBytes: 1024,
		Timeout: 100 * sim.Microsecond,
	})
	found := false
	for _, nd := range cl.Nodes {
		if nd.Index == 2 || nd.NIC.Down() {
			continue
		}
		if info, ok := nd.NIC.PeerDeadDetail(2); ok {
			found = true
			if info.Reason != 0 && info.Reason.String() != "peer crashed" {
				t.Fatalf("node %d recorded reason %v, want crash", nd.Index, info.Reason)
			}
			if info.At < 80*sim.Microsecond {
				t.Fatalf("node %d recorded declaration at %v, before the crash", nd.Index, info.At)
			}
		}
	}
	if !found {
		t.Fatal("no survivor recorded a peer-dead verdict for the crashed node")
	}
}
