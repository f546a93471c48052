package collective

import (
	"fmt"
	"testing"

	"repro/internal/backends"
	"repro/internal/config"
	"repro/internal/sim"
)

// partitionScenario is one partition or gray-link chaos case on a 4-node
// cluster. The cut instant is backend-dependent (see cutAtFor): GDS stream
// waits cannot be interrupted, so its cuts land before the first attempt.
type partitionScenario struct {
	name       string
	asym       bool
	heal       sim.Time // 0 = never
	factor     float64  // 0 = clean cut instead of a gray link
	finalAlive []int
	timeout    sim.Time
	attempts   int // 0 = RunRecoverable's default budget
}

var partitionScenarios = []partitionScenario{
	// A clean symmetric cut that never heals: node 2 stays Partitioned and
	// the majority completes without it.
	{name: "cut", finalAlive: []int{0, 1, 3}, timeout: 300 * sim.Microsecond},
	// A half-open link: node 2's frames vanish, inbound still delivers. The
	// mutual-reachability rule severs the edge all the same.
	{name: "asym-cut", asym: true, finalAlive: []int{0, 1, 3}, timeout: 300 * sim.Microsecond},
	// Gray links: node 2 degraded but alive in both directions. Nobody may
	// be evicted — the run completes over the full membership. Loss is
	// per MTU packet and one dropped packet voids the whole message, so a
	// 4-packet 16KB chunk compounds grayLoss with the chaos schedule's 5%
	// drop: 5% gray loss ≈ 39% chunk loss — a heavy but survivable link,
	// where 25% would compound to ~75% chunk loss (effectively dead) and
	// RTO ladders would blow any per-round timeout. The budget is fat
	// because early attempts can still abort on a deep loss ladder; retries
	// reuse the converged RTT estimators and converge quickly.
	{name: "gray-10x", factor: 10, finalAlive: []int{0, 1, 2, 3}, timeout: 2 * sim.Millisecond, attempts: 12},
	{name: "gray-100x", factor: 100, finalAlive: []int{0, 1, 2, 3}, timeout: 8 * sim.Millisecond, attempts: 12},
}

func cutAtFor(kind backends.Kind) sim.Time {
	if kind == backends.GDS {
		return 5 * sim.Microsecond
	}
	return 70 * sim.Microsecond
}

// partitionFaults layers the scenario's partition or degradation onto the
// seeded chaos schedule.
func partitionFaults(seed int64, sc partitionScenario, kind backends.Kind) config.FaultConfig {
	const grayLoss = 0.05 // per packet; see partitionScenarios on compounding
	f := chaosFaults(seed)
	if sc.factor > 0 {
		f.Degrade = config.DegradeConfig{Windows: []config.DegradeWindow{
			{Src: 2, Dst: -1, Until: 100 * sim.Millisecond, LatencyFactor: sc.factor, LossProb: grayLoss},
			{Src: -1, Dst: 2, Until: 100 * sim.Millisecond, LatencyFactor: sc.factor, LossProb: grayLoss},
		}}
		return f
	}
	f.Partition = config.PartitionConfig{Events: []config.PartitionEvent{
		{A: []int{2}, At: cutAtFor(kind), HealAfter: sc.heal, Asymmetric: sc.asym},
	}}
	return f
}

// The partition chaos matrix: every backend x every seeded fault schedule x
// every partition scenario completes with the exact reduction over the
// final majority membership — no hangs, and never a split-brain double
// reduction (a rank outside the final membership must produce no output;
// expectSum enforces exactly that).
func TestPartitionChaosMatrixExactOverFinalMembership(t *testing.T) {
	const n, nelems = 4, crashElems
	for _, kind := range backends.All() {
		for _, seed := range chaosSeeds {
			for _, sc := range partitionScenarios {
				kind, seed, sc := kind, seed, sc
				t.Run(fmt.Sprintf("%v/%s/seed%d", kind, sc.name, seed), func(t *testing.T) {
					data, _ := makeInputs(n, nelems, seed)
					cfg := config.Default()
					cfg.Faults = partitionFaults(seed, sc, kind)
					cfg.NIC.Reliability = config.DefaultReliability()
					cfg.NIC.Reliability.AdaptiveRTO = sc.factor > 0
					cfg.Health = crashHealth()
					if kind == backends.GDS && sc.factor == 0 {
						// GDS stream waits cannot be interrupted, so its cut must
						// be diagnosed before the first attempt launches — not
						// just inflicted before it (cutAtFor handles that part).
						// Stretch the stabilization window past the lossy-safe
						// suspicion horizon so the first stable view already
						// excludes the cut rank; otherwise attempt 0 launches
						// over all four ranks and parks forever on the blackhole.
						cfg.Health.StabilizeDelay = cfg.Health.SuspectAfter + 100*sim.Microsecond
					}
					rcfg := RecoverConfig{
						Kind: kind, TotalBytes: nelems * elemBytes, Data: data,
						MaxAttempts: sc.attempts,
					}
					if kind != backends.GDS {
						rcfg.Timeout = sc.timeout
					}
					res, cl, _ := driveRecoverable(t, cfg, n, rcfg)
					expectSum(t, res, data, sc.finalAlive, nelems, n)
					if sc.factor == 0 {
						// The evicted rank was diagnosed as partitioned, not
						// accused of crashing: it kept vouching for itself.
						var parted int64
						for _, nd := range cl.Nodes {
							parted += nd.NIC.Stats().PeersDeclaredPartitioned
						}
						if parted == 0 {
							t.Fatalf("cut rank evicted without a partition verdict")
						}
					}
				})
			}
		}
	}
}

// A healed cut reintegrates the partitioned rank mid-collective: it is
// diagnosed Partitioned, the majority aborts and retries, the heal returns
// it to Alive, and the successful attempt's membership — and exact sum —
// include all four ranks again, over fresh reliability sessions.
func TestPartitionHealRejoinsMidCollective(t *testing.T) {
	const n, nelems = 4, crashElems
	data, want := makeInputs(n, nelems, 13)
	cfg := config.Default()
	cfg.NIC.Reliability = config.DefaultReliability()
	cfg.Health = crashHealth()
	cfg.Faults = config.FaultConfig{Partition: config.PartitionConfig{Events: []config.PartitionEvent{
		{A: []int{2}, At: 70 * sim.Microsecond, HealAfter: 200 * sim.Microsecond},
	}}}
	res, cl, suite := driveRecoverable(t, cfg, n, RecoverConfig{
		Kind: backends.GPUTN, TotalBytes: nelems * elemBytes, Data: data,
		Timeout: 300 * sim.Microsecond,
	})
	if len(res.Alive) != n {
		t.Fatalf("healed rank did not rejoin: final membership %v", res.Alive)
	}
	for r := 0; r < n; r++ {
		for i := range want {
			if res.Output[r][i] != want[i] {
				t.Fatalf("rank %d elem %d: got %v want %v", r, i, res.Output[r][i], want[i])
			}
		}
	}
	ms := suite.Membership.Stats()
	if ms.Partitions == 0 || ms.Heals == 0 {
		t.Fatalf("membership never saw the outage: %+v", ms)
	}
	if ms.Rejoins != 0 {
		t.Fatalf("a heal is not a rejoin — the node never died: %+v", ms)
	}
	var healed, resets int64
	for _, nd := range cl.Nodes {
		ns := nd.NIC.Stats()
		healed += ns.PeersHealed
		resets += ns.SessionResets
	}
	if healed == 0 || resets == 0 {
		t.Fatalf("post-heal traffic never reopened a fresh session: healed=%d resets=%d", healed, resets)
	}
}

// A crash landing exactly on the phase boundary — the instant the view
// stabilizes and the first attempt launches — must not wedge the driver:
// whichever side of the tie the event lands on, the survivors converge on
// the exact sum without the dead rank.
func TestCrashAtExactPhaseBoundary(t *testing.T) {
	const n, nelems = 4, crashElems
	data, _ := makeInputs(n, nelems, 9)
	cfg := config.Default()
	cfg.NIC.Reliability = config.DefaultReliability()
	cfg.Health = crashHealth()
	cfg.Crash = config.CrashConfig{Events: []config.CrashEvent{
		{Node: 2, At: crashHealth().StabilizeDelay}, // == first attempt launch
	}}
	res, _, _ := driveRecoverable(t, cfg, n, RecoverConfig{
		Kind: backends.GPUTN, TotalBytes: nelems * elemBytes, Data: data,
		Timeout: 300 * sim.Microsecond,
	})
	expectSum(t, res, data, []int{0, 1, 3}, nelems, n)
}

// The same node crashing twice in one run — crash, restart, rejoin, crash
// again for good — leaves the survivors with the exact sum and the
// bookkeeping of both lives: two crashes, one restart, incarnation 2.
func TestDoubleCrashSameNodeConverges(t *testing.T) {
	const n, nelems = 4, crashElems
	data, _ := makeInputs(n, nelems, 17)
	cfg := config.Default()
	cfg.NIC.Reliability = config.DefaultReliability()
	cfg.Health = crashHealth()
	cfg.Crash = config.CrashConfig{Events: []config.CrashEvent{
		{Node: 2, At: 70 * sim.Microsecond, RestartAfter: 40 * sim.Microsecond},
		{Node: 2, At: 160 * sim.Microsecond},
	}}
	res, cl, _ := driveRecoverable(t, cfg, n, RecoverConfig{
		Kind: backends.GPUTN, TotalBytes: nelems * elemBytes, Data: data,
		Timeout: 300 * sim.Microsecond,
	})
	expectSum(t, res, data, []int{0, 1, 3}, nelems, n)
	ns := cl.Nodes[2].NIC.Stats()
	if ns.Crashes != 2 || ns.Restarts != 1 {
		t.Fatalf("node 2 lived %d crashes / %d restarts, want 2/1", ns.Crashes, ns.Restarts)
	}
	if inc := cl.Nodes[2].NIC.Incarnation(); inc != 2 {
		t.Fatalf("node 2 incarnation = %d, want 2", inc)
	}
}
