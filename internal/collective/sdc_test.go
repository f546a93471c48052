package collective

import (
	"fmt"
	"testing"

	"repro/internal/backends"
	"repro/internal/config"
	"repro/internal/health"
	"repro/internal/nic"
	"repro/internal/node"
	"repro/internal/sim"
)

// sdcElems sizes the SDC chaos payload: large enough that every rank sends
// multiple multi-KB chunks per attempt, small enough to keep the 60-cell
// matrix fast.
const sdcElems = 8192

// makePositiveInputs and driveVerified live in chaostest_test.go, shared
// with the crash/partition/straggler/scenario suites.

// sdcScenario is one corruption class of the SDC chaos matrix.
type sdcScenario struct {
	name string
	sdc  func(seed int64) config.SDCConfig
	// strikes overrides HealthConfig.QuarantineStrikes (0 = default 3).
	strikes int
	// badRank is the rank every violation must blame and that must end up
	// quarantined; -1 means no quarantine is allowed (corruption heals at
	// the frame layer).
	badRank int
	// finalAlive is the expected post-quarantine membership.
	finalAlive []int
}

var sdcScenarios = []sdcScenario{
	{
		// Silent wire corruption with the e2e checksum armed: every flip
		// on a data frame is caught at the destination NIC, NACKed, and
		// healed by a retransmission of the clean source buffer. Strikes
		// accrue against innocent senders (the frame layer cannot tell a
		// noisy wire from a flaky core), so the quarantine threshold is
		// set out of reach — the class must heal without membership churn.
		name: "wire",
		sdc: func(seed int64) config.SDCConfig {
			return config.SDCConfig{Seed: seed, WireProb: 0.10}
		},
		strikes:    1 << 20,
		badRank:    -1,
		finalAlive: []int{0, 1, 2, 3},
	},
	{
		// Buffer corruption at rest on node 2: the first transmission is
		// caught by the e2e checksum (the sum was computed over the clean
		// data), but the retransmission recomputes its checksum over the
		// corrupt buffer and sails through the frame layer — only the
		// verified collective's claim chain catches it, blames node 2,
		// and quarantines it. Each caught corruption is two strikes, so
		// every seed must inject at least two: at 0.6 node 2's stream
		// injects 5, 2, 2, 4, 5 over seeds 1-5.
		name: "buffer",
		sdc: func(seed int64) config.SDCConfig {
			return config.SDCConfig{Seed: seed, BufferNode: 2, BufferProb: 0.6}
		},
		badRank:    2,
		finalAlive: []int{0, 1, 3},
	},
	{
		// Faulty reducer on rank 1: its combines produce wrong values for
		// the whole run. The frames it sends are internally consistent
		// (checksum over the bytes it actually holds), so detection is
		// purely the claim chain's: three violations in attempt 0 cross
		// the strike threshold and quarantine the rank.
		name: "reducer",
		sdc: func(seed int64) config.SDCConfig {
			return config.SDCConfig{Seed: seed, FaultyRank: 1, FaultyUntil: 10 * sim.Millisecond}
		},
		badRank:    1,
		finalAlive: []int{0, 2, 3},
	},
}

// The SDC chaos matrix: every backend x every seed x every corruption
// class completes with the exact reduction over the post-quarantine
// membership and zero undetected-corrupt final results. Detection must be
// non-vacuous in aggregate: the matrix as a whole injects corruption of
// every class and catches it at the matching layer.
func TestSDCChaosMatrixExactOverQuarantinedMembership(t *testing.T) {
	const n = 4
	var matrixDetected, matrixInjected int64
	for _, kind := range backends.All() {
		for _, seed := range chaosSeeds {
			for _, sc := range sdcScenarios {
				kind, seed, sc := kind, seed, sc
				t.Run(fmt.Sprintf("%v/%s/seed%d", kind, sc.name, seed), func(t *testing.T) {
					data, _ := makePositiveInputs(n, sdcElems, seed)
					cfg := config.Default()
					cfg.NIC.Reliability = config.DefaultReliability()
					cfg.NIC.E2EChecksum = true
					cfg.Health = crashHealth()
					cfg.Health.QuarantineStrikes = sc.strikes
					cfg.Faults = config.FaultConfig{Seed: seed, SDC: sc.sdc(seed)}
					rcfg := RecoverConfig{Kind: kind, TotalBytes: sdcElems * elemBytes, Data: data}
					if kind != backends.GDS {
						rcfg.Timeout = 300 * sim.Microsecond
					}
					res, cl, suite := driveVerified(t, cfg, n, rcfg)
					expectSum(t, res.RecoverResult, data, sc.finalAlive, sdcElems, n)

					plan := cl.Injector.SDC()
					if plan.Stats().Total() == 0 {
						t.Fatalf("schedule injected no corruption (vacuous cell)")
					}
					matrixInjected += plan.Stats().Total()
					for _, nd := range cl.Nodes {
						ns := nd.NIC.Stats()
						matrixDetected += ns.E2EChecksumFails
					}
					matrixDetected += int64(len(res.Violations))

					for _, v := range res.Violations {
						if sc.badRank < 0 {
							t.Fatalf("frame-healed class produced a violation: %+v", v)
						}
						if v.Blamed != sc.badRank {
							t.Fatalf("violation blamed rank %d, want %d: %+v", v.Blamed, sc.badRank, v)
						}
					}
					q := suite.Membership.Quarantined()
					if sc.badRank < 0 {
						if len(q) != 0 {
							t.Fatalf("unexpected quarantine: %v", q)
						}
					} else {
						if len(q) != 1 || q[0] != sc.badRank {
							t.Fatalf("quarantined %v, want [%d]", q, sc.badRank)
						}
						if len(res.Violations) == 0 {
							t.Fatalf("rank %d quarantined without an application-layer violation", sc.badRank)
						}
						if suite.Membership.Strikes(sc.badRank) < int64(config.HealthConfig{}.EffectiveQuarantineStrikes()) {
							t.Fatalf("quarantine below strike threshold: %d", suite.Membership.Strikes(sc.badRank))
						}
					}
				})
			}
		}
	}
	if matrixDetected == 0 || matrixInjected == 0 {
		t.Fatalf("matrix-wide detection vacuous: injected=%d detected=%d", matrixInjected, matrixDetected)
	}
}

// A quarantined rank stays quarantined: its heartbeats are ignored, the
// view never readmits it, and a second verified run over the same cluster
// completes immediately over the survivors.
func TestQuarantineIsPermanent(t *testing.T) {
	const n = 4
	data, _ := makePositiveInputs(n, sdcElems, 11)
	cfg := config.Default()
	cfg.NIC.Reliability = config.DefaultReliability()
	cfg.NIC.E2EChecksum = true
	cfg.Health = crashHealth()
	cfg.Faults = config.FaultConfig{
		Seed: 11,
		SDC:  config.SDCConfig{Seed: 11, FaultyRank: 1, FaultyUntil: 10 * sim.Millisecond},
	}
	cl := node.NewCluster(cfg, n)
	suite := health.Start(cl)
	var res VerifyResult
	var rerr error
	var lateAlive, lateQuarantined []int
	cl.Eng.Go("verify.driver", func(p *sim.Proc) {
		rcfg := RecoverConfig{
			Kind: backends.GPUTN, TotalBytes: sdcElems * elemBytes, Data: data,
			Timeout: 300 * sim.Microsecond,
		}
		res, rerr = RunVerified(p, cl, suite.Membership, rcfg)
		// Long after quarantine the rank's heartbeats are still flowing —
		// and still ignored: the view must not readmit it.
		p.Sleep(10 * crashHealth().SuspectAfter)
		lateAlive = suite.Membership.Alive()
		lateQuarantined = suite.Membership.Quarantined()
		suite.Stop()
	})
	cl.Run()
	if rerr != nil {
		t.Fatalf("verified run failed: %v", rerr)
	}
	if len(res.Alive) != 3 || res.Alive[0] != 0 || res.Alive[1] != 2 || res.Alive[2] != 3 {
		t.Fatalf("membership %v, want [0 2 3]", res.Alive)
	}
	if len(lateAlive) != 3 || lateAlive[0] != 0 || lateAlive[1] != 2 || lateAlive[2] != 3 {
		t.Fatalf("late view readmitted the quarantined rank: %v", lateAlive)
	}
	if len(lateQuarantined) != 1 || lateQuarantined[0] != 1 {
		t.Fatalf("late quarantine list %v, want [1]", lateQuarantined)
	}
	if ms := suite.Membership.Stats(); ms.Quarantines != 1 {
		t.Fatalf("membership recorded %d quarantines, want 1", ms.Quarantines)
	}
	for _, nd := range cl.Nodes {
		if nd.Index == 1 {
			continue
		}
		if info, ok := nd.NIC.PeerDeadDetail(1); !ok || info.Reason != nic.PeerDeadCorrupt {
			t.Fatalf("node %d: peer-dead detail for rank 1 = %+v ok=%v, want PeerDeadCorrupt", nd.Index, info, ok)
		}
	}
}
