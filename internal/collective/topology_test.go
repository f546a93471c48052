package collective

// The fat-tree topology suite: the switch-failure acceptance bar (any
// single spine dies mid-allreduce and the collective reroutes to the exact
// sum; the only path dies and the run diagnoses Unrouteable instead of
// hanging), the pay-for-use and shard-invariance contracts, and the
// topology chaos matrix (`make chaos-topology`): every backend x chaos
// seed x {spine-kill, pod-cut, incast-storm} on a multi-pod fat-tree,
// exact and audit-clean.

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/backends"
	"repro/internal/config"
	"repro/internal/node"
	"repro/internal/sim"
)

// topoConfig is the base fat-tree cluster config: default shape (4
// nodes/leaf, 2 leaves/pod, 2 spines/pod), reliability on so kills heal by
// retransmission, and a trigger list wide enough for large-n rings.
func topoConfig(n int) config.SystemConfig {
	cfg := config.Default()
	cfg.Network.Topology = config.TopologyFatTree
	cfg.NIC.Reliability = config.DefaultReliability()
	if need := 2*n + 16; cfg.NIC.MaxTriggerEntries < need {
		cfg.NIC.MaxTriggerEntries = need
	}
	return cfg
}

// TestFatTreeSpineKillEveryBackendReroutes is the acceptance bar: on a
// 16-node fat-tree (two spines per pod), killing any single spine
// mid-allreduce — never restored — still completes with the exact sum on
// every backend, at zero audit violations, because ECMP reroutes every
// retransmission and later send over the surviving spine.
func TestFatTreeSpineKillEveryBackendReroutes(t *testing.T) {
	const n, nelems = 16, 4096
	const killAt = 10 * sim.Microsecond
	for _, kind := range backends.All() {
		for spine := 0; spine < 2; spine++ {
			kind, spine := kind, spine
			t.Run(fmt.Sprintf("%v/spine%d", kind, spine), func(t *testing.T) {
				cfg := topoConfig(n)
				cfg.Faults.Switch = config.SwitchConfig{Events: []config.SwitchEvent{
					{Tier: config.SwitchTierSpine, Index: spine, At: killAt},
				}}
				data, want := makeInputs(n, nelems, 7)
				c := node.NewCluster(cfg, n)
				res, err := Run(c, Config{Kind: kind, TotalBytes: nelems * elemBytes, Data: data})
				if err != nil {
					t.Fatalf("%v: %v", kind, err)
				}
				for r := 0; r < n; r++ {
					for i := range want {
						if res.Output[r][i] != want[i] {
							t.Fatalf("rank %d elem %d: got %v want %v", r, i, res.Output[r][i], want[i])
						}
					}
				}
				ft := c.Fabric
				if ft.Unrouteable() != 0 {
					t.Fatalf("unrouteable = %d on a 2-spine fabric", ft.Unrouteable())
				}
				// Non-vacuous: the collective was still running when the
				// spine died, and traffic kept flowing afterwards.
				if ft.LastDelivery() <= killAt {
					t.Fatalf("collective finished at %v, before the %v kill", ft.LastDelivery(), killAt)
				}
				c.Audit.Finish(c.Eng.Now(), true)
				if !c.Audit.Clean() {
					vs, _ := c.Audit.Violations()
					t.Fatalf("audit violations: %v", vs)
				}
			})
		}
	}
}

// TestFatTreeOnlyPathKillDiagnosesUnrouteable: when every path between two
// leaves dies (both pod spines, never restored), the run must end with a
// named Unrouteable diagnosis — the event queue drains and the watchdog
// names the dead pairs — never a silent hang. Reliability is off so the
// loss is permanent, the starvation genuine.
func TestFatTreeOnlyPathKillDiagnosesUnrouteable(t *testing.T) {
	const n, nelems = 8, 1024
	for _, kind := range backends.All() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			cfg := topoConfig(n)
			cfg.NIC.Reliability = config.ReliabilityConfig{}
			cfg.Faults.Switch = config.SwitchConfig{Events: []config.SwitchEvent{
				{Tier: config.SwitchTierSpine, Index: 0, At: 2 * sim.Microsecond},
				{Tier: config.SwitchTierSpine, Index: 1, At: 2 * sim.Microsecond},
			}}
			data, _ := makeInputs(n, nelems, 7)
			c := node.NewCluster(cfg, n)
			_, err := Run(c, Config{Kind: kind, TotalBytes: nelems * elemBytes, Data: data})
			if err == nil {
				t.Fatal("allreduce across a fully dead spine tier succeeded")
			}
			if !strings.Contains(err.Error(), "unrouteable") {
				t.Fatalf("diagnosis does not name the unrouteable pairs: %v", err)
			}
			ft := c.Fabric
			if ft.Unrouteable() == 0 {
				t.Fatal("fabric counted no unrouteable messages")
			}
		})
	}
}

// TestFatTreeShardCountInvariant: the fat-tree forces a single engine
// (shared switch ports need one global event order), so a switch-kill run
// must be identical at -shards 0, 1, and 4 — durations, outputs, and every
// fabric counter.
func TestFatTreeShardCountInvariant(t *testing.T) {
	type outcome struct {
		dur   sim.Time
		out   []float32
		drops int64
		retx  int64
	}
	run := func(shards int) outcome {
		const n, nelems = 16, 2048
		cfg := topoConfig(n)
		cfg.Shards = shards
		cfg.Faults.Switch = config.SwitchConfig{Events: []config.SwitchEvent{
			{Tier: config.SwitchTierSpine, Index: 1, At: 10 * sim.Microsecond, RestoreAfter: 30 * sim.Microsecond},
		}}
		data, _ := makeInputs(n, nelems, 7)
		c := node.NewCluster(cfg, n)
		if len(c.Engines) != 1 {
			t.Fatalf("shards=%d built %d engines, want 1 (serialRequired)", shards, len(c.Engines))
		}
		res, err := Run(c, Config{Kind: backends.GPUTN, TotalBytes: nelems * elemBytes, Data: data})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		o := outcome{dur: res.Duration, out: res.Output[0], drops: c.Fabric.SwitchDrops()}
		for _, nd := range c.Nodes {
			o.retx += nd.NIC.Stats().Retransmits
		}
		return o
	}
	ref := run(0)
	for _, shards := range []int{1, 4} {
		if got := run(shards); !reflect.DeepEqual(got, ref) {
			t.Errorf("shards=%d diverged from shards=0:\n got %+v\nwant %+v", shards, got, ref)
		}
	}
}

// topoScenario is one cell class of the topology chaos matrix.
type topoScenario struct {
	name   string
	mutate func(cfg *config.SystemConfig, seed int64, gds bool)
	// check asserts the cell was non-vacuous.
	check func(t *testing.T, cl *node.Cluster)
}

var topoScenarios = []topoScenario{
	{
		// A pod-0 spine dies mid-attempt and is restored later: everything
		// reroutes over the surviving spine in the meantime.
		name: "spine-kill",
		mutate: func(cfg *config.SystemConfig, seed int64, gds bool) {
			at, heal := 70*sim.Microsecond, 60*sim.Microsecond
			if gds {
				at, heal = 5*sim.Microsecond, 25*sim.Microsecond
			}
			cfg.Scenario = config.ScenarioConfig{Seed: seed, Events: []config.ScenarioEvent{
				{Kind: config.ScenarioSwitchFail, Domain: "spine0", At: at, Heal: heal},
			}}
		},
		check: func(t *testing.T, cl *node.Cluster) {
			if cl.SwitchPlan == nil {
				t.Fatal("switchfail scenario armed no switch plan")
			}
		},
	},
	{
		// Pod 1 loses power — its leaves, spines, and nodes die together —
		// and heals with a jittered restart storm.
		name: "pod-cut",
		mutate: func(cfg *config.SystemConfig, seed int64, gds bool) {
			at, heal := 70*sim.Microsecond, 60*sim.Microsecond
			if gds {
				at, heal = 5*sim.Microsecond, 25*sim.Microsecond
			}
			cfg.Scenario = config.ScenarioConfig{Seed: seed, Events: []config.ScenarioEvent{
				{Kind: config.ScenarioPodFail, Domain: "pod1", At: at, Heal: heal, Jitter: 10 * sim.Microsecond},
			}}
		},
		check: func(t *testing.T, cl *node.Cluster) {
			var crashes int64
			for _, nd := range cl.Nodes {
				crashes += nd.NIC.Stats().Crashes
			}
			if crashes == 0 {
				t.Fatal("podfail crashed no nodes")
			}
		},
	},
	{
		// Incast storm: tight port credits and early marking under the lossy
		// chaos schedule — congestion must degrade to bounded queueing plus
		// ECN-paced senders, never drops or deadlock.
		name: "incast-storm",
		mutate: func(cfg *config.SystemConfig, seed int64, gds bool) {
			cfg.Network.FatTree.QueueCredits = 4
			cfg.Network.FatTree.ECNThreshold = 2
			cfg.NIC.Reliability.AdaptiveRTO = true
		},
		check: func(t *testing.T, cl *node.Cluster) {
			if cl.Fabric.ECNMarks() == 0 {
				t.Fatal("congested run marked nothing")
			}
		},
	},
}

// topoChaosScale returns the matrix shape: the quick tier-1 slice (one
// seed, 32 nodes) by default, the full matrix (chaos seeds 1-5, 64 nodes)
// under CHAOS_TOPOLOGY_FULL=1 (`make chaos-topology`).
func topoChaosScale() (seeds []int64, n int) {
	if os.Getenv("CHAOS_TOPOLOGY_FULL") != "" {
		return chaosSeeds, 64
	}
	return chaosSeeds[:1], 32
}

// TestTopologyChaosMatrixExactAndAuditClean: every backend x chaos seed x
// topology scenario on a multi-pod fat-tree completes with the exact sum
// over the healed membership at zero audit violations.
func TestTopologyChaosMatrixExactAndAuditClean(t *testing.T) {
	seeds, n := topoChaosScale()
	const nelems = 4096
	for _, kind := range backends.All() {
		for _, seed := range seeds {
			for _, sc := range topoScenarios {
				kind, seed, sc := kind, seed, sc
				t.Run(fmt.Sprintf("%v/%s/seed%d", kind, sc.name, seed), func(t *testing.T) {
					cfg := topoConfig(n)
					cfg.Faults = chaosFaults(seed)
					cfg.Health = crashHealth()
					sc.mutate(&cfg, seed, kind == backends.GDS)
					data, _ := makeInputs(n, nelems, seed)
					rcfg := RecoverConfig{Kind: kind, TotalBytes: nelems * elemBytes, Data: data}
					if kind != backends.GDS {
						rcfg.Timeout = 300 * sim.Microsecond
					}
					res, cl, _ := driveRecoverable(t, cfg, n, rcfg)
					all := make([]int, n)
					for i := range all {
						all[i] = i
					}
					expectSum(t, res, data, all, nelems, n)
					sc.check(t, cl)
					cl.Audit.Finish(cl.Eng.Now(), true)
					if !cl.Audit.Clean() {
						vs, dropped := cl.Audit.Violations()
						t.Fatalf("audit violations (%d dropped): %v", dropped, vs)
					}
					if cl.Audit.ChecksEvaluated() == 0 {
						t.Fatal("auditor evaluated zero checks (vacuous)")
					}
				})
			}
		}
	}
}

// TestTopologyChaos256Smoke: one 256-node (8 nodes/leaf, 8 pods) spine-kill
// cell — the scale end of the tentpole — runs exact and audit-clean. Full
// chaos runs only (CHAOS_TOPOLOGY_FULL=1): a 256-rank recoverable ring is
// too heavy for the default test pass.
func TestTopologyChaos256Smoke(t *testing.T) {
	if os.Getenv("CHAOS_TOPOLOGY_FULL") == "" {
		t.Skip("256-node smoke runs under make chaos-topology (CHAOS_TOPOLOGY_FULL=1)")
	}
	const n, nelems = 256, 1024
	cfg := topoConfig(n)
	cfg.Network.FatTree.LeafSize = 8
	cfg.Network.FatTree.Spines = 4
	cfg.Health = crashHealth()
	cfg.Scenario = config.ScenarioConfig{Seed: 1, Events: []config.ScenarioEvent{
		{Kind: config.ScenarioSwitchFail, Domain: "spine1",
			At: 70 * sim.Microsecond, Heal: 60 * sim.Microsecond},
	}}
	data, _ := makeInputs(n, nelems, 1)
	res, cl, _ := driveRecoverable(t, cfg, n, RecoverConfig{
		Kind: backends.GPUTN, TotalBytes: nelems * elemBytes, Data: data,
		Timeout: 2 * sim.Millisecond,
	})
	if len(res.Alive) != n {
		t.Fatalf("membership %d, want %d", len(res.Alive), n)
	}
	cl.Audit.Finish(cl.Eng.Now(), true)
	if !cl.Audit.Clean() {
		vs, _ := cl.Audit.Violations()
		t.Fatalf("audit violations: %v", vs)
	}
}
