package collective

import (
	"reflect"
	"testing"

	"repro/internal/backends"
	"repro/internal/config"
	"repro/internal/nic"
	"repro/internal/node"
	"repro/internal/sim"
)

// TestZeroConfigIsBitForBit: every optional subsystem is pure pay-for-use.
// Each row populates its config section without arming the feature (a
// seed with no schedule, an empty event list, a disabled health config,
// caps that never bind, fat-tree shape on a star), and the run must replay
// the zero-config trace bit-for-bit — same duration, same per-node NIC
// stats, same outputs. Where the row names counters, the zero-config run
// must also leave them untouched.
func TestZeroConfigIsBitForBit(t *testing.T) {
	type outcome struct {
		dur     sim.Time
		stats   []nic.Stats
		out     [][]float32
		cluster *node.Cluster
	}
	// run drives a 4-node GPU-TN Allreduce over a lossy reliable fabric,
	// with inert (if any) applied to the configuration.
	run := func(t *testing.T, inert func(*config.SystemConfig)) outcome {
		const n, nelems = 4, 256
		data, _ := makeInputs(n, nelems, 3)
		cfg := config.Default()
		cfg.Faults = chaosFaults(3)
		cfg.NIC.Reliability = config.DefaultReliability()
		if inert != nil {
			inert(&cfg)
		}
		c := node.NewCluster(cfg, n)
		out, err := Run(c, Config{Kind: backends.GPUTN, TotalBytes: nelems * elemBytes, Data: data})
		if err != nil {
			t.Fatal(err)
		}
		var stats []nic.Stats
		for _, nd := range c.Nodes {
			stats = append(stats, nd.NIC.Stats())
		}
		return outcome{out.Duration, stats, out.Output, c}
	}

	tests := []struct {
		name  string
		inert func(*config.SystemConfig)
		// check inspects the zero and the inert cluster (optional).
		check func(*testing.T, *node.Cluster)
		// moved sums the counters a zero-config run must leave at zero
		// (optional).
		moved func(nic.Stats) int64
	}{
		{
			// Caps far above the working set: every bound present, none
			// ever binds, and high-water accounting is pure observation.
			name: "resources",
			inert: func(c *config.SystemConfig) {
				c.NIC.Resources = config.ResourceConfig{
					TriggerEntries: 1 << 10, PlaceholderEntries: 1 << 10,
					CmdQueueDepth: 1 << 20,
				}
			},
		},
		{
			// Seed populated, no class armed: the plan compiles to nil and
			// owns no RNG, so nothing shifts.
			name:  "sdc",
			inert: func(c *config.SystemConfig) { c.Faults.SDC = config.SDCConfig{Seed: 99} },
			moved: func(ns nic.Stats) int64 {
				return ns.E2EChecksumFails + ns.SDCDetected + ns.SDCUndetected + ns.PeersDeclaredCorrupt
			},
		},
		{
			// Only the fat-tree fabric ever reads the topology shape.
			name: "topology",
			inert: func(c *config.SystemConfig) {
				c.Network.FatTree = config.TopologyConfig{LeafSize: 2, PodLeaves: 4, Spines: 8, Cores: 3, QueueCredits: 2, ECNThreshold: 1}
			},
		},
		{
			// A populated-but-disabled HealthConfig and an explicit empty
			// CrashConfig: no crash, fencing, or epoch counter may move.
			name: "crash",
			inert: func(c *config.SystemConfig) {
				c.Crash = config.CrashConfig{Events: nil}
				c.Health = config.DefaultHealth()
				c.Health.Enabled = false
			},
			moved: func(ns nic.Stats) int64 {
				return ns.Crashes + ns.Restarts + ns.DownDrops + ns.StaleSrcDrops + ns.StaleDstDrops +
					ns.EpochResets + ns.FencedCommands + ns.FencedTriggers + ns.FencedDeliveries +
					ns.PeersDeclaredCrashed + ns.CanceledTriggers + ns.UnmatchedDrops
			},
		},
		{
			// A seed with no events compiles to no scenario and draws nothing.
			name:  "scenario",
			inert: func(c *config.SystemConfig) { c.Scenario = config.ScenarioConfig{Seed: 99} },
			check: func(t *testing.T, c *node.Cluster) {
				if c.Scenario != nil {
					t.Fatalf("eventless scenario compiled to %+v", c.Scenario)
				}
			},
		},
		{
			// An empty partition event list, a degradation window with
			// factor 1 and no loss, and MinRTO set while AdaptiveRTO is off
			// (only the adaptive branch reads it).
			name: "partition",
			inert: func(c *config.SystemConfig) {
				c.Faults.Partition = config.PartitionConfig{Events: nil}
				c.Faults.Degrade = config.DegradeConfig{Windows: []config.DegradeWindow{
					{Src: -1, Dst: -1, Until: sim.Second, LatencyFactor: 1},
				}}
				c.NIC.Reliability.MinRTO = 5 * sim.Microsecond
				c.NIC.Reliability.AdaptiveRTO = false
			},
			moved: func(ns nic.Stats) int64 {
				return ns.PeersDeclaredPartitioned + ns.PeersHealed + ns.SessionResets + ns.StaleSessionDrops
			},
		},
		{
			// A seed with no window compiles to no plan and owns no RNG.
			name:  "straggler",
			inert: func(c *config.SystemConfig) { c.Faults.Slow = config.SlowConfig{Seed: 99} },
			moved: func(ns nic.Stats) int64 {
				return ns.SlowCmdStretched + ns.SlowCmdStalls + ns.SlowDMAStretched + ns.PeersDeclaredSlow +
					ns.SlowRecoveries + ns.HedgedSends + ns.MaxSlowdownSeen
			},
		},
	}

	zero := run(t, nil)
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := run(t, tt.inert)
			if tt.check != nil {
				tt.check(t, zero.cluster)
				tt.check(t, got.cluster)
			}
			if got.dur != zero.dur {
				t.Fatalf("duration diverged: zero config %v vs inert config %v", zero.dur, got.dur)
			}
			for i := range zero.stats {
				if zero.stats[i] != got.stats[i] {
					t.Fatalf("node %d stats diverged:\nzero:  %+v\ninert: %+v", i, zero.stats[i], got.stats[i])
				}
				if tt.moved != nil && tt.moved(zero.stats[i]) != 0 {
					t.Fatalf("node %d: zero-config run moved a %s counter: %+v", i, tt.name, zero.stats[i])
				}
			}
			if !reflect.DeepEqual(zero.out, got.out) {
				t.Fatal("outputs diverged between the zero and inert configs")
			}
		})
	}
}
