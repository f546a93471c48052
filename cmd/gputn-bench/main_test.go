package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/sim"
)

// TestParseFlagsConfig pins the SystemConfig every flag group and every
// documented invocation produces. Each want is written out field by field,
// so a binding that drifts from its flag's documented meaning (a wrong
// unit, a group armed under the wrong condition) fails here.
func TestParseFlagsConfig(t *testing.T) {
	const us = sim.Microsecond
	base := func() config.SystemConfig {
		c := config.Default()
		c.Faults.Seed = 42
		return c
	}
	mustDomains := func(s string) []config.ScenarioDomain {
		d, err := config.ParseScenarioDomains(s)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	mustEvents := func(s string) []config.ScenarioEvent {
		e, err := config.ParseScenarioEvents(s)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	reliable := func(c *config.SystemConfig) { c.NIC.Reliability = config.DefaultReliability() }

	tests := []struct {
		name string
		args []string
		want func(c *config.SystemConfig) // applied to base(); nil = base()
	}{
		{name: "defaults"},
		{
			name: "fault group",
			args: []string{"-fault-seed", "7", "-fault-drop", "0.05", "-fault-corrupt", "0.01",
				"-fault-flap-node", "2", "-fault-flap-start-us", "10", "-fault-flap-end-us", "20.5", "-reliable"},
			want: func(c *config.SystemConfig) {
				c.Faults = config.FaultConfig{Seed: 7, DropProb: 0.05, CorruptProb: 0.01,
					FlapNode: 2, FlapStart: 10 * us, FlapEnd: 20500 * sim.Nanosecond}
				reliable(c)
			},
		},
		{
			name: "adaptive rto with reliable",
			args: []string{"-reliable", "-adaptive-rto"},
			want: func(c *config.SystemConfig) {
				reliable(c)
				c.NIC.Reliability.AdaptiveRTO = true
			},
		},
		{name: "adaptive rto alone is inert", args: []string{"-adaptive-rto"}},
		{
			name: "partition group",
			args: []string{"-part-a", "0,1", "-part-b", " 2, 3", "-part-at-us", "50", "-part-heal-us", "30", "-part-asym"},
			want: func(c *config.SystemConfig) {
				c.Faults.Partition = config.PartitionConfig{Events: []config.PartitionEvent{{
					A: []int{0, 1}, B: []int{2, 3}, At: 50 * us, HealAfter: 30 * us, Asymmetric: true}}}
			},
		},
		{name: "partition unarmed without cut time", args: []string{"-part-a", "0,1", "-part-heal-us", "30"}},
		{
			name: "degrade group",
			args: []string{"-degrade-src", "2", "-degrade-dst", "3", "-degrade-from-us", "1", "-degrade-until-us", "5000",
				"-degrade-factor", "10", "-degrade-loss", "0.05", "-degrade-ramp"},
			want: func(c *config.SystemConfig) {
				c.Faults.Degrade = config.DegradeConfig{Windows: []config.DegradeWindow{{
					Src: 2, Dst: 3, From: us, Until: 5000 * us, LatencyFactor: 10, LossProb: 0.05, Ramp: true}}}
			},
		},
		{name: "degrade unarmed without window end", args: []string{"-degrade-factor", "10", "-degrade-loss", "0.05"}},
		{
			name: "crash group arms default health",
			args: []string{"-crash-node", "1", "-crash-at-us", "70", "-crash-restart-us", "60"},
			want: func(c *config.SystemConfig) {
				c.Crash = config.CrashConfig{Events: []config.CrashEvent{{Node: 1, At: 70 * us, RestartAfter: 60 * us}}}
				c.Health = config.DefaultHealth()
			},
		},
		{
			name: "health overrides",
			args: []string{"-health-period-us", "5", "-health-suspect-us", "30", "-health-stabilize-us", "0"},
			want: func(c *config.SystemConfig) {
				c.Health = config.DefaultHealth()
				c.Health.Period = 5 * us
				c.Health.SuspectAfter = 30 * us
			},
		},
		{
			name: "hedge arms slow detection",
			args: []string{"-hedge"},
			want: func(c *config.SystemConfig) {
				c.Health = config.DefaultHealth()
				c.Health.SlowDetect = true
			},
		},
		{
			name: "sdc group",
			args: []string{"-sdc-seed", "9", "-sdc-wire", "0.1", "-sdc-buffer", "0.2", "-sdc-buffer-node", "2",
				"-sdc-rank", "3", "-sdc-from-us", "5", "-sdc-until-us", "15"},
			want: func(c *config.SystemConfig) {
				c.Faults.SDC = config.SDCConfig{Seed: 9, WireProb: 0.1, BufferProb: 0.2, BufferNode: 2,
					FaultyRank: 3, FaultyFrom: 5 * us, FaultyUntil: 15 * us}
			},
		},
		{name: "sdc unarmed without a class", args: []string{"-sdc-seed", "9", "-sdc-rank", "3", "-sdc-from-us", "5"}},
		{
			name: "e2e checksum",
			args: []string{"-e2e", "-e2e-latency-ns", "50"},
			want: func(c *config.SystemConfig) {
				c.NIC.E2EChecksum = true
				c.NIC.E2EChecksumLatency = 50 * sim.Nanosecond
			},
		},
		{
			// -exp sdc prices its overhead rows with this latency whether
			// or not -e2e arms the checksum for the other experiments.
			name: "e2e latency without e2e",
			args: []string{"-e2e-latency-ns", "5000"},
			want: func(c *config.SystemConfig) { c.NIC.E2EChecksumLatency = 5 * us },
		},
		{
			name: "slow group",
			args: []string{"-slow-seed", "3", "-slow-node", "1", "-slow-from-us", "2", "-slow-until-us", "800",
				"-slow-gpu-factor", "10", "-slow-cmd-factor", "4", "-slow-stall-prob", "0.1", "-slow-stall-us", "7",
				"-slow-dma-factor", "2"},
			want: func(c *config.SystemConfig) {
				c.Faults.Slow = config.SlowConfig{Seed: 3, Windows: []config.SlowWindow{{
					Node: 1, From: 2 * us, Until: 800 * us, GPUFactor: 10, CmdFactor: 4,
					CmdStallProb: 0.1, CmdStallTime: 7 * us, DMAFactor: 2}}}
			},
		},
		{name: "slow unarmed without window end", args: []string{"-slow-node", "1", "-slow-gpu-factor", "10"}},
		{
			name: "scenario group",
			args: []string{"-scenario-seed", "7", "-scenario-domains", "rack0=0,1,2",
				"-scenario-events", "rackfail:rack0@70us,heal=60us,jitter=10us"},
			want: func(c *config.SystemConfig) {
				c.Scenario = config.ScenarioConfig{Seed: 7, Domains: mustDomains("rack0=0,1,2"),
					Events: mustEvents("rackfail:rack0@70us,heal=60us,jitter=10us")}
			},
		},
		{name: "scenario unarmed without events", args: []string{"-scenario-seed", "7", "-scenario-domains", "rack0=0,1,2"}},
		{
			name: "cap group",
			args: []string{"-cap-trigger-entries", "8", "-cap-placeholders", "4", "-cap-cmdq", "16",
				"-cap-trigger-fifo", "32"},
			want: func(c *config.SystemConfig) {
				c.NIC.Resources = config.ResourceConfig{TriggerEntries: 8, PlaceholderEntries: 4, CmdQueueDepth: 16}
				c.NIC.TriggerFIFODepth = 32
			},
		},
		{
			name: "topology group",
			args: []string{"-topo", "fattree", "-topo-leaf", "2", "-topo-podleaves", "4", "-topo-spines", "3",
				"-topo-cores", "5", "-topo-credits", "8", "-topo-ecn", "4"},
			want: func(c *config.SystemConfig) {
				c.Network.Topology = config.TopologyFatTree
				c.Network.FatTree = config.TopologyConfig{LeafSize: 2, PodLeaves: 4, Spines: 3, Cores: 5,
					QueueCredits: 8, ECNThreshold: 4}
			},
		},
		{
			name: "switch group",
			args: []string{"-topo", "fattree", "-reliable", "-switch-tier", "trunk", "-switch-a", "leaf0",
				"-switch-b", "spine1", "-switch-at-us", "10", "-switch-restore-us", "40"},
			want: func(c *config.SystemConfig) {
				c.Network.Topology = config.TopologyFatTree
				reliable(c)
				c.Faults.Switch = config.SwitchConfig{Events: []config.SwitchEvent{{
					Tier: "trunk", A: "leaf0", B: "spine1", At: 10 * us, RestoreAfter: 40 * us}}}
			},
		},
		{name: "switch unarmed without kill time", args: []string{"-switch-tier", "spine", "-switch-index", "1"}},
		{name: "shards", args: []string{"-shards", "4"}, want: func(c *config.SystemConfig) { c.Shards = 4 }},

		// Every gputn-bench invocation in README.md.
		{name: "readme all", args: []string{"-exp", "all"}},
		{name: "readme ablations", args: []string{"-exp", "ablations"}},
		{name: "readme faults", args: []string{"-exp", "faults"}},
		{
			name: "readme fig10 lossy",
			args: []string{"-exp", "fig10", "-fault-drop", "0.05", "-reliable"},
			want: func(c *config.SystemConfig) { c.Faults.DropProb = 0.05; reliable(c) },
		},
		{
			name: "readme faults flap",
			args: []string{"-exp", "faults", "-fault-flap-node", "1", "-fault-flap-start-us", "5", "-fault-flap-end-us", "60", "-reliable"},
			want: func(c *config.SystemConfig) {
				c.Faults.FlapNode, c.Faults.FlapStart, c.Faults.FlapEnd = 1, 5*us, 60*us
				reliable(c)
			},
		},
		{name: "readme resources", args: []string{"-exp", "resources"}},
		{
			name: "readme fig10 capped",
			args: []string{"-exp", "fig10", "-cap-trigger-entries", "3"},
			want: func(c *config.SystemConfig) { c.NIC.Resources.TriggerEntries = 3 },
		},
		{name: "readme crash", args: []string{"-exp", "crash"}},
		{
			name: "readme crash slow detection",
			args: []string{"-exp", "crash", "-health-suspect-us", "150"},
			want: func(c *config.SystemConfig) {
				c.Health = config.DefaultHealth()
				c.Health.SuspectAfter = 150 * us
			},
		},
		{
			name: "readme crash schedule",
			args: []string{"-exp", "crash", "-crash-node", "1", "-crash-at-us", "70", "-crash-restart-us", "60"},
			want: func(c *config.SystemConfig) {
				c.Crash = config.CrashConfig{Events: []config.CrashEvent{{Node: 1, At: 70 * us, RestartAfter: 60 * us}}}
				c.Health = config.DefaultHealth()
			},
		},
		{name: "readme partitions", args: []string{"-exp", "partitions"}},
		{
			name: "readme crash asymmetric cut",
			args: []string{"-exp", "crash", "-reliable", "-part-a", "2", "-part-at-us", "5", "-part-asym"},
			want: func(c *config.SystemConfig) {
				reliable(c)
				c.Faults.Partition = config.PartitionConfig{Events: []config.PartitionEvent{{
					A: []int{2}, At: 5 * us, Asymmetric: true}}}
			},
		},
		{
			name: "readme fig10 gray link",
			args: []string{"-exp", "fig10", "-reliable", "-adaptive-rto", "-degrade-src", "2", "-degrade-dst", "-1",
				"-degrade-until-us", "5000", "-degrade-factor", "10", "-degrade-loss", "0.05"},
			want: func(c *config.SystemConfig) {
				reliable(c)
				c.NIC.Reliability.AdaptiveRTO = true
				c.Faults.Degrade = config.DegradeConfig{Windows: []config.DegradeWindow{{
					Src: 2, Dst: -1, Until: 5000 * us, LatencyFactor: 10, LossProb: 0.05}}}
			},
		},
		{name: "readme sdc", args: []string{"-exp", "sdc"}},
		{
			name: "readme fig8 sdc",
			args: []string{"-exp", "fig8", "-reliable", "-e2e", "-sdc-wire", "0.01"},
			want: func(c *config.SystemConfig) {
				reliable(c)
				c.NIC.E2EChecksum = true
				c.Faults.SDC = config.SDCConfig{Seed: 42, WireProb: 0.01}
			},
		},
		{name: "readme stragglers", args: []string{"-exp", "stragglers"}},
		{
			name: "readme fig8 straggler",
			args: []string{"-exp", "fig8", "-reliable", "-hedge", "-slow-node", "1", "-slow-gpu-factor", "10", "-slow-until-us", "800"},
			want: func(c *config.SystemConfig) {
				reliable(c)
				c.Health = config.DefaultHealth()
				c.Health.SlowDetect = true
				c.Faults.Slow = config.SlowConfig{Seed: 42, Windows: []config.SlowWindow{{Node: 1, Until: 800 * us, GPUFactor: 10}}}
			},
		},
		{
			name: "readme fig10 gray pair scenario",
			args: []string{"-exp", "fig10", "-reliable", "-scenario-domains", "pair=0,1",
				"-scenario-events", "gray:pair@10us,heal=2ms,lat=3,loss=0.01"},
			want: func(c *config.SystemConfig) {
				reliable(c)
				c.Scenario = config.ScenarioConfig{Seed: 42, Domains: mustDomains("pair=0,1"),
					Events: mustEvents("gray:pair@10us,heal=2ms,lat=3,loss=0.01")}
			},
		},
		{name: "readme chaossearch", args: []string{"-exp", "chaossearch", "-chaos-trials", "4"}},
		{name: "readme chaossearch inject", args: []string{"-exp", "chaossearch", "-chaos-inject", "doublefire"}},
		{
			name: "readme chaos replay",
			args: []string{"-exp", "chaossearch", "-chaos-replay", "-chaos-inject", "doublefire", "-scenario-seed", "7",
				"-scenario-domains", "rack0=0", "-scenario-events", "rackfail:rack0@1us,heal=1ps"},
			want: func(c *config.SystemConfig) {
				c.Scenario = config.ScenarioConfig{Seed: 7, Domains: mustDomains("rack0=0"),
					Events: mustEvents("rackfail:rack0@1us,heal=1ps")}
			},
		},
		{
			name: "readme fig10 spine kill",
			args: []string{"-exp", "fig10", "-topo", "fattree", "-reliable", "-switch-tier", "spine", "-switch-index", "0", "-switch-at-us", "10"},
			want: func(c *config.SystemConfig) {
				c.Network.Topology = config.TopologyFatTree
				reliable(c)
				c.Faults.Switch = config.SwitchConfig{Events: []config.SwitchEvent{{Tier: "spine", At: 10 * us}}}
			},
		},
		{name: "readme perf", args: []string{"-exp", "perf", "-perf-preset", "smoke", "-bench-baseline", "BENCH_sim.json", "-bench-out", "perf.json"}},
		{name: "readme fig10 shards", args: []string{"-exp", "fig10", "-shards", "1"}, want: func(c *config.SystemConfig) { c.Shards = 1 }},
		{name: "readme profiles", args: []string{"-exp", "fig10", "-cpuprofile", "cpu.pb.gz", "-memprofile", "mem.pb.gz"}},
		{name: "readme timelines", args: []string{"-exp", "timelines", "-out", "traces"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, _, err := parseFlags(tt.args)
			if err != nil {
				t.Fatalf("parseFlags(%q): %v", tt.args, err)
			}
			want := base()
			if tt.want != nil {
				tt.want(&want)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("parseFlags(%q) config:\n got %+v\nwant %+v", tt.args, got, want)
			}
		})
	}
}

// TestParseFlagsOptions pins the run-steering flags.
func TestParseFlagsOptions(t *testing.T) {
	_, got, err := parseFlags([]string{"-exp", "perf", "-list", "-out", "d", "-parallel", "3",
		"-perf-preset", "smoke", "-bench-out", "o.json", "-bench-baseline", "b.json",
		"-cpuprofile", "c", "-memprofile", "m", "-chaos-seed", "7", "-chaos-trials", "4",
		"-chaos-inject", "doublefire", "-chaos-replay"})
	if err != nil {
		t.Fatal(err)
	}
	want := options{exp: "perf", out: "d", list: true, parallel: 3, perfPreset: "smoke",
		benchOut: "o.json", benchBase: "b.json", cpuprofile: "c", memprofile: "m",
		chaos: bench.ChaosConfig{Seed: 7, Trials: 4, Inject: "doublefire"}, chaosReplay: true}
	if got != want {
		t.Fatalf("options:\n got %+v\nwant %+v", got, want)
	}
}

// TestParseFlagsRejects: malformed values, invalid configs, and retired
// flags fail parsing with an error naming the problem.
func TestParseFlagsRejects(t *testing.T) {
	tests := []struct {
		args []string
		want string
	}{
		{[]string{"-fault-drop", "x"}, "-fault-drop"},
		{[]string{"-crash-at-us", "soon"}, "-crash-at-us"},
		{[]string{"-part-a", "1,x", "-part-at-us", "5"}, `node list "1,x"`},
		{[]string{"-fault-drop", "1.5"}, "config:"},
		{[]string{"-cap-trigger-entries", "-1"}, "config:"},
		{[]string{"-health-suspect-us", "5"}, "config:"},
		{[]string{"-e2e-latency-ns", "-1"}, "config:"},
		{[]string{"-topo", "dragonfly"}, "unknown topology"},
		{[]string{"-switch-tier", "spine", "-switch-at-us", "10"}, "config:"},
		{[]string{"-scenario-events", "bogus"}, "-scenario-events"},
		{[]string{"-bench-tolerance", "0.3"}, "-bench-tolerance"},
		{[]string{"-csv", "d"}, "-csv"},
	}
	for _, tt := range tests {
		if _, _, err := parseFlags(tt.args); err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("parseFlags(%q) = %v, want an error containing %q", tt.args, err, tt.want)
		}
	}
}

// TestExperimentListMatchesRunners: -list and the runner map name the same
// experiments, and -exp all/figures run only experiments that exist.
func TestExperimentListMatchesRunners(t *testing.T) {
	var listed []string
	for _, e := range experimentList {
		listed = append(listed, e.name)
	}
	var run []string
	for name := range runners(config.Default(), options{}) {
		run = append(run, name)
	}
	sort.Strings(listed)
	sort.Strings(run)
	if !reflect.DeepEqual(listed, run) {
		t.Fatalf("experimentList %v != runners %v", listed, run)
	}
	byName := map[string]bool{}
	for _, n := range listed {
		byName[n] = true
	}
	for _, n := range append(append([]string{}, allOrder...), figureOrder...) {
		if !byName[n] {
			t.Errorf("-exp all/figures names unknown experiment %q", n)
		}
	}
}

// TestMakefileRunPatternsMatchTests checks every alternative of every
// `-run '…'` pattern in the Makefile against the test functions under
// internal/. `go test -run` passes silently when nothing matches, so an
// alternative left behind by a renamed or deleted test would quietly
// shrink a suite such as `make chaos`. Alternatives that match the empty
// name (`^$`, run no test) select nothing by design and are skipped.
func TestMakefileRunPatternsMatchTests(t *testing.T) {
	mk, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	testFunc := regexp.MustCompile(`(?m)^func (Test\w*)\(`)
	var names []string
	err = filepath.WalkDir("../../internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no test functions found under internal/")
	}
	patterns := regexp.MustCompile(`-run '([^']*)'`).FindAllSubmatch(mk, -1)
	if len(patterns) == 0 {
		t.Fatal("no -run patterns found in the Makefile")
	}
	for _, p := range patterns {
		for _, alt := range strings.Split(strings.ReplaceAll(string(p[1]), "$$", "$"), "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("Makefile -run alternative %q: %v", alt, err)
				continue
			}
			if re.MatchString("") {
				continue
			}
			matched := false
			for _, name := range names {
				if re.MatchString(name) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("Makefile -run alternative %q matches no test under internal/", alt)
			}
		}
	}
}
