package config

import (
	"testing"

	"repro/internal/sim"
)

func TestDefaultMatchesTable2(t *testing.T) {
	c := Default()
	if c.CPU.Cores != 8 || c.CPU.ClockGHz != 4 || c.CPU.IssueWide != 8 {
		t.Errorf("CPU block mismatch: %+v", c.CPU)
	}
	if c.GPU.ComputeUnits != 24 || c.GPU.ClockGHz != 1 {
		t.Errorf("GPU block mismatch: %+v", c.GPU)
	}
	if c.GPU.KernelLaunch != 1500*sim.Nanosecond || c.GPU.KernelTeardown != 1500*sim.Nanosecond {
		t.Errorf("kernel latency calibration mismatch (want 1.5us/1.5us)")
	}
	if c.Network.LinkLatency != 100*sim.Nanosecond || c.Network.SwitchLatency != 100*sim.Nanosecond {
		t.Errorf("network latency mismatch: %+v", c.Network)
	}
	if c.Network.BandwidthGbps != 100 {
		t.Errorf("bandwidth = %v", c.Network.BandwidthGbps)
	}
	if c.NIC.MaxTriggerEntries != 16 {
		t.Errorf("MaxTriggerEntries = %d, want 16 (paper §3.3)", c.NIC.MaxTriggerEntries)
	}
	// Cache latencies from Table 2: L1 2 cyc @4GHz = 0.5ns; GPU L2 150 cyc @1GHz.
	if c.CPU.L1D.Latency != 500*sim.Picosecond {
		t.Errorf("CPU L1D latency = %v", c.CPU.L1D.Latency)
	}
	if c.GPU.L2.Latency != 150*sim.Nanosecond {
		t.Errorf("GPU L2 latency = %v", c.GPU.L2.Latency)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mutations := []func(*SystemConfig){
		func(c *SystemConfig) { c.CPU.Cores = 0 },
		func(c *SystemConfig) { c.GPU.ComputeUnits = -1 },
		func(c *SystemConfig) { c.GPU.WavefrontSize = 0 },
		func(c *SystemConfig) { c.Network.BandwidthGbps = 0 },
		func(c *SystemConfig) { c.Network.MTUBytes = 0 },
		func(c *SystemConfig) { c.NIC.MaxTriggerEntries = 0 },
		func(c *SystemConfig) { c.DiscreteGPU = true; c.IOBusLatency = 0 },
		func(c *SystemConfig) { c.NIC.Reliability = DefaultReliability(); c.NIC.Reliability.WindowSize = 0 },
		func(c *SystemConfig) { c.NIC.Reliability = DefaultReliability(); c.NIC.Reliability.RTOBase = 0 },
		func(c *SystemConfig) { c.NIC.Reliability = DefaultReliability(); c.NIC.Reliability.RTOPerKB = -1 },
		func(c *SystemConfig) { c.NIC.Reliability = DefaultReliability(); c.NIC.Reliability.RetryBudget = 0 },
		func(c *SystemConfig) { c.Faults.DropProb = 1.5 },
		func(c *SystemConfig) { c.Faults.CorruptProb = -0.1 },
		func(c *SystemConfig) { c.Faults.TrigDropProb = 2 },
		func(c *SystemConfig) { c.Faults.DelayJitter = -1 },
		func(c *SystemConfig) { c.Faults.CmdStallProb = 0.5; c.Faults.CmdStallTime = -1 },
		func(c *SystemConfig) { c.Faults.FlapNode = -1; c.Faults.FlapStart = 1; c.Faults.FlapEnd = 2 },
		// A sharded fat-tree's lookahead is LinkLatency alone (its final
		// ingress hop pays no switch), so a zero link must not pass.
		func(c *SystemConfig) { c.Shards = 1; c.Network.Topology = TopologyFatTree; c.Network.LinkLatency = 0 },
	}
	for i, m := range mutations {
		c := Default()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestFaultConfigEnabled(t *testing.T) {
	if (FaultConfig{}).Enabled() {
		t.Error("zero config enabled")
	}
	if (FaultConfig{Seed: 42}).Enabled() {
		t.Error("seed alone arms nothing")
	}
	armed := []FaultConfig{
		{DropProb: 0.01},
		{CorruptProb: 0.01},
		{DelayJitter: 1},
		{FlapStart: 1, FlapEnd: 2},
		{CmdStallProb: 0.5, CmdStallTime: 1},
		{TrigDropProb: 0.5},
		{TrigDelayJitter: 1},
	}
	for i, f := range armed {
		if !f.Enabled() {
			t.Errorf("config %d should be armed: %+v", i, f)
		}
	}
}

func TestDefaultReliabilityValidAndOffByDefault(t *testing.T) {
	if Default().NIC.Reliability.Enabled {
		t.Fatal("reliability must be off in the Table 2 default (pay-for-use)")
	}
	if Default().Faults.Enabled() {
		t.Fatal("faults must be off in the Table 2 default")
	}
	c := Default()
	c.NIC.Reliability = DefaultReliability()
	c.Faults = FaultConfig{Seed: 1, DropProb: 0.05}
	if err := c.Validate(); err != nil {
		t.Fatalf("default lossy preset invalid: %v", err)
	}
}

func TestFigure1PresetsShape(t *testing.T) {
	presets := Figure1Presets()
	if len(presets) != 3 {
		t.Fatalf("want 3 GPUs, got %d", len(presets))
	}
	for _, p := range presets {
		lat1 := p.LaunchLatency(1)
		// Paper: 3us-20us across devices and depths.
		if lat1 < 3*sim.Microsecond || lat1 > 20*sim.Microsecond {
			t.Errorf("%s: depth-1 latency %v outside paper range", p.Name, lat1)
		}
		// Even the best case takes 3-4us at some depth.
		best := lat1
		for _, q := range []int{1, 4, 16, 64, 256} {
			if l := p.LaunchLatency(q); l < best {
				best = l
			}
		}
		if best < 3*sim.Microsecond {
			t.Errorf("%s: best latency %v below the paper's 3us floor", p.Name, best)
		}
	}
	// GPU 1 must amortize: deep queue strictly cheaper than depth 1.
	g1 := presets[0]
	if g1.LaunchLatency(256) >= g1.LaunchLatency(1) {
		t.Error("GPU 1 should amortize with queue depth")
	}
}

func TestLaunchLatencyMonotoneSaturation(t *testing.T) {
	p := SchedulerPreset{Name: "x", BaseLatency: 10 * sim.Microsecond, PipelinedLatency: 2 * sim.Microsecond, PipelineDepth: 8}
	if p.LaunchLatency(0) != p.LaunchLatency(1) {
		t.Error("queued<1 should clamp to 1")
	}
	// Saturates at PipelinedLatency beyond PipelineDepth.
	if p.LaunchLatency(9) != p.LaunchLatency(100) {
		t.Error("latency should saturate past pipeline depth")
	}
	if p.LaunchLatency(9) != 2*sim.Microsecond {
		t.Errorf("saturated latency = %v", p.LaunchLatency(9))
	}
}

func TestQueueScanGrowth(t *testing.T) {
	p := SchedulerPreset{Name: "x", BaseLatency: 5 * sim.Microsecond, PipelinedLatency: 5 * sim.Microsecond, PipelineDepth: 1, QueueScanPerCmd: 10 * sim.Nanosecond}
	if p.LaunchLatency(100) <= p.LaunchLatency(1) {
		t.Error("queue-scan preset should grow with depth")
	}
}
