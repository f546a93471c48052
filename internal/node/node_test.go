package node

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/portals"
	"repro/internal/sim"
)

// newTriggerKernel builds a one-work-group kernel that fences to system
// scope and writes the tag to the trigger address (Figure 7c shape).
func newTriggerKernel(trig portals.TriggerAddr, tag uint64) *gpu.Kernel {
	return &gpu.Kernel{
		Name:       "trigger",
		WorkGroups: 1,
		Body: func(wg *gpu.WGCtx) {
			wg.Compute(100 * sim.Nanosecond) // produce the payload
			wg.FenceSystem()
			wg.AtomicStoreSystem(func() { trig.Write(tag) })
		},
	}
}

func TestNewClusterWiring(t *testing.T) {
	c := NewCluster(config.Default(), 4)
	if c.Size() != 4 {
		t.Fatalf("Size = %d", c.Size())
	}
	for i, nd := range c.Nodes {
		if nd.Index != i {
			t.Errorf("node %d has index %d", i, nd.Index)
		}
		if nd.Ptl.Rank() != i || nd.Ptl.Size() != 4 {
			t.Errorf("node %d portals rank/size = %d/%d", i, nd.Ptl.Rank(), nd.Ptl.Size())
		}
		if nd.CPU == nil || nd.GPU == nil || nd.NIC == nil || nd.HostMem == nil || nd.GPUMem == nil {
			t.Errorf("node %d has nil subsystem", i)
		}
	}
}

func TestNewClusterValidates(t *testing.T) {
	bad := config.Default()
	bad.CPU.Cores = 0
	defer func() {
		if recover() == nil {
			t.Error("expected panic for bad config")
		}
	}()
	NewCluster(bad, 2)
}

func TestNewClusterMinimumSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero nodes")
		}
	}()
	NewCluster(config.Default(), 0)
}

func TestEndToEndPutAcrossCluster(t *testing.T) {
	// Integration: rank 0's GPU triggers a pre-registered put to rank 1,
	// crossing every composed subsystem.
	c := NewCluster(config.Default(), 2)
	n0, n1 := c.Nodes[0], c.Nodes[1]
	recvCT := n1.Ptl.CTAlloc()
	n1.Ptl.MEAppend(&portals.ME{MatchBits: 0x1, Length: 1 << 20, CT: recvCT})

	var recvAt sim.Time
	c.Eng.Go("host0", func(p *sim.Proc) {
		md := n0.Ptl.MDBind("buf", 64, "data", nil)
		if err := n0.Ptl.TrigPut(p, 1, 1, md, 64, 1, 0x1); err != nil {
			t.Error(err)
		}
		trig := n0.Ptl.GetTriggerAddr()
		n0.GPU.LaunchSync(p, newTriggerKernel(trig, 1))
	})
	c.Eng.Go("host1", func(p *sim.Proc) {
		recvCT.Wait(p, 1)
		recvAt = p.Now()
	})
	c.Run()
	if recvCT.Value() != 1 {
		t.Fatal("put never arrived")
	}
	// Intra-kernel property: data arrives before initiator kernel teardown
	// would finish (launch 1.5us + trigger + wire < 3us + wire).
	if recvAt <= 1500*sim.Nanosecond || recvAt >= 3500*sim.Nanosecond {
		t.Fatalf("recvAt = %v outside plausible intra-kernel window", recvAt)
	}
}

func TestDiscreteGPUAddsIOBusHop(t *testing.T) {
	measure := func(cfg config.SystemConfig) sim.Time {
		c := NewCluster(cfg, 2)
		n0, n1 := c.Nodes[0], c.Nodes[1]
		recvCT := n1.Ptl.CTAlloc()
		n1.Ptl.MEAppend(&portals.ME{MatchBits: 0x1, Length: 1 << 20, CT: recvCT})
		var recvAt sim.Time
		c.Eng.Go("host0", func(p *sim.Proc) {
			md := n0.Ptl.MDBind("buf", 64, nil, nil)
			if err := n0.Ptl.TrigPut(p, 1, 1, md, 64, 1, 0x1); err != nil {
				t.Error(err)
			}
			n0.Ptl.GetTriggerAddr().Write(1)
		})
		c.Eng.Go("host1", func(p *sim.Proc) {
			recvCT.Wait(p, 1)
			recvAt = p.Now()
		})
		c.Run()
		return recvAt
	}
	apu := measure(config.Default())
	disc := config.Default()
	disc.DiscreteGPU = true
	disc.IOBusLatency = 500 * sim.Nanosecond
	if d := measure(disc) - apu; d < 500*sim.Nanosecond {
		t.Fatalf("discrete hop added only %v", d)
	}
}

func TestRunUntilAdvances(t *testing.T) {
	c := NewCluster(config.Default(), 1)
	c.RunUntil(5 * sim.Microsecond)
	if c.Eng.Now() != 5*sim.Microsecond {
		t.Fatalf("Now = %v", c.Eng.Now())
	}
}

func TestStatsReport(t *testing.T) {
	c := NewCluster(config.Default(), 2)
	n0, n1 := c.Nodes[0], c.Nodes[1]
	n1.Ptl.MEAppend(&portals.ME{MatchBits: 0x1, Length: 64})
	c.Eng.Go("h", func(p *sim.Proc) {
		md := n0.Ptl.MDBind("b", 64, nil, nil)
		n0.Ptl.Put(p, md, 64, 1, 0x1)
	})
	c.Run()
	out := c.StatsReport()
	for _, want := range []string{"node  0", "node  1", "cmds=1", "sent=64B"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// A fault-free cluster has no injector and no fault lines in the report.
	if c.Injector != nil {
		t.Error("fault-free cluster built an injector")
	}
	for _, absent := range []string{"rel{", "injected:"} {
		if strings.Contains(out, absent) {
			t.Errorf("fault-free report contains %q:\n%s", absent, out)
		}
	}
}

func TestClusterWiresInjectorAndReportsFaults(t *testing.T) {
	cfg := config.Default()
	cfg.Faults = config.FaultConfig{Seed: 2, DropProb: 0.3}
	cfg.NIC.Reliability = config.DefaultReliability()
	c := NewCluster(cfg, 2)
	if c.Injector == nil {
		t.Fatal("armed faults built no injector")
	}
	n0, n1 := c.Nodes[0], c.Nodes[1]
	ct := n1.Ptl.CTAlloc()
	n1.Ptl.MEAppend(&portals.ME{MatchBits: 0x1, Length: 1 << 20, CT: ct})
	c.Eng.Go("h", func(p *sim.Proc) {
		md := n0.Ptl.MDBind("b", 2<<10, nil, nil)
		for i := 0; i < 8; i++ {
			n0.Ptl.Put(p, md, 2<<10, 1, 0x1)
		}
		ct.Wait(p, 8)
	})
	c.Run()
	if ct.Value() != 8 {
		t.Fatalf("delivered %d/8 despite reliability", ct.Value())
	}
	out := c.StatsReport()
	for _, want := range []string{"faults: seed=2 drop=30.00%", "injected: pktDrop=", "rel{retx="} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestUnknownTopologyRejected(t *testing.T) {
	cfg := config.Default()
	cfg.Network.Topology = "mesh"
	defer func() {
		if recover() == nil {
			t.Error("unknown topology accepted")
		}
	}()
	NewCluster(cfg, 2)
}

// A crash takes down the node's bound processes and the hang doctor names
// the crashed-and-never-restarted node as the likely cause.
func TestDiagnoseNamesCrashedNode(t *testing.T) {
	cfg := config.Default()
	cfg.Crash = config.CrashConfig{Events: []config.CrashEvent{
		{Node: 1, At: 5 * sim.Microsecond},
	}}
	c := NewCluster(cfg, 3)
	n1 := c.Nodes[1]
	ct := n1.Ptl.CTAlloc()
	n1.Ptl.MEAppend(&portals.ME{MatchBits: 0x1, Length: 64, CT: ct})
	// A survivor waits forever on a delivery only the crashed node's rank
	// loop would have produced.
	c.Eng.Go("waiter", func(p *sim.Proc) {
		sim.NewCounter(c.Eng).WaitGE(p, 1)
	})
	victimRan := false
	n1.Go("rank1", func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond) // killed by the crash long before this
		victimRan = true
	})
	c.Run()
	if victimRan {
		t.Fatal("node-bound process survived the crash")
	}
	if !n1.Down() {
		t.Fatal("node 1 not down")
	}
	he := c.Diagnose()
	if he == nil {
		t.Fatal("no hang diagnosis despite a parked waiter")
	}
	if len(he.Crashed) != 1 || he.Crashed[0].Node != 1 {
		t.Fatalf("diagnosis crashed list = %v, want node 1", he.Crashed)
	}
	msg := he.Error()
	if !strings.Contains(msg, "crashed and never restarted") || !strings.Contains(msg, "node 1") {
		t.Fatalf("diagnosis does not name the crashed node: %s", msg)
	}
}

// RestartNode announces the new epoch to every peer and replays OnRestart
// hooks; CrashNode propagates an immediate crash verdict into survivors.
func TestCrashRestartClusterPropagation(t *testing.T) {
	cfg := config.Default()
	cfg.NIC.Reliability = config.DefaultReliability()
	c := NewCluster(cfg, 3)
	hooks := 0
	c.Nodes[1].OnRestart(func(*Node) { hooks++ })
	c.Eng.Go("driver", func(p *sim.Proc) {
		p.Sleep(5 * sim.Microsecond)
		c.CrashNode(1)
		c.CrashNode(1) // idempotent
		for _, nd := range c.Nodes {
			if nd.Index == 1 {
				continue
			}
			if info, ok := nd.NIC.PeerDeadDetail(1); !ok || info.Reason.String() != "peer crashed" {
				t.Errorf("node %d did not get the crash verdict: %v %v", nd.Index, info, ok)
			}
		}
		p.Sleep(5 * sim.Microsecond)
		c.RestartNode(1)
		c.RestartNode(1) // idempotent
	})
	c.Run()
	if hooks != 1 {
		t.Fatalf("OnRestart hooks ran %d times, want 1", hooks)
	}
	if inc := c.Nodes[1].NIC.Incarnation(); inc != 2 {
		t.Fatalf("incarnation = %d, want 2", inc)
	}
	for _, nd := range c.Nodes {
		if nd.Index == 1 {
			continue
		}
		if nd.NIC.Stats().EpochResets == 0 {
			t.Fatalf("node %d never adopted node 1's new epoch", nd.Index)
		}
	}
}
