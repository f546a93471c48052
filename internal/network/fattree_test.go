package network

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/audit"
	"repro/internal/config"
	"repro/internal/sim"
)

// ftCfg returns netCfg with a default fat-tree shape: 16 nodes fill
// 4 leaves, 2 pods, 2 spines/pod (4 global), 2 cores.
func ftCfg() config.NetworkConfig {
	c := netCfg()
	c.Topology = config.TopologyFatTree
	return c
}

func TestFatTreeShape(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, ftCfg(), 16)
	if f.Leaves() != 4 || f.Pods() != 2 || f.Spines() != 4 || f.Cores() != 2 {
		t.Fatalf("shape = %d leaves %d pods %d spines %d cores", f.Leaves(), f.Pods(), f.Spines(), f.Cores())
	}
	if f.SwitchCount() != 4+4+2 {
		t.Fatalf("SwitchCount = %d, want 10", f.SwitchCount())
	}
	if f.SwitchName(0) != "leaf0" || f.SwitchName(5) != "spine1" || f.SwitchName(9) != "core1" {
		t.Fatalf("SwitchName: %q %q %q", f.SwitchName(0), f.SwitchName(5), f.SwitchName(9))
	}
}

func TestFatTreeTierLatencies(t *testing.T) {
	ser := sim.BytesAtGbps(64, 100)
	l, s := 100*sim.Nanosecond, 100*sim.Nanosecond
	cases := []struct {
		name string
		dst  NodeID
		want sim.Time
	}{
		// 2 hops: egress (L+S) + ingress (L).
		{"same-leaf", 1, 2*ser + 2*l + s},
		// 4 hops: egress, leafUp, spineDown (each L+S) + ingress (L).
		{"intra-pod", 5, 4*ser + 4*l + 3*s},
		// 6 hops: five switch-latency hops + final ingress link.
		{"cross-pod", 12, 6*ser + 6*l + 5*s},
	}
	for _, tc := range cases {
		e := sim.NewEngine()
		f := New(e, ftCfg(), 16)
		var arrived sim.Time
		f.Bind(tc.dst, func(m *Message) { arrived = e.Now() })
		dst := tc.dst
		e.Go("s", func(p *sim.Proc) { f.Send(&Message{Src: 0, Dst: dst, Size: 64}) })
		e.Run()
		if arrived != tc.want {
			t.Errorf("%s latency = %v, want %v", tc.name, arrived, tc.want)
		}
	}
}

func TestFatTreeSpineKillReroutes(t *testing.T) {
	// Pod 0 has two spines; kill each in turn — the intra-pod flow 0->5
	// must reroute through the survivor both times.
	for kill := 0; kill < 2; kill++ {
		e := sim.NewEngine()
		f := New(e, ftCfg(), 16)
		delivered := 0
		f.Bind(5, func(m *Message) { delivered++ })
		f.KillSwitch(config.SwitchTierSpine, kill)
		e.Go("s", func(p *sim.Proc) { f.Send(&Message{Src: 0, Dst: 5, Size: 4096}) })
		e.Run()
		if delivered != 1 {
			t.Fatalf("kill spine %d: delivered = %d, want 1", kill, delivered)
		}
		if f.Unrouteable() != 0 {
			t.Fatalf("kill spine %d: unrouteable = %d", kill, f.Unrouteable())
		}
	}
}

func TestFatTreeTrunkKillReroutes(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, ftCfg(), 16)
	delivered := 0
	f.Bind(5, func(m *Message) { delivered++ })
	// Cut leaf0's uplink to spine0: 0->5 must use spine1.
	f.KillTrunk(config.SwitchTierLeaf, 0, config.SwitchTierSpine, 0)
	e.Go("s", func(p *sim.Proc) { f.Send(&Message{Src: 0, Dst: 5, Size: 4096}) })
	e.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
}

func TestFatTreeUnrouteableNamed(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, ftCfg(), 16)
	delivered := 0
	f.Bind(5, func(m *Message) { delivered++ })
	f.Bind(1, func(m *Message) { delivered++ })
	// Kill both pod-0 spines: intra-pod crossing leaf boundaries has no
	// path left, but same-leaf traffic still turns at the leaf.
	f.KillSwitch(config.SwitchTierSpine, 0)
	f.KillSwitch(config.SwitchTierSpine, 1)
	e.Go("s", func(p *sim.Proc) {
		f.Send(&Message{Src: 0, Dst: 5, Size: 64})
		f.Send(&Message{Src: 0, Dst: 1, Size: 64})
	})
	e.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (same-leaf only)", delivered)
	}
	if f.Unrouteable() != 1 {
		t.Fatalf("unrouteable = %d, want 1", f.Unrouteable())
	}
	samples := f.UnroutedSamples()
	if len(samples) != 1 || !strings.Contains(samples[0].Reason, "no surviving spine path") {
		t.Fatalf("samples = %+v", samples)
	}
	if f.MessagesLost() != 1 {
		t.Fatalf("MessagesLost = %d, want 1", f.MessagesLost())
	}
}

func TestFatTreeDeadLeafUnrouteable(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, ftCfg(), 16)
	f.Bind(5, func(m *Message) { t.Error("delivered through a dead leaf") })
	f.KillSwitch(config.SwitchTierLeaf, 1)
	e.Go("s", func(p *sim.Proc) { f.Send(&Message{Src: 0, Dst: 5, Size: 64}) })
	e.Run()
	if f.Unrouteable() != 1 {
		t.Fatalf("unrouteable = %d, want 1", f.Unrouteable())
	}
	if got := f.UnroutedSamples()[0].Reason; got != "leaf 1 down" {
		t.Fatalf("reason = %q", got)
	}
}

func TestFatTreeKillRestoreCycle(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, ftCfg(), 16)
	delivered := 0
	f.Bind(12, func(m *Message) { delivered++ })
	// Kill everything 0->12 could use at t=0, restore at 10us, send at 20us.
	for g := 0; g < 4; g++ {
		f.KillSwitch(config.SwitchTierSpine, g)
	}
	e.Go("s", func(p *sim.Proc) {
		f.Send(&Message{Src: 0, Dst: 12, Size: 64}) // unrouteable now
		p.Sleep(10 * sim.Microsecond)
		for g := 0; g < 4; g++ {
			f.RestoreSwitch(config.SwitchTierSpine, g)
		}
		p.Sleep(10 * sim.Microsecond)
		f.Send(&Message{Src: 0, Dst: 12, Size: 64}) // routes again
	})
	e.Run()
	if delivered != 1 || f.Unrouteable() != 1 {
		t.Fatalf("delivered = %d unrouteable = %d, want 1/1", delivered, f.Unrouteable())
	}
}

func TestFatTreeMidFlightKillDropsAndCounts(t *testing.T) {
	// A large message is mid-flight through pod 0's only configured spine
	// path when the whole spine tier dies: the in-flight frames drop at the
	// dead ports, the message is damaged (never delivered), and the drops
	// land in SwitchDrops.
	e := sim.NewEngine()
	f := New(e, ftCfg(), 16)
	delivered := 0
	f.Bind(5, func(m *Message) { delivered++ })
	e.Go("s", func(p *sim.Proc) {
		f.Send(&Message{Src: 0, Dst: 5, Size: 1 << 20})
	})
	e.After(2*sim.Microsecond, func() {
		f.KillSwitch(config.SwitchTierSpine, 0)
		f.KillSwitch(config.SwitchTierSpine, 1)
	})
	e.Run()
	if delivered != 0 {
		t.Fatalf("delivered = %d, want 0 (killed mid-flight)", delivered)
	}
	if f.SwitchDrops() == 0 {
		t.Fatal("SwitchDrops = 0, want > 0")
	}
	if f.MessagesLost() != 1 {
		t.Fatalf("MessagesLost = %d, want 1", f.MessagesLost())
	}
}

func TestFatTreeCreditsBoundAndECNMarks(t *testing.T) {
	// 15-to-1 incast with 2 credits per port and marking at occupancy 1:
	// everything still arrives (backpressure, never drop) and the congested
	// ingress port marks messages.
	cfg := ftCfg()
	cfg.FatTree.QueueCredits = 2
	cfg.FatTree.ECNThreshold = 1
	e := sim.NewEngine()
	f := New(e, cfg, 16)
	delivered, marked := 0, 0
	f.Bind(0, func(m *Message) {
		delivered++
		if m.ECN {
			marked++
		}
	})
	e.Go("gen", func(p *sim.Proc) {
		for i := 1; i < 16; i++ {
			f.Send(&Message{Src: NodeID(i), Dst: 0, Size: 64 << 10})
		}
	})
	e.Run()
	if delivered != 15 {
		t.Fatalf("delivered = %d, want 15", delivered)
	}
	if f.ECNMarks() == 0 || marked == 0 {
		t.Fatalf("ECNMarks = %d, marked deliveries = %d, want > 0", f.ECNMarks(), marked)
	}
	if f.SwitchDrops() != 0 || f.MessagesLost() != 0 {
		t.Fatalf("credits must backpressure, not drop: drops=%d lost=%d", f.SwitchDrops(), f.MessagesLost())
	}
}

func TestFatTreeECMPDisjointPairsSpread(t *testing.T) {
	// Deterministic ECMP: the same pair always picks the same path, and
	// across many pairs both pod-0 spines carry traffic.
	e := sim.NewEngine()
	f := New(e, ftCfg(), 16)
	used := map[int]bool{}
	for src := 0; src < 8; src++ {
		for dst := 0; dst < 8; dst++ {
			if src == dst || f.topo.LeafOf(src) == f.topo.LeafOf(dst) {
				continue
			}
			p1, _ := f.pickPath(NodeID(src), NodeID(dst))
			p2, _ := f.pickPath(NodeID(src), NodeID(dst))
			if p1 != p2 {
				t.Fatalf("pickPath(%d,%d) not deterministic", src, dst)
			}
			for sl := 0; sl < 2; sl++ {
				if p1.st[1] == f.leafUp[f.topo.LeafOf(src)][sl] {
					used[sl] = true
				}
			}
		}
	}
	if len(used) != 2 {
		t.Fatalf("ECMP used %d of 2 pod-0 spines", len(used))
	}
}

func TestFatTreeHopConservationUnderKill(t *testing.T) {
	// The per-switch hop ledger must balance (in == out + dropped) even
	// when a spine dies mid-traffic and everything reroutes.
	e := sim.NewEngine()
	f := New(e, ftCfg(), 16)
	au := audit.New(16)
	au.RegisterHops(f.SwitchCount())
	f.SetAuditor(au)
	for i := 0; i < 16; i++ {
		f.Bind(NodeID(i), func(m *Message) {})
	}
	rng := rand.New(rand.NewSource(7))
	e.Go("gen", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			src, dst := NodeID(rng.Intn(16)), NodeID(rng.Intn(16))
			if src == dst {
				continue
			}
			f.Send(&Message{Src: src, Dst: dst, Size: int64(rng.Intn(32 << 10))})
			p.Sleep(sim.Time(rng.Intn(2000)) * sim.Nanosecond)
		}
	})
	e.After(50*sim.Microsecond, func() { f.KillSwitch(config.SwitchTierSpine, 1) })
	e.After(150*sim.Microsecond, func() { f.RestoreSwitch(config.SwitchTierSpine, 1) })
	e.Run()
	au.Finish(e.Now(), true)
	if !au.Clean() {
		vs, _ := au.Violations()
		t.Fatalf("hop ledger violated: %v", vs)
	}
}

// A one-pod, one-spine fat-tree is the oversubscribed two-level tree: all
// four nodes of leaf 0 blast cross-leaf at once, the leaf's single uplink
// serializes them, so the aggregate takes at least 4x one transfer — and
// the same load on the star, with no shared stage, finishes sooner.
func TestFatTreeUplinkOversubscription(t *testing.T) {
	const msg = 256 << 10
	blast := func(tr *Fabric, e *sim.Engine) sim.Time {
		for i := 4; i < 8; i++ {
			tr.Bind(NodeID(i), func(m *Message) {})
		}
		e.Go("gen", func(p *sim.Proc) {
			for i := 0; i < 4; i++ {
				tr.Send(&Message{Src: NodeID(i), Dst: NodeID(4 + i), Size: msg})
			}
		})
		e.Run()
		return tr.LastDelivery()
	}
	cfg := ftCfg()
	cfg.FatTree = config.TopologyConfig{LeafSize: 4, PodLeaves: 2, Spines: 1, Cores: 1}
	e := sim.NewEngine()
	tree := blast(New(e, cfg, 8), e)
	if floor := sim.BytesAtGbps(4*msg, 100); tree < floor {
		t.Fatalf("4 cross-leaf transfers finished in %v, faster than the uplink floor %v", tree, floor)
	}
	e2 := sim.NewEngine()
	if star := blast(New(e2, netCfg(), 8), e2); star >= tree {
		t.Fatalf("star (%v) should beat the oversubscribed one-spine fat-tree (%v)", star, tree)
	}
}

// treeCfg is the two-level tree of the topology ablation: one pod of
// ceil(n/leaf) leaves under a single spine (and core), so each leaf of
// leaf nodes shares one uplink to the root.
func treeCfg(n, leaf int) config.NetworkConfig {
	c := ftCfg()
	pod := 1
	if leaf > 0 {
		pod = (n + leaf - 1) / leaf
	}
	c.FatTree = config.TopologyConfig{LeafSize: leaf, PodLeaves: pod, Spines: 1, Cores: 1}
	return c
}

func TestTreeSameLeafLatency(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, treeCfg(8, 4), 8)
	var arrived sim.Time
	f.Bind(1, func(m *Message) { arrived = e.Now() })
	e.Go("s", func(p *sim.Proc) { f.Send(&Message{Src: 0, Dst: 1, Size: 64}) })
	e.Run()
	// Same leaf: ser(src) + link + switch + ser(dst) + link — identical to
	// the star path.
	want := 2*sim.BytesAtGbps(64, 100) + 300*sim.Nanosecond
	if arrived != want {
		t.Fatalf("same-leaf latency = %v, want %v", arrived, want)
	}
}

func TestTreeCrossLeafLatency(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, treeCfg(8, 4), 8)
	var arrived sim.Time
	f.Bind(5, func(m *Message) { arrived = e.Now() })
	e.Go("s", func(p *sim.Proc) { f.Send(&Message{Src: 0, Dst: 5, Size: 64}) })
	e.Run()
	// Cross leaf: 4 serialization stages + 4 links + 3 switches.
	want := 4*sim.BytesAtGbps(64, 100) + 4*100*sim.Nanosecond + 3*100*sim.Nanosecond
	if arrived != want {
		t.Fatalf("cross-leaf latency = %v, want %v", arrived, want)
	}
}

func TestTreeLeafAccessors(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, treeCfg(10, 4), 10)
	if f.Leaves() != 3 {
		t.Fatalf("Leaves = %d", f.Leaves())
	}
	if f.Nodes() != 10 {
		t.Fatalf("Nodes = %d", f.Nodes())
	}
	if f.Pods() != 1 || f.Spines() != 1 || f.Cores() != 1 {
		t.Fatalf("shape = %d pods %d spines %d cores, want one of each", f.Pods(), f.Spines(), f.Cores())
	}
}

// Property: the two-level tree conserves bytes and preserves per-pair
// order under random traffic, like the star.
func TestTreeConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		n := rng.Intn(6) + 2
		leaf := rng.Intn(3) + 1
		fab := New(e, treeCfg(n, leaf), n)
		type pair struct{ s, d NodeID }
		lastSeen := map[pair]int{}
		ok := true
		for i := 0; i < n; i++ {
			fab.Bind(NodeID(i), func(m *Message) {
				pr := pair{m.Src, m.Dst}
				if seq := m.Payload.(int); seq <= lastSeen[pr] {
					ok = false
				} else {
					lastSeen[pr] = seq
				}
			})
		}
		var sent int64
		e.Go("gen", func(p *sim.Proc) {
			for i := 1; i <= 20; i++ {
				src, dst := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
				if src == dst {
					continue
				}
				size := int64(rng.Intn(10000))
				sent += size
				fab.Send(&Message{Src: src, Dst: dst, Size: size, Payload: i})
				p.Sleep(sim.Time(rng.Intn(500)) * sim.Nanosecond)
			}
		})
		e.Run()
		var delivered int64
		for i := 0; i < n; i++ {
			delivered += fab.BytesDelivered(NodeID(i))
		}
		return ok && delivered == sent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeValidation(t *testing.T) {
	e := sim.NewEngine()
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero nodes", func() { New(e, treeCfg(4, 4), 0) })
	// The leaf size is now a config field: a bad one is a config error
	// rather than a constructor panic.
	bad := config.Default()
	bad.Network.Topology = config.TopologyFatTree
	bad.Network.FatTree = treeCfg(4, -1).FatTree
	if err := bad.Validate(); err == nil {
		t.Error("negative leaf: expected a config error")
	}
	f := New(e, treeCfg(4, 2), 4)
	mustPanic("loopback", func() { f.Send(&Message{Src: 1, Dst: 1, Size: 1}) })
	mustPanic("range", func() { f.Send(&Message{Src: 0, Dst: 9, Size: 1}) })
	mustPanic("negative", func() { f.Send(&Message{Src: 0, Dst: 1, Size: -1}) })
}

// Property: the fat-tree conserves bytes and preserves per-pair order
// under random fault-free traffic, with and without credits.
func TestFatTreeConservationProperty(t *testing.T) {
	prop := func(seed int64, credits bool) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := ftCfg()
		if credits {
			cfg.FatTree.QueueCredits = rng.Intn(3) + 2
			cfg.FatTree.ECNThreshold = 1
		}
		e := sim.NewEngine()
		n := rng.Intn(14) + 2
		fab := New(e, cfg, n)
		type pair struct{ s, d NodeID }
		lastSeen := map[pair]int{}
		ok := true
		for i := 0; i < n; i++ {
			fab.Bind(NodeID(i), func(m *Message) {
				pr := pair{m.Src, m.Dst}
				if seq := m.Payload.(int); seq <= lastSeen[pr] {
					ok = false
				} else {
					lastSeen[pr] = seq
				}
			})
		}
		var sent int64
		e.Go("gen", func(p *sim.Proc) {
			for i := 1; i <= 20; i++ {
				src, dst := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
				if src == dst {
					continue
				}
				size := int64(rng.Intn(10000))
				sent += size
				fab.Send(&Message{Src: src, Dst: dst, Size: size, Payload: i})
				p.Sleep(sim.Time(rng.Intn(500)) * sim.Nanosecond)
			}
		})
		e.Run()
		var delivered int64
		for i := 0; i < n; i++ {
			delivered += fab.BytesDelivered(NodeID(i))
		}
		return ok && delivered == sent
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFatTreeValidation(t *testing.T) {
	e := sim.NewEngine()
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero nodes", func() { New(e, ftCfg(), 0) })
	f := New(e, ftCfg(), 16)
	mustPanic("loopback", func() { f.Send(&Message{Src: 1, Dst: 1, Size: 1}) })
	mustPanic("range", func() { f.Send(&Message{Src: 0, Dst: 99, Size: 1}) })
	mustPanic("negative", func() { f.Send(&Message{Src: 0, Dst: 1, Size: -1}) })
	mustPanic("bad tier", func() { f.KillSwitch("rack", 0) })
	mustPanic("bad index", func() { f.KillSwitch(config.SwitchTierSpine, 99) })
	mustPanic("cross-pod trunk", func() { f.KillTrunk(config.SwitchTierLeaf, 0, config.SwitchTierSpine, 2) })
	mustPanic("bad trunk tiers", func() { f.KillTrunk(config.SwitchTierLeaf, 0, config.SwitchTierCore, 0) })
}
