package network

import (
	"testing"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/sim"
)

// transports builds both fabric topologies with an injector, so every fault
// behavior is asserted at both fabrics' fault points. The fat-tree puts two
// nodes on each leaf, so 0->3 crosses a spine.
func transports(e *sim.Engine, n int, faults config.FaultConfig) map[string]*Fabric {
	star := New(e, netCfg(), n)
	cfg := ftCfg()
	cfg.FatTree.LeafSize = 2
	m := map[string]*Fabric{"star": star, "fattree": New(e, cfg, n)}
	for _, tr := range m {
		tr.SetInjector(fault.NewInjector(faults, n))
	}
	return m
}

func TestInjectorDropSuppressesDelivery(t *testing.T) {
	for name, run := range map[string]config.FaultConfig{
		"drop": {Seed: 1, DropProb: 1.0},
	} {
		e := sim.NewEngine()
		for topo, tr := range transports(e, 4, run) {
			delivered := 0
			tr.Bind(1, func(m *Message) { delivered++ })
			tr.Bind(3, func(m *Message) { delivered++ })
			e.Go("send."+topo, func(p *sim.Proc) {
				tr.Send(&Message{Src: 0, Dst: 1, Size: 64})
				tr.Send(&Message{Src: 0, Dst: 3, Size: 3 * 4096}) // cross-leaf, multi-packet
			})
			e.Run()
			if delivered != 0 {
				t.Fatalf("%s/%s: %d messages delivered through a 100%% lossy fabric", name, topo, delivered)
			}
			if tr.PacketsDropped() == 0 || tr.MessagesLost() != 2 {
				t.Fatalf("%s/%s: drops=%d lost=%d", name, topo, tr.PacketsDropped(), tr.MessagesLost())
			}
		}
	}
}

// One dropped packet of a multi-packet message loses the whole message —
// partial payloads must never reach the handler — but the surviving packets
// still consumed wire time.
func TestPartialDropLosesWholeMessage(t *testing.T) {
	// Drop probability low enough that (with this seed) some packets of the
	// 8-packet message survive and some are dropped.
	e := sim.NewEngine()
	f := New(e, netCfg(), 2)
	f.SetInjector(fault.NewInjector(config.FaultConfig{Seed: 3, DropProb: 0.3}, 2))
	delivered := 0
	f.Bind(1, func(m *Message) { delivered++ })
	e.Go("send", func(p *sim.Proc) {
		f.Send(&Message{Src: 0, Dst: 1, Size: 8 * 4096})
	})
	e.Run()
	drops := f.PacketsDropped()
	if drops == 0 || drops == 8 {
		t.Fatalf("seed 3 dropped %d/8 packets; want a partial loss — pick another seed", drops)
	}
	if delivered != 0 {
		t.Fatal("partially-dropped message was delivered")
	}
	if f.MessagesLost() != 1 {
		t.Fatalf("MessagesLost = %d", f.MessagesLost())
	}
	// The source still serialized all 8 packets: loss wastes bandwidth.
	if e.Now() < sim.BytesAtGbps(8*4096, 100) {
		t.Fatalf("finished at %v, before the full serialization time", e.Now())
	}
}

func TestInjectorCorruptFlagsMessage(t *testing.T) {
	e := sim.NewEngine()
	for topo, tr := range transports(e, 4, config.FaultConfig{Seed: 1, CorruptProb: 1.0}) {
		var got *Message
		tr.Bind(3, func(m *Message) { got = m })
		e.Go("send."+topo, func(p *sim.Proc) {
			tr.Send(&Message{Src: 0, Dst: 3, Size: 64})
		})
		e.Run()
		if got == nil {
			t.Fatalf("%s: corrupted message not delivered (corruption is not loss)", topo)
		}
		if !got.Corrupted {
			t.Fatalf("%s: Corrupted flag not set", topo)
		}
		if tr.MessagesCorrupted() != 1 {
			t.Fatalf("%s: MessagesCorrupted = %d", topo, tr.MessagesCorrupted())
		}
	}
}

func TestInjectorJitterDelaysDelivery(t *testing.T) {
	arrival := func(faults config.FaultConfig) sim.Time {
		e := sim.NewEngine()
		f := New(e, netCfg(), 2)
		f.SetInjector(fault.NewInjector(faults, 2))
		var at sim.Time
		f.Bind(1, func(m *Message) { at = e.Now() })
		e.Go("send", func(p *sim.Proc) { f.Send(&Message{Src: 0, Dst: 1, Size: 64}) })
		e.Run()
		return at
	}
	clean := arrival(config.FaultConfig{})
	// A jitter floor this large cannot draw 0 often enough to tie: with
	// seed 5 the single draw is nonzero.
	jittered := arrival(config.FaultConfig{Seed: 5, DelayJitter: 10 * sim.Microsecond})
	if jittered <= clean {
		t.Fatalf("jittered arrival %v not after clean %v", jittered, clean)
	}
}

// The fault-free path must not change at all when an injector is armed but
// draws no faults — and a nil injector is the true zero-cost baseline.
func TestNilInjectorIdenticalToNoInjector(t *testing.T) {
	run := func(set bool) sim.Time {
		e := sim.NewEngine()
		f := New(e, netCfg(), 2)
		if set {
			f.SetInjector(nil)
		}
		f.Bind(1, func(m *Message) {})
		e.Go("send", func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				f.Send(&Message{Src: 0, Dst: 1, Size: 9000})
			}
		})
		e.Run()
		return e.Now()
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("nil injector changed timing: %v vs %v", a, b)
	}
}

// A degradation window's latency factor stretches flight time (propagation
// plus switching) but not serialization: arrival time must be linear in
// the factor — arrival(f) = clean + (f-1)*flight — on both fabrics, so the
// factor-100 excess is exactly 11x the factor-10 excess.
func TestDegradeLatencyFactorStretchesFlightLinearly(t *testing.T) {
	degraded := func(factor float64) config.FaultConfig {
		return config.FaultConfig{Degrade: config.DegradeConfig{Windows: []config.DegradeWindow{
			{Src: -1, Dst: -1, Until: sim.Second, LatencyFactor: factor},
		}}}
	}
	arrivals := func(faults config.FaultConfig) map[string]sim.Time {
		e := sim.NewEngine()
		out := map[string]sim.Time{}
		for topo, tr := range transports(e, 4, faults) {
			topo, tr := topo, tr
			tr.Bind(3, func(m *Message) { out[topo] = e.Now() })
			e.Go("send."+topo, func(p *sim.Proc) {
				tr.Send(&Message{Src: 0, Dst: 3, Size: 64}) // cross-leaf on the fat-tree
			})
		}
		e.Run()
		return out
	}
	clean := arrivals(config.FaultConfig{})
	slow10 := arrivals(degraded(10))
	slow100 := arrivals(degraded(100))
	for topo, cl := range clean {
		x10, x100 := slow10[topo]-cl, slow100[topo]-cl
		if x10 <= 0 {
			t.Fatalf("%s: factor 10 did not slow delivery (clean %v, degraded %v)", topo, cl, slow10[topo])
		}
		if x100 != 11*x10 {
			t.Fatalf("%s: excess not linear in factor: 10x adds %v, 100x adds %v (want 11x)", topo, x10, x100)
		}
	}
}

// Partition blackholes count and suppress delivery at the fabric level.
func TestPartitionBlackholeSuppressesDelivery(t *testing.T) {
	cut := config.FaultConfig{Partition: config.PartitionConfig{Events: []config.PartitionEvent{
		{A: []int{0}, At: 1 * sim.Nanosecond},
	}}}
	e := sim.NewEngine()
	for topo, tr := range transports(e, 4, cut) {
		delivered := 0
		tr.Bind(1, func(m *Message) { delivered++ })
		tr.Bind(3, func(m *Message) { delivered++ })
		e.Go("send."+topo, func(p *sim.Proc) {
			p.Sleep(sim.Microsecond)
			tr.Send(&Message{Src: 0, Dst: 1, Size: 64})
			tr.Send(&Message{Src: 0, Dst: 3, Size: 64})
		})
		e.Run()
		if delivered != 0 {
			t.Fatalf("%s: %d messages crossed an active cut", topo, delivered)
		}
		if tr.MessagesLost() != 2 {
			t.Fatalf("%s: MessagesLost = %d, want 2", topo, tr.MessagesLost())
		}
	}
}

// Silent wire corruption is drawn at the shared fault point, so both
// fabrics flip payload bits past a green link checksum: the message
// delivers, SilentCorrupt set, Corrupted clear.
func TestSDCWireFlipsOnEveryFabric(t *testing.T) {
	e := sim.NewEngine()
	wire := config.FaultConfig{SDC: config.SDCConfig{Seed: 3, WireProb: 1.0}}
	for topo, tr := range transports(e, 4, wire) {
		var got *Message
		tr.Bind(3, func(m *Message) { got = m })
		e.Go("send."+topo, func(p *sim.Proc) {
			tr.Send(&Message{Src: 0, Dst: 3, Size: 64})
		})
		e.Run()
		if got == nil {
			t.Fatalf("%s: silently corrupted message not delivered", topo)
		}
		if !got.SilentCorrupt || got.Corrupted {
			t.Fatalf("%s: SilentCorrupt=%v Corrupted=%v, want a silent flip only", topo, got.SilentCorrupt, got.Corrupted)
		}
		if tr.MessagesCorrupted() != 0 {
			t.Fatalf("%s: MessagesCorrupted = %d, silent flips must not count as link corruption", topo, tr.MessagesCorrupted())
		}
	}
}
