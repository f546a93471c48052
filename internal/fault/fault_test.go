package fault

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	if f := in.Packet(0, 0, 1); f != (PacketFate{}) {
		t.Fatalf("nil Packet fate = %+v", f)
	}
	if drop, d := in.TriggerFault(0); drop || d != 0 {
		t.Fatal("nil TriggerFault injected")
	}
	if in.CommandStall(0) != 0 {
		t.Fatal("nil CommandStall injected")
	}
	if in.Stats() != (Stats{}) {
		t.Fatal("nil Stats nonzero")
	}
	if in.Summary() != "faults: none" {
		t.Fatalf("nil Summary = %q", in.Summary())
	}
	// FaultConfig holds schedules (slices) now, so compare by arming.
	if in.Config().Enabled() {
		t.Fatal("nil Config armed")
	}
	if in.Partitions() != nil {
		t.Fatal("nil Partitions nonzero")
	}
}

func TestNewInjectorDisabledReturnsNil(t *testing.T) {
	if NewInjector(config.FaultConfig{}, 4) != nil {
		t.Fatal("zero config should build a nil injector")
	}
	// Seed alone arms nothing.
	if NewInjector(config.FaultConfig{Seed: 99}, 4) != nil {
		t.Fatal("seed-only config should build a nil injector")
	}
	if NewInjector(config.FaultConfig{DropProb: 0.1}, 4) == nil {
		t.Fatal("armed config should build an injector")
	}
}

// Same seed and call sequence must give the same verdicts (the determinism
// contract every chaos test builds on).
func TestSameSeedSameSchedule(t *testing.T) {
	cfg := config.FaultConfig{
		Seed: 7, DropProb: 0.2, CorruptProb: 0.1, DelayJitter: 100 * sim.Nanosecond,
	}
	run := func() []PacketFate {
		in := NewInjector(cfg, 4)
		var out []PacketFate
		for i := 0; i < 500; i++ {
			out = append(out, in.Packet(sim.Time(i), i%4, (i+1)%4))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// A different seed must (with overwhelming probability) differ somewhere.
	cfg.Seed = 8
	c := NewInjector(cfg, 4)
	diff := false
	for i := 0; i < 500; i++ {
		if c.Packet(sim.Time(i), i%4, (i+1)%4) != a[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("seeds 7 and 8 produced identical 500-packet schedules")
	}
}

func TestFlapWindowDropsDeterministically(t *testing.T) {
	in := NewInjector(config.FaultConfig{
		FlapNode:  2,
		FlapStart: 10 * sim.Microsecond,
		FlapEnd:   20 * sim.Microsecond,
	}, 4)
	// Inside the window, any packet touching node 2 is dropped; others pass.
	if f := in.Packet(15*sim.Microsecond, 2, 0); !f.Drop {
		t.Fatal("flap src not dropped")
	}
	if f := in.Packet(15*sim.Microsecond, 0, 2); !f.Drop {
		t.Fatal("flap dst not dropped")
	}
	if f := in.Packet(15*sim.Microsecond, 0, 1); f.Drop {
		t.Fatal("non-flap pair dropped")
	}
	// Outside the window nothing is dropped (window end is exclusive).
	if f := in.Packet(9*sim.Microsecond, 2, 0); f.Drop {
		t.Fatal("dropped before window")
	}
	if f := in.Packet(20*sim.Microsecond, 2, 0); f.Drop {
		t.Fatal("dropped at window end")
	}
	st := in.Stats()
	if st.PacketsDropped != 2 || st.FlapDrops != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTriggerAndCommandFaults(t *testing.T) {
	in := NewInjector(config.FaultConfig{
		TrigDropProb: 1.0,
		CmdStallProb: 1.0, CmdStallTime: 3 * sim.Microsecond,
	}, 4)
	if drop, _ := in.TriggerFault(0); !drop {
		t.Fatal("certain trigger drop did not drop")
	}
	if d := in.CommandStall(0); d != 3*sim.Microsecond {
		t.Fatalf("stall = %v", d)
	}
	st := in.Stats()
	if st.TriggerDrops != 1 || st.CommandStalls != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSummaryMentionsArmedFaults(t *testing.T) {
	in := NewInjector(config.FaultConfig{
		Seed: 42, DropProb: 0.05,
		FlapNode: 1, FlapStart: 1, FlapEnd: 2,
		CmdStallProb: 0.5, CmdStallTime: 1,
		TrigDropProb: 0.1,
	}, 4)
	s := in.Summary()
	for _, want := range []string{"seed=42", "drop=5.00%", "flap[node 1", "cmd-stall", "trig["} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary %q missing %q", s, want)
		}
	}
}
