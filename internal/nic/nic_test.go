package nic

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/network"
	"repro/internal/sim"
)

// rig wires two NICs over a default fabric.
type rig struct {
	eng  *sim.Engine
	fab  *network.Fabric
	nics []*NIC
}

func newRig(t testing.TB, n int) *rig {
	t.Helper()
	cfg := config.Default()
	eng := sim.NewEngine()
	fab := network.New(eng, cfg.Network, n)
	r := &rig{eng: eng, fab: fab}
	for i := 0; i < n; i++ {
		r.nics = append(r.nics, New(eng, cfg.NIC, network.NodeID(i), fab))
	}
	return r
}

func TestBasicPut(t *testing.T) {
	r := newRig(t, 2)
	recv := sim.NewCounter(r.eng)
	var got Delivery
	r.nics[1].ExposeRegion(&Region{
		MatchBits:  0x10,
		Counter:    recv,
		OnDelivery: func(d Delivery) { got = d },
	})
	done := sim.NewCounter(r.eng)
	r.eng.Go("host", func(p *sim.Proc) {
		r.nics[0].PostCommand(p, &Command{
			Kind: OpPut, Target: 1, MatchBits: 0x10, Size: 64,
			Data: "hello", LocalCompletion: done,
		})
	})
	r.eng.Run()
	if recv.Value() != 1 {
		t.Fatalf("recv counter = %d", recv.Value())
	}
	if got.Data != "hello" || got.Size != 64 || got.From != 0 {
		t.Fatalf("delivery = %+v", got)
	}
	if done.Value() != 1 {
		t.Fatal("local completion not signaled")
	}
	if got.At <= 0 {
		t.Fatal("delivery time not stamped")
	}
}

func TestPutToUnexposedRegionPanics(t *testing.T) {
	r := newRig(t, 2)
	r.eng.Go("host", func(p *sim.Proc) {
		r.nics[0].PostCommand(p, &Command{Kind: OpPut, Target: 1, MatchBits: 0x99, Size: 8})
	})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	r.eng.Run()
}

func TestGet(t *testing.T) {
	r := newRig(t, 2)
	r.nics[1].ExposeRegion(&Region{
		MatchBits: 0x20,
		ReadBack:  func(size int64) any { return fmt.Sprintf("data[%d]", size) },
	})
	var fetched any
	done := sim.NewCounter(r.eng)
	r.eng.Go("host", func(p *sim.Proc) {
		c := &Command{Kind: OpGet, Target: 1, MatchBits: 0x20, Size: 128, LocalCompletion: done}
		r.nics[0].PostCommand(p, c)
		done.WaitGE(p, 1)
		fetched = c.Data
	})
	r.eng.Run()
	if fetched != "data[128]" {
		t.Fatalf("fetched = %v", fetched)
	}
}

func TestConcurrentGetsDoNotCollide(t *testing.T) {
	r := newRig(t, 2)
	r.nics[1].ExposeRegion(&Region{
		MatchBits: 0x20,
		ReadBack:  func(size int64) any { return size },
	})
	done := sim.NewCounter(r.eng)
	c1 := &Command{Kind: OpGet, Target: 1, MatchBits: 0x20, Size: 100, LocalCompletion: done}
	c2 := &Command{Kind: OpGet, Target: 1, MatchBits: 0x20, Size: 200, LocalCompletion: done}
	r.eng.Go("host", func(p *sim.Proc) {
		r.nics[0].PostCommandAsync(c1)
		r.nics[0].PostCommandAsync(c2)
		done.WaitGE(p, 2)
	})
	r.eng.Run()
	if c1.Data != int64(100) || c2.Data != int64(200) {
		t.Fatalf("replies crossed: c1=%v c2=%v", c1.Data, c2.Data)
	}
}

// --- Trigger-list semantics (§3.1) ---

func TestTriggeredPutFiresAtThreshold(t *testing.T) {
	r := newRig(t, 2)
	recv := sim.NewCounter(r.eng)
	r.nics[1].ExposeRegion(&Region{MatchBits: 0x30, Counter: recv})
	var fireTime sim.Time
	r.eng.Go("host", func(p *sim.Proc) {
		err := r.nics[0].RegisterTriggered(p, 7, 3, &Command{
			Kind: OpPut, Target: 1, MatchBits: 0x30, Size: 64,
		})
		if err != nil {
			t.Error(err)
		}
	})
	r.eng.Go("gpu", func(p *sim.Proc) {
		p.Sleep(1 * sim.Microsecond)
		for i := 0; i < 3; i++ {
			p.Sleep(100 * sim.Nanosecond)
			r.nics[0].TriggerWrite(7)
			if recv.Value() != 0 && i < 2 {
				t.Error("fired before threshold")
			}
		}
		fireTime = p.Now()
	})
	r.eng.Run()
	if recv.Value() != 1 {
		t.Fatalf("recv = %d, want exactly 1", recv.Value())
	}
	st := r.nics[0].Stats()
	if st.TriggerWrites != 3 || st.TriggerFires != 1 {
		t.Fatalf("stats = %+v", st)
	}
	_ = fireTime
}

func TestTriggerFiresExactlyOnceWithExtraWrites(t *testing.T) {
	r := newRig(t, 2)
	recv := sim.NewCounter(r.eng)
	r.nics[1].ExposeRegion(&Region{MatchBits: 0x30, Counter: recv})
	r.eng.Go("host", func(p *sim.Proc) {
		if err := r.nics[0].RegisterTriggered(p, 7, 2, &Command{Kind: OpPut, Target: 1, MatchBits: 0x30, Size: 8}); err != nil {
			t.Error(err)
		}
	})
	r.eng.Go("gpu", func(p *sim.Proc) {
		p.Sleep(1 * sim.Microsecond)
		for i := 0; i < 10; i++ {
			r.nics[0].TriggerWrite(7)
		}
	})
	r.eng.Run()
	if recv.Value() != 1 {
		t.Fatalf("recv = %d, want 1 (exactly-once firing)", recv.Value())
	}
}

func TestRelaxedSyncTriggerBeforeRegister(t *testing.T) {
	// §3.2: GPU writes tags before the CPU registers the operation. The
	// NIC allocates a placeholder; registration finds the satisfied
	// counter and fires immediately.
	r := newRig(t, 2)
	recv := sim.NewCounter(r.eng)
	r.nics[1].ExposeRegion(&Region{MatchBits: 0x40, Counter: recv})
	r.eng.Go("gpu", func(p *sim.Proc) {
		r.nics[0].TriggerWrite(9)
		r.nics[0].TriggerWrite(9)
	})
	r.eng.Go("host", func(p *sim.Proc) {
		p.Sleep(5 * sim.Microsecond) // long after the triggers landed
		if err := r.nics[0].RegisterTriggered(p, 9, 2, &Command{Kind: OpPut, Target: 1, MatchBits: 0x40, Size: 16}); err != nil {
			t.Error(err)
		}
	})
	r.eng.Run()
	if recv.Value() != 1 {
		t.Fatalf("recv = %d", recv.Value())
	}
	st := r.nics[0].Stats()
	if st.PlaceholdersMade != 1 {
		t.Fatalf("placeholders = %d, want 1", st.PlaceholdersMade)
	}
	if st.ImmediateFires != 1 {
		t.Fatalf("immediate fires = %d, want 1", st.ImmediateFires)
	}
}

func TestRelaxedSyncPartialThenRegister(t *testing.T) {
	// Placeholder exists but counter below threshold at registration:
	// remaining writes must complete it.
	r := newRig(t, 2)
	recv := sim.NewCounter(r.eng)
	r.nics[1].ExposeRegion(&Region{MatchBits: 0x41, Counter: recv})
	r.eng.Go("gpu1", func(p *sim.Proc) {
		r.nics[0].TriggerWrite(5) // 1 of 3 before registration
	})
	r.eng.Go("host", func(p *sim.Proc) {
		p.Sleep(2 * sim.Microsecond)
		if err := r.nics[0].RegisterTriggered(p, 5, 3, &Command{Kind: OpPut, Target: 1, MatchBits: 0x41, Size: 16}); err != nil {
			t.Error(err)
		}
	})
	r.eng.Go("gpu2", func(p *sim.Proc) {
		p.Sleep(4 * sim.Microsecond)
		r.nics[0].TriggerWrite(5)
		r.nics[0].TriggerWrite(5)
	})
	r.eng.Run()
	if recv.Value() != 1 {
		t.Fatalf("recv = %d", recv.Value())
	}
	if r.nics[0].Stats().ImmediateFires != 0 {
		t.Fatal("should not have fired at registration")
	}
}

// Property: for every interleaving of register time vs trigger-write
// times, the operation fires exactly once (§3.2 race resolution).
func TestRelaxedSyncRaceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(t, 2)
		recv := sim.NewCounter(r.eng)
		r.nics[1].ExposeRegion(&Region{MatchBits: 0x50, Counter: recv})
		threshold := int64(rng.Intn(5) + 1)
		writes := int(threshold) + rng.Intn(4) // >= threshold writes total
		regAt := sim.Time(rng.Intn(3000)) * sim.Nanosecond
		r.eng.Go("host", func(p *sim.Proc) {
			p.Sleep(regAt)
			if err := r.nics[0].RegisterTriggered(p, 1, threshold, &Command{Kind: OpPut, Target: 1, MatchBits: 0x50, Size: 8}); err != nil {
				t.Error(err)
			}
		})
		r.eng.Go("gpu", func(p *sim.Proc) {
			for i := 0; i < writes; i++ {
				p.Sleep(sim.Time(rng.Intn(1000)) * sim.Nanosecond)
				r.nics[0].TriggerWrite(1)
			}
		})
		r.eng.Run()
		return recv.Value() == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIndependentTags(t *testing.T) {
	// Work-item-level networking uses one tag per message (§4.2.1);
	// entries must count independently.
	r := newRig(t, 2)
	recv := sim.NewCounter(r.eng)
	for mb := uint64(0x60); mb < 0x64; mb++ {
		r.nics[1].ExposeRegion(&Region{MatchBits: mb, Counter: recv})
	}
	r.eng.Go("host", func(p *sim.Proc) {
		for i := uint64(0); i < 4; i++ {
			if err := r.nics[0].RegisterTriggered(p, 100+i, 1, &Command{Kind: OpPut, Target: 1, MatchBits: 0x60 + i, Size: 8}); err != nil {
				t.Error(err)
			}
		}
	})
	r.eng.Go("gpu", func(p *sim.Proc) {
		p.Sleep(3 * sim.Microsecond)
		// Fire tags 100 and 102 only.
		r.nics[0].TriggerWrite(100)
		r.nics[0].TriggerWrite(102)
	})
	r.eng.Run()
	if recv.Value() != 2 {
		t.Fatalf("recv = %d, want 2", recv.Value())
	}
}

func TestRegisterTriggeredValidation(t *testing.T) {
	r := newRig(t, 2)
	r.eng.Go("host", func(p *sim.Proc) {
		if err := r.nics[0].RegisterTriggered(p, 1, 0, &Command{}); err == nil {
			t.Error("zero threshold accepted")
		}
		if err := r.nics[0].RegisterTriggered(p, 1, 1, nil); err == nil {
			t.Error("nil op accepted")
		}
		if err := r.nics[0].RegisterTriggered(p, 1, 1, &Command{Kind: OpPut, Target: 1, MatchBits: 1, Size: 8}); err != nil {
			t.Errorf("valid registration rejected: %v", err)
		}
		if err := r.nics[0].RegisterTriggered(p, 1, 1, &Command{Kind: OpPut, Target: 1, MatchBits: 1, Size: 8}); err == nil {
			t.Error("duplicate pending tag accepted")
		}
	})
	r.nics[1].ExposeRegion(&Region{MatchBits: 1})
	r.eng.Run()
}

func TestTriggerListCapacity(t *testing.T) {
	r := newRig(t, 2)
	max := config.Default().NIC.MaxTriggerEntries
	r.eng.Go("host", func(p *sim.Proc) {
		for i := 0; i < max; i++ {
			if err := r.nics[0].RegisterTriggered(p, uint64(i), 10, &Command{Kind: OpPut, Target: 1, MatchBits: 1, Size: 8}); err != nil {
				t.Fatalf("entry %d rejected: %v", i, err)
			}
		}
		if err := r.nics[0].RegisterTriggered(p, 999, 10, &Command{Kind: OpPut, Target: 1, MatchBits: 1, Size: 8}); err == nil {
			t.Error("over-capacity registration accepted")
		}
	})
	r.eng.Run()
	if r.nics[0].TriggerListLen() != max {
		t.Fatalf("list len = %d", r.nics[0].TriggerListLen())
	}
}

func TestTagSlotReuseAfterFire(t *testing.T) {
	r := newRig(t, 2)
	recv := sim.NewCounter(r.eng)
	r.nics[1].ExposeRegion(&Region{MatchBits: 0x70, Counter: recv})
	r.eng.Go("host", func(p *sim.Proc) {
		if err := r.nics[0].RegisterTriggered(p, 3, 1, &Command{Kind: OpPut, Target: 1, MatchBits: 0x70, Size: 8}); err != nil {
			t.Error(err)
		}
		p.Sleep(2 * sim.Microsecond)
		r.nics[0].TriggerWrite(3)
		recv.WaitGE(p, 1)
		// Re-register the same tag for a second round.
		if err := r.nics[0].RegisterTriggered(p, 3, 1, &Command{Kind: OpPut, Target: 1, MatchBits: 0x70, Size: 8}); err != nil {
			t.Errorf("reuse rejected: %v", err)
		}
		r.nics[0].TriggerWrite(3)
		recv.WaitGE(p, 2)
	})
	r.eng.Run()
	if recv.Value() != 2 {
		t.Fatalf("recv = %d", recv.Value())
	}
}

func TestBoundedTriggerFIFODrops(t *testing.T) {
	cfg := config.Default()
	cfg.NIC.TriggerFIFODepth = 2
	eng := sim.NewEngine()
	fab := network.New(eng, cfg.Network, 2)
	n0 := New(eng, cfg.NIC, 0, fab)
	New(eng, cfg.NIC, 1, fab)
	eng.Go("gpu", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			n0.TriggerWrite(1) // no sleep: floods the FIFO
		}
	})
	eng.RunUntil(1 * sim.Millisecond)
	if n0.Stats().DroppedTriggers == 0 {
		t.Fatal("bounded FIFO should have dropped under flood")
	}
}

func TestLookupModels(t *testing.T) {
	a := AssociativeLookup{Latency: 10}
	if a.MatchLatency(16, 15) != 10 || a.Name() != "associative" {
		t.Error("associative lookup wrong")
	}
	h := HashLookup{Latency: 15}
	if h.MatchLatency(1000, 500) != 15 || h.Name() != "hash" {
		t.Error("hash lookup wrong")
	}
	l := LinkedListLookup{PerEntry: 5}
	if l.MatchLatency(10, 0) != 5 || l.MatchLatency(10, 9) != 50 || l.Name() != "linked-list" {
		t.Error("linked-list lookup wrong")
	}
}

func TestLinkedListLookupSlowsTriggers(t *testing.T) {
	run := func(model LookupModel) sim.Time {
		r := newRig(t, 2)
		r.nics[0].SetLookupModel(model)
		recv := sim.NewCounter(r.eng)
		r.nics[1].ExposeRegion(&Region{MatchBits: 0x80, Counter: recv})
		r.eng.Go("host", func(p *sim.Proc) {
			// Fill the list so position matters; target tag is last.
			for i := 0; i < 15; i++ {
				if err := r.nics[0].RegisterTriggered(p, uint64(i), 1000, &Command{Kind: OpPut, Target: 1, MatchBits: 0x80, Size: 8}); err != nil {
					t.Error(err)
				}
			}
			if err := r.nics[0].RegisterTriggered(p, 99, 64, &Command{Kind: OpPut, Target: 1, MatchBits: 0x80, Size: 8}); err != nil {
				t.Error(err)
			}
		})
		r.eng.Go("gpu", func(p *sim.Proc) {
			p.Sleep(20 * sim.Microsecond)
			for i := 0; i < 64; i++ {
				r.nics[0].TriggerWrite(99)
			}
		})
		r.eng.Run()
		if recv.Value() != 1 {
			t.Fatalf("recv = %d", recv.Value())
		}
		return r.eng.Now()
	}
	fast := run(AssociativeLookup{Latency: 10 * sim.Nanosecond})
	slow := run(LinkedListLookup{PerEntry: 10 * sim.Nanosecond})
	if slow <= fast {
		t.Fatalf("linked list (%v) should be slower than associative (%v) with 1000s of trigger writes", slow, fast)
	}
}

func TestIOBusLatencyDelaysTrigger(t *testing.T) {
	delay := func(bus sim.Time) sim.Time {
		r := newRig(t, 2)
		r.nics[0].SetIOBusLatency(bus)
		recv := sim.NewCounter(r.eng)
		var at sim.Time
		r.nics[1].ExposeRegion(&Region{MatchBits: 1, Counter: recv, OnDelivery: func(d Delivery) { at = d.At }})
		r.eng.Go("host", func(p *sim.Proc) {
			if err := r.nics[0].RegisterTriggered(p, 1, 1, &Command{Kind: OpPut, Target: 1, MatchBits: 1, Size: 8}); err != nil {
				t.Error(err)
			}
			r.nics[0].TriggerWrite(1)
		})
		r.eng.Run()
		return at
	}
	if d := delay(1*sim.Microsecond) - delay(0); d < 1*sim.Microsecond {
		t.Fatalf("IO bus hop added only %v", d)
	}
}

func TestStatsSnapshot(t *testing.T) {
	r := newRig(t, 2)
	r.nics[1].ExposeRegion(&Region{MatchBits: 1})
	r.eng.Go("host", func(p *sim.Proc) {
		r.nics[0].PostCommand(p, &Command{Kind: OpPut, Target: 1, MatchBits: 1, Size: 8})
	})
	r.eng.Run()
	if st := r.nics[0].Stats(); st.CommandsExecuted != 1 {
		t.Fatalf("CommandsExecuted = %d", st.CommandsExecuted)
	}
	if st := r.nics[1].Stats(); st.DeliveredMessages != 1 {
		t.Fatalf("DeliveredMessages = %d", st.DeliveredMessages)
	}
	if r.nics[0].ID() != 0 || r.nics[1].ID() != 1 {
		t.Error("IDs wrong")
	}
}

func TestOpKindString(t *testing.T) {
	if OpPut.String() != "put" || OpGet.String() != "get" {
		t.Error("OpKind strings wrong")
	}
	if OpKind(42).String() != "OpKind(42)" {
		t.Error("unknown OpKind string wrong")
	}
}
