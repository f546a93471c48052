package nic

import (
	"testing"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/sim"
)

// Tests for the §3.4 dynamic-communication extension: trigger writes that
// carry GPU-computed override fields.

func TestDynamicWriteFields(t *testing.T) {
	if (DynamicWrite{}).Fields() != 0 {
		t.Error("empty write has fields")
	}
	w := DynamicWrite{HasTarget: true, HasSize: true, HasMatchBits: true}
	if w.Fields() != 3 {
		t.Errorf("Fields = %d", w.Fields())
	}
}

func TestDynamicTargetOverride(t *testing.T) {
	// Host stages a put to node 1; the GPU redirects it to node 2.
	r := newRig(t, 3)
	recv1 := sim.NewCounter(r.eng)
	recv2 := sim.NewCounter(r.eng)
	r.nics[1].ExposeRegion(&Region{MatchBits: 0x5, Counter: recv1})
	r.nics[2].ExposeRegion(&Region{MatchBits: 0x5, Counter: recv2})
	r.eng.Go("host", func(p *sim.Proc) {
		if err := r.nics[0].RegisterTriggered(p, 1, 1, &Command{Kind: OpPut, Target: 1, MatchBits: 0x5, Size: 64}); err != nil {
			t.Error(err)
		}
		r.nics[0].TriggerWriteDynamic(DynamicWrite{Tag: 1, HasTarget: true, Target: 2})
	})
	r.eng.Run()
	if recv1.Value() != 0 || recv2.Value() != 1 {
		t.Fatalf("deliveries = node1:%d node2:%d, want 0/1", recv1.Value(), recv2.Value())
	}
	if r.nics[0].Stats().DynamicFires != 1 {
		t.Fatalf("DynamicFires = %d", r.nics[0].Stats().DynamicFires)
	}
}

func TestDynamicSizeAndMatchBitsOverride(t *testing.T) {
	r := newRig(t, 2)
	var got Delivery
	recv := sim.NewCounter(r.eng)
	r.nics[1].ExposeRegion(&Region{MatchBits: 0x77, Counter: recv,
		OnDelivery: func(d Delivery) { got = d }})
	r.nics[1].ExposeRegion(&Region{MatchBits: 0x5}) // the staged address
	r.eng.Go("host", func(p *sim.Proc) {
		if err := r.nics[0].RegisterTriggered(p, 1, 1, &Command{Kind: OpPut, Target: 1, MatchBits: 0x5, Size: 4096}); err != nil {
			t.Error(err)
		}
		r.nics[0].TriggerWriteDynamic(DynamicWrite{
			Tag: 1, HasSize: true, Size: 128, HasMatchBits: true, MatchBits: 0x77,
		})
	})
	r.eng.Run()
	if recv.Value() != 1 {
		t.Fatal("override region never hit")
	}
	if got.Size != 128 {
		t.Fatalf("size = %d, want overridden 128", got.Size)
	}
}

func TestDynamicLastWriterWinsPerField(t *testing.T) {
	// Threshold 3: three writes, two of which carry different targets —
	// the last target written wins; the size from an earlier write stays.
	r := newRig(t, 4)
	recvs := make([]*sim.Counter, 4)
	var size int64
	for i := 1; i < 4; i++ {
		i := i
		recvs[i] = sim.NewCounter(r.eng)
		r.nics[i].ExposeRegion(&Region{MatchBits: 0x5, Counter: recvs[i],
			OnDelivery: func(d Delivery) { size = d.Size }})
	}
	r.eng.Go("host", func(p *sim.Proc) {
		if err := r.nics[0].RegisterTriggered(p, 1, 3, &Command{Kind: OpPut, Target: 1, MatchBits: 0x5, Size: 4096}); err != nil {
			t.Error(err)
		}
		r.nics[0].TriggerWriteDynamic(DynamicWrite{Tag: 1, HasSize: true, Size: 256})
		p.Sleep(sim.Microsecond)
		r.nics[0].TriggerWriteDynamic(DynamicWrite{Tag: 1, HasTarget: true, Target: 2})
		p.Sleep(sim.Microsecond)
		r.nics[0].TriggerWriteDynamic(DynamicWrite{Tag: 1, HasTarget: true, Target: 3})
	})
	r.eng.Run()
	if recvs[2].Value() != 0 || recvs[3].Value() != 1 {
		t.Fatalf("deliveries = %d/%d, want last-writer target 3", recvs[2].Value(), recvs[3].Value())
	}
	if size != 256 {
		t.Fatalf("size = %d, want 256 from the first write", size)
	}
}

func TestDynamicOverridesDoNotMutateStagedCommand(t *testing.T) {
	// The staged descriptor is patched on a copy; re-registering the same
	// command must behave as originally staged.
	r := newRig(t, 3)
	recv1 := sim.NewCounter(r.eng)
	recv2 := sim.NewCounter(r.eng)
	r.nics[1].ExposeRegion(&Region{MatchBits: 0x5, Counter: recv1})
	r.nics[2].ExposeRegion(&Region{MatchBits: 0x5, Counter: recv2})
	cmd := &Command{Kind: OpPut, Target: 1, MatchBits: 0x5, Size: 64}
	r.eng.Go("host", func(p *sim.Proc) {
		if err := r.nics[0].RegisterTriggered(p, 1, 1, cmd); err != nil {
			t.Error(err)
		}
		r.nics[0].TriggerWriteDynamic(DynamicWrite{Tag: 1, HasTarget: true, Target: 2})
		recv2.WaitGE(p, 1)
		if cmd.Target != 1 {
			t.Errorf("staged command mutated: target = %d", cmd.Target)
		}
		// Second round, same tag, no overrides: goes to the staged target.
		if err := r.nics[0].RegisterTriggered(p, 1, 1, cmd); err != nil {
			t.Error(err)
		}
		r.nics[0].TriggerWrite(1)
		recv1.WaitGE(p, 1)
	})
	r.eng.Run()
	if recv1.Value() != 1 || recv2.Value() != 1 {
		t.Fatalf("deliveries = %d/%d", recv1.Value(), recv2.Value())
	}
}

func TestDynamicRelaxedSyncPlaceholderKeepsOverrides(t *testing.T) {
	// Overrides written before registration (relaxed sync) must survive in
	// the placeholder and apply at the immediate fire.
	r := newRig(t, 3)
	recv2 := sim.NewCounter(r.eng)
	r.nics[2].ExposeRegion(&Region{MatchBits: 0x5, Counter: recv2})
	r.nics[1].ExposeRegion(&Region{MatchBits: 0x5})
	r.eng.Go("gpu", func(p *sim.Proc) {
		r.nics[0].TriggerWriteDynamic(DynamicWrite{Tag: 9, HasTarget: true, Target: 2})
	})
	r.eng.Go("host", func(p *sim.Proc) {
		p.Sleep(5 * sim.Microsecond)
		if err := r.nics[0].RegisterTriggered(p, 9, 1, &Command{Kind: OpPut, Target: 1, MatchBits: 0x5, Size: 8}); err != nil {
			t.Error(err)
		}
	})
	r.eng.Run()
	if recv2.Value() != 1 {
		t.Fatalf("placeholder lost the override: deliveries = %d", recv2.Value())
	}
}

// --- Relaxed-sync races under injected trigger-write faults ---

// withTriggerFaults arms a fault injector on node 0's MMIO trigger path.
func withTriggerFaults(r *rig, cfg config.FaultConfig) *fault.Injector {
	inj := fault.NewInjector(cfg, len(r.nics))
	r.nics[0].SetInjector(inj)
	return inj
}

// Injected MMIO delay reorders trigger writes relative to registration; the
// §3.2 race resolution (placeholder or immediate fire) must still deliver
// exactly once.
func TestRelaxedSyncRaceUnderTriggerDelay(t *testing.T) {
	for _, regAt := range []sim.Time{0, 2 * sim.Microsecond, 20 * sim.Microsecond} {
		r := newRig(t, 2)
		withTriggerFaults(r, config.FaultConfig{Seed: 4, TrigDelayJitter: 10 * sim.Microsecond})
		recv := sim.NewCounter(r.eng)
		r.nics[1].ExposeRegion(&Region{MatchBits: 0x90, Counter: recv})
		r.eng.Go("host", func(p *sim.Proc) {
			p.Sleep(regAt)
			if err := r.nics[0].RegisterTriggered(p, 7, 3, &Command{Kind: OpPut, Target: 1, MatchBits: 0x90, Size: 8}); err != nil {
				t.Error(err)
			}
		})
		r.eng.Go("gpu", func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(500 * sim.Nanosecond)
				r.nics[0].TriggerWrite(7)
			}
		})
		r.eng.Run()
		if recv.Value() != 1 {
			t.Fatalf("regAt=%v: recv = %d, want exactly 1", regAt, recv.Value())
		}
	}
}

// A lost trigger write never reaches the FIFO: the entry must not fire on
// fewer surviving writes than its threshold, and the loss is counted.
func TestTriggerWriteLossStallsEntry(t *testing.T) {
	r := newRig(t, 2)
	withTriggerFaults(r, config.FaultConfig{Seed: 1, TrigDropProb: 1.0})
	recv := sim.NewCounter(r.eng)
	r.nics[1].ExposeRegion(&Region{MatchBits: 0x91, Counter: recv})
	r.eng.Go("host", func(p *sim.Proc) {
		if err := r.nics[0].RegisterTriggered(p, 3, 2, &Command{Kind: OpPut, Target: 1, MatchBits: 0x91, Size: 8}); err != nil {
			t.Error(err)
		}
	})
	r.eng.Go("gpu", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond)
		r.nics[0].TriggerWrite(3)
		r.nics[0].TriggerWrite(3)
	})
	r.eng.Run()
	if recv.Value() != 0 {
		t.Fatalf("fired on lost writes: recv = %d", recv.Value())
	}
	st := r.nics[0].Stats()
	if st.LostTriggerWrites != 2 {
		t.Fatalf("LostTriggerWrites = %d, want 2", st.LostTriggerWrites)
	}
	if st.TriggerFires != 0 {
		t.Fatalf("TriggerFires = %d", st.TriggerFires)
	}
}

// The GPU's recovery for a lossy MMIO path is over-writing the tag: as long
// as threshold writes survive, the entry fires exactly once.
func TestTriggerWriteLossRecoveredByExtraWrites(t *testing.T) {
	r := newRig(t, 2)
	withTriggerFaults(r, config.FaultConfig{Seed: 6, TrigDropProb: 0.5})
	recv := sim.NewCounter(r.eng)
	r.nics[1].ExposeRegion(&Region{MatchBits: 0x92, Counter: recv})
	r.eng.Go("host", func(p *sim.Proc) {
		if err := r.nics[0].RegisterTriggered(p, 5, 4, &Command{Kind: OpPut, Target: 1, MatchBits: 0x92, Size: 8}); err != nil {
			t.Error(err)
		}
	})
	const writes = 40 // 50% loss: overwhelming odds that >= 4 survive
	r.eng.Go("gpu", func(p *sim.Proc) {
		for i := 0; i < writes; i++ {
			p.Sleep(100 * sim.Nanosecond)
			r.nics[0].TriggerWrite(5)
		}
	})
	r.eng.Run()
	st := r.nics[0].Stats()
	survived := int64(writes) - st.LostTriggerWrites
	if survived < 4 {
		t.Fatalf("seed 6 lost too many writes (%d survived); pick another seed", survived)
	}
	if recv.Value() != 1 {
		t.Fatalf("recv = %d, want exactly 1 (%d of %d writes survived)", recv.Value(), survived, writes)
	}
}

// TestTriggerWriteAllocFree pins the pooled in-flight record: once the
// pool and the tag's placeholder exist, an MMIO trigger write and its
// landing in the FIFO allocate nothing.
func TestTriggerWriteAllocFree(t *testing.T) {
	r := newRig(t, 2)
	n := r.nics[0]
	write := func() {
		n.TriggerWrite(7)
		n.TriggerWrite(7)
		r.eng.Run()
	}
	write() // warm up: the placeholder entry, the pool, the FIFO's slice
	if allocs := testing.AllocsPerRun(100, write); allocs != 0 {
		t.Fatalf("trigger writes allocate %.1f times per run, want 0", allocs)
	}
	if got := n.Stats().TriggerWrites; got != 2*102 {
		t.Fatalf("TriggerWrites = %d, want %d", got, 2*102)
	}
}
