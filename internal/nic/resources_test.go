package nic

import (
	"errors"
	"testing"

	"repro/internal/config"
	"repro/internal/network"
	"repro/internal/sim"
)

// newCappedRig is newRig with a ResourceConfig applied to every NIC.
func newCappedRig(t testing.TB, n int, res config.ResourceConfig) *rig {
	t.Helper()
	cfg := config.Default()
	cfg.NIC.Resources = res
	eng := sim.NewEngine()
	fab := network.New(eng, cfg.Network, n)
	r := &rig{eng: eng, fab: fab}
	for i := 0; i < n; i++ {
		r.nics = append(r.nics, New(eng, cfg.NIC, network.NodeID(i), fab))
	}
	return r
}

func TestRegisterTriggeredTypedErrors(t *testing.T) {
	r := newCappedRig(t, 2, config.ResourceConfig{TriggerEntries: 2})
	r.nics[1].ExposeRegion(&Region{MatchBits: 0x90})
	r.eng.Go("host", func(p *sim.Proc) {
		op := func() *Command { return &Command{Kind: OpPut, Target: 1, MatchBits: 0x90, Size: 8} }
		if err := r.nics[0].RegisterTriggered(p, 1, 1, op()); err != nil {
			t.Errorf("first registration: %v", err)
		}
		if err := r.nics[0].RegisterTriggered(p, 2, 1, op()); err != nil {
			t.Errorf("second registration: %v", err)
		}
		if err := r.nics[0].RegisterTriggered(p, 3, 1, op()); !errors.Is(err, ErrTriggerListFull) {
			t.Errorf("over-capacity registration = %v, want ErrTriggerListFull", err)
		}
		if err := r.nics[0].RegisterTriggered(p, 1, 1, op()); !errors.Is(err, ErrTagBusy) {
			t.Errorf("duplicate tag = %v, want ErrTagBusy", err)
		}
	})
	r.eng.Run()
	s := r.nics[0].Stats()
	if s.RegistrationRejects != 1 {
		t.Fatalf("RegistrationRejects = %d, want 1", s.RegistrationRejects)
	}
	if s.TriggerListHighWater != 2 {
		t.Fatalf("TriggerListHighWater = %d, want 2", s.TriggerListHighWater)
	}
}

// The ResourceConfig trigger cap overrides MaxTriggerEntries; a fired
// entry frees its slot for the next registration.
func TestTriggerCapFreesOnFire(t *testing.T) {
	r := newCappedRig(t, 2, config.ResourceConfig{TriggerEntries: 1})
	recv := sim.NewCounter(r.eng)
	r.nics[1].ExposeRegion(&Region{MatchBits: 0x91, Counter: recv})
	r.eng.Go("host", func(p *sim.Proc) {
		op := func() *Command { return &Command{Kind: OpPut, Target: 1, MatchBits: 0x91, Size: 8} }
		if err := r.nics[0].RegisterTriggered(p, 1, 1, op()); err != nil {
			t.Errorf("register: %v", err)
		}
		if err := r.nics[0].RegisterTriggered(p, 2, 1, op()); !errors.Is(err, ErrTriggerListFull) {
			t.Errorf("cap=1 second registration = %v, want ErrTriggerListFull", err)
		}
		r.nics[0].TriggerWrite(1)
		recv.WaitGE(p, 1)
		if err := r.nics[0].RegisterTriggered(p, 2, 1, op()); err != nil {
			t.Errorf("post-fire registration: %v", err)
		}
	})
	r.eng.Run()
}

// Placeholder budget: relaxed-sync writes beyond the dedicated placeholder
// cap are dropped and counted even while registered entries have room.
func TestPlaceholderBudget(t *testing.T) {
	r := newCappedRig(t, 2, config.ResourceConfig{TriggerEntries: 8, PlaceholderEntries: 2})
	r.eng.Go("gpu", func(p *sim.Proc) {
		for tag := uint64(1); tag <= 4; tag++ {
			r.nics[0].TriggerWrite(tag)
			p.Sleep(sim.Microsecond) // serialize so the FIFO never bounds
		}
	})
	r.eng.Run()
	s := r.nics[0].Stats()
	if s.PlaceholdersMade != 2 {
		t.Fatalf("PlaceholdersMade = %d, want 2", s.PlaceholdersMade)
	}
	if s.DroppedTriggers != 2 {
		t.Fatalf("DroppedTriggers = %d, want 2", s.DroppedTriggers)
	}
	if s.PlaceholderHighWater != 2 {
		t.Fatalf("PlaceholderHighWater = %d, want 2", s.PlaceholderHighWater)
	}
}

// Bounded command queue: a blocking poster stalls until the executor
// drains; every command still executes, in order, nothing is dropped.
func TestCmdQueueBackpressure(t *testing.T) {
	r := newCappedRig(t, 2, config.ResourceConfig{CmdQueueDepth: 1})
	recv := sim.NewCounter(r.eng)
	var order []int64
	r.nics[1].ExposeRegion(&Region{
		MatchBits: 0x92, Counter: recv,
		OnDelivery: func(d Delivery) { order = append(order, d.Size) },
	})
	const puts = 6
	r.eng.Go("host", func(p *sim.Proc) {
		for i := 1; i <= puts; i++ {
			r.nics[0].PostCommand(p, &Command{Kind: OpPut, Target: 1, MatchBits: 0x92, Size: int64(i)})
		}
		recv.WaitGE(p, puts)
	})
	r.eng.Run()
	if recv.Value() != puts {
		t.Fatalf("delivered %d/%d under backpressure", recv.Value(), puts)
	}
	for i, sz := range order {
		if sz != int64(i+1) {
			t.Fatalf("order = %v, want sizes 1..%d in sequence", order, puts)
		}
	}
	s := r.nics[0].Stats()
	if s.CmdQueueStalls == 0 {
		t.Fatal("depth-1 queue never stalled a poster")
	}
	if s.CmdQueueHighWater != 1 {
		t.Fatalf("CmdQueueHighWater = %d, want 1", s.CmdQueueHighWater)
	}
}

// Non-blocking sources (trigger fires, doorbells) defer instead of
// blocking; deferred commands execute once slots free.
func TestCmdQueueDefersAsyncSources(t *testing.T) {
	r := newCappedRig(t, 2, config.ResourceConfig{CmdQueueDepth: 1})
	recv := sim.NewCounter(r.eng)
	r.nics[1].ExposeRegion(&Region{MatchBits: 0x93, Counter: recv})
	const posts = 5
	for i := 0; i < posts; i++ {
		r.nics[0].PostCommandAsync(&Command{Kind: OpPut, Target: 1, MatchBits: 0x93, Size: 8})
	}
	r.eng.Run()
	if recv.Value() != posts {
		t.Fatalf("delivered %d/%d deferred commands", recv.Value(), posts)
	}
	if r.nics[0].Stats().CmdDeferred == 0 {
		t.Fatal("depth-1 queue never deferred an async post")
	}
}

// The bounded trigger FIFO's drop path and high-water accounting.
func TestTriggerFIFODropAccounting(t *testing.T) {
	cfg := config.Default()
	cfg.NIC.TriggerFIFODepth = 2
	eng := sim.NewEngine()
	fab := network.New(eng, cfg.Network, 2)
	n0 := New(eng, cfg.NIC, 0, fab)
	New(eng, cfg.NIC, 1, fab)
	const writes = 50
	eng.Go("gpu", func(p *sim.Proc) {
		for i := 0; i < writes; i++ {
			n0.TriggerWrite(1) // no sleep: floods the FIFO
		}
	})
	eng.RunUntil(1 * sim.Millisecond)
	s := n0.Stats()
	if s.DroppedTriggers == 0 {
		t.Fatal("bounded FIFO should have dropped under flood")
	}
	if s.TrigFIFOHighWater != 2 {
		t.Fatalf("TrigFIFOHighWater = %d, want the configured depth 2", s.TrigFIFOHighWater)
	}
	// Conservation: every write is accounted exactly once.
	if got := s.TriggerWrites; got != writes {
		t.Fatalf("TriggerWrites = %d, want %d", got, writes)
	}
}

func TestStarvedTriggers(t *testing.T) {
	r := newRig(t, 2)
	r.nics[1].ExposeRegion(&Region{MatchBits: 0x94})
	r.eng.Go("host", func(p *sim.Proc) {
		// Registered but under-counted entry.
		if err := r.nics[0].RegisterTriggered(p, 5, 3, &Command{Kind: OpPut, Target: 1, MatchBits: 0x94, Size: 8}); err != nil {
			t.Errorf("register: %v", err)
		}
		r.nics[0].TriggerWrite(5)
		// Placeholder the host never backs.
		r.nics[0].TriggerWrite(6)
	})
	r.eng.Run()
	starved := r.nics[0].StarvedTriggers()
	if len(starved) != 2 {
		t.Fatalf("starved = %+v, want 2 entries", starved)
	}
	byTag := map[uint64]sim.StarvedTrigger{}
	for _, s := range starved {
		byTag[s.Tag] = s
	}
	if s := byTag[5]; !s.Registered || s.Counter != 1 || s.Threshold != 3 || s.Node != 0 {
		t.Fatalf("tag 5 = %+v", s)
	}
	if s := byTag[6]; s.Registered || s.Counter != 1 {
		t.Fatalf("tag 6 = %+v", s)
	}
}

func TestResourceConfigValidation(t *testing.T) {
	cfg := config.Default()
	cfg.NIC.Resources.TriggerEntries = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative TriggerEntries validated")
	}
	cfg = config.Default()
	cfg.NIC.Resources.TriggerEntries = 2
	cfg.NIC.Resources.PlaceholderEntries = 4
	if err := cfg.Validate(); err == nil {
		t.Error("placeholder budget above trigger capacity validated")
	}
	cfg = config.Default()
	cfg.NIC.Resources = config.ResourceConfig{TriggerEntries: 4, PlaceholderEntries: 2, CmdQueueDepth: 8}
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid resource config rejected: %v", err)
	}
	if !cfg.NIC.Resources.Enabled() {
		t.Error("non-zero resource config reports disabled")
	}
	if (config.ResourceConfig{}).Enabled() {
		t.Error("zero resource config reports enabled")
	}
}
