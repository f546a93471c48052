package nic

import (
	"testing"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/sim"
)

// newRelRig wires n NICs with the reliability layer enabled and an optional
// fault injector on both the fabric and the NICs.
func newRelRig(t testing.TB, n int, rel config.ReliabilityConfig, faults config.FaultConfig) *rig {
	t.Helper()
	cfg := config.Default()
	cfg.NIC.Reliability = rel
	eng := sim.NewEngine()
	fab := network.New(eng, cfg.Network, n)
	inj := fault.NewInjector(faults, n)
	fab.SetInjector(inj)
	r := &rig{eng: eng, fab: fab}
	for i := 0; i < n; i++ {
		nc := New(eng, cfg.NIC, network.NodeID(i), fab)
		nc.SetInjector(inj)
		r.nics = append(r.nics, nc)
	}
	return r
}

func relDefaults() config.ReliabilityConfig { return config.DefaultReliability() }

// postPuts sends count puts 0→1 tagged with their index and returns the
// receive counter plus the delivered payloads in arrival order.
func postPuts(r *rig, count int) (*sim.Counter, *[]int) {
	recv := sim.NewCounter(r.eng)
	order := &[]int{}
	r.nics[1].ExposeRegion(&Region{
		MatchBits: 0x10,
		Counter:   recv,
		OnDelivery: func(d Delivery) {
			*order = append(*order, d.Data.(int))
		},
	})
	r.eng.Go("host", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			r.nics[0].PostCommand(p, &Command{
				Kind: OpPut, Target: 1, MatchBits: 0x10, Size: 4 << 10, Data: i,
			})
		}
	})
	return recv, order
}

func assertInOrder(t *testing.T, order []int, count int) {
	t.Helper()
	if len(order) != count {
		t.Fatalf("delivered %d messages, want %d", len(order), count)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("delivery order %v: position %d holds %d", order, i, v)
		}
	}
}

// A lossless fabric with reliability on must behave exactly like the
// unreliable path: every frame delivered once, first try, no retransmits.
func TestReliableLosslessExactlyOnce(t *testing.T) {
	r := newRelRig(t, 2, relDefaults(), config.FaultConfig{})
	recv, order := postPuts(r, 10)
	r.eng.Run()
	if recv.Value() != 10 {
		t.Fatalf("recv = %d", recv.Value())
	}
	assertInOrder(t, *order, 10)
	st := r.nics[0].Stats()
	if st.Retransmits != 0 || st.PeersDeclaredDead != 0 {
		t.Fatalf("lossless run did recovery work: %+v", st)
	}
	if rs := r.nics[1].Stats(); rs.AcksSent != 10 || rs.DupesDropped != 0 {
		t.Fatalf("receiver stats = %+v", rs)
	}
}

// Heavy per-packet loss: the retransmit machinery must still deliver every
// frame exactly once and in order.
func TestReliableRecoversFromDrops(t *testing.T) {
	r := newRelRig(t, 2, relDefaults(), config.FaultConfig{Seed: 1, DropProb: 0.25})
	recv, order := postPuts(r, 20)
	r.eng.Run()
	if recv.Value() != 20 {
		t.Fatalf("recv = %d, want 20 (lost despite reliability)", recv.Value())
	}
	assertInOrder(t, *order, 20)
	if r.nics[0].Stats().Retransmits == 0 {
		t.Fatal("25%% drop produced no retransmits")
	}
	if r.fab.PacketsDropped() == 0 {
		t.Fatal("injector never fired")
	}
}

// Corruption without loss: the receiver NACKs, the sender fast-retransmits,
// and corrupt frames are never dispatched upward.
func TestReliableNacksCorruptFrames(t *testing.T) {
	r := newRelRig(t, 2, relDefaults(), config.FaultConfig{Seed: 3, CorruptProb: 0.3})
	recv, order := postPuts(r, 20)
	r.eng.Run()
	if recv.Value() != 20 {
		t.Fatalf("recv = %d", recv.Value())
	}
	assertInOrder(t, *order, 20)
	if r.nics[1].Stats().NacksSent == 0 {
		t.Fatal("30%% corruption produced no NACKs")
	}
	if r.nics[0].Stats().Retransmits == 0 {
		t.Fatal("NACKs produced no retransmits")
	}
}

// An RTO far below the round-trip time makes the sender retransmit frames
// that were in fact delivered; the receiver must drop the duplicates and the
// upper layer must still see each message exactly once.
func TestReliableSuppressesDuplicates(t *testing.T) {
	rel := relDefaults()
	rel.RTOBase = 200 * sim.Nanosecond // « the ~6us round trip
	rel.RTOPerKB = 0
	r := newRelRig(t, 2, rel, config.FaultConfig{})
	recv, order := postPuts(r, 5)
	r.eng.Run()
	if recv.Value() != 5 {
		t.Fatalf("recv = %d, want exactly 5 (duplicates leaked)", recv.Value())
	}
	assertInOrder(t, *order, 5)
	if r.nics[1].Stats().DupesDropped == 0 {
		t.Fatal("premature RTO produced no duplicates")
	}
}

// Loss plus jitter reorders packets on the wire; per-pair delivery order
// must survive via the receiver's sequencing buffer.
func TestReliableOrderUnderLossAndJitter(t *testing.T) {
	r := newRelRig(t, 2, relDefaults(), config.FaultConfig{
		Seed: 11, DropProb: 0.15, DelayJitter: 2 * sim.Microsecond,
	})
	recv, order := postPuts(r, 30)
	r.eng.Run()
	if recv.Value() != 30 {
		t.Fatalf("recv = %d", recv.Value())
	}
	assertInOrder(t, *order, 30)
}

// More outstanding sends than the window: excess frames queue on the NIC
// and drain as ACKs slide the window, preserving order.
func TestReliableWindowQueueing(t *testing.T) {
	rel := relDefaults()
	rel.WindowSize = 2
	r := newRelRig(t, 2, rel, config.FaultConfig{Seed: 5, DropProb: 0.2})
	recv, order := postPuts(r, 12)
	r.eng.Run()
	if recv.Value() != 12 {
		t.Fatalf("recv = %d", recv.Value())
	}
	assertInOrder(t, *order, 12)
}

// A fully dead wire exhausts the retry budget: the peer is declared dead,
// OnPeerDead fires, and later sends are absorbed instead of hanging the NIC.
func TestReliableRetryBudgetDeclaresPeerDead(t *testing.T) {
	rel := relDefaults()
	rel.RTOBase = 1 * sim.Microsecond
	rel.RetryBudget = 4
	r := newRelRig(t, 2, rel, config.FaultConfig{Seed: 2, DropProb: 1.0})
	var deadPeer network.NodeID = 255
	r.nics[0].OnPeerDead(func(peer network.NodeID) { deadPeer = peer })
	recv := sim.NewCounter(r.eng)
	r.nics[1].ExposeRegion(&Region{MatchBits: 0x10, Counter: recv})
	r.eng.Go("host", func(p *sim.Proc) {
		r.nics[0].PostCommand(p, &Command{Kind: OpPut, Target: 1, MatchBits: 0x10, Size: 64})
		p.Sleep(1 * sim.Millisecond) // past budget exhaustion
		r.nics[0].PostCommand(p, &Command{Kind: OpPut, Target: 1, MatchBits: 0x10, Size: 64})
	})
	r.eng.Run()
	if recv.Value() != 0 {
		t.Fatalf("recv = %d on a dead wire", recv.Value())
	}
	if deadPeer != 1 {
		t.Fatalf("OnPeerDead got %d, want 1", deadPeer)
	}
	if !r.nics[0].PeerDead(1) {
		t.Fatal("PeerDead(1) = false")
	}
	st := r.nics[0].Stats()
	if st.PeersDeclaredDead != 1 {
		t.Fatalf("PeersDeclaredDead = %d", st.PeersDeclaredDead)
	}
	if st.Retransmits != int64(rel.RetryBudget)-1 {
		t.Fatalf("Retransmits = %d, want budget-1 = %d", st.Retransmits, rel.RetryBudget-1)
	}
	if st.SendsToDeadPeer == 0 {
		t.Fatal("post-death send not counted")
	}
}

// Same seed, same run: the whole recovery trace (stats and finish time)
// must replay bit-for-bit; a different seed must diverge.
func TestReliableDeterministicReplay(t *testing.T) {
	run := func(seed int64) (sim.Time, Stats, Stats) {
		r := newRelRig(t, 2, relDefaults(), config.FaultConfig{Seed: seed, DropProb: 0.2})
		recv, _ := postPuts(r, 15)
		r.eng.Run()
		if recv.Value() != 15 {
			t.Fatalf("recv = %d", recv.Value())
		}
		return r.eng.Now(), r.nics[0].Stats(), r.nics[1].Stats()
	}
	t1, s1, r1 := run(9)
	t2, s2, r2 := run(9)
	if t1 != t2 || s1 != s2 || r1 != r2 {
		t.Fatalf("same seed diverged: %v/%v %+v/%+v", t1, t2, s1, s2)
	}
	t3, _, _ := run(10)
	if t3 == t1 {
		t.Log("different seed finished at the same time (possible but unlikely)")
	}
}

// Gets also ride the reliable channel: a lossy fabric must not lose a get
// request or its reply.
func TestReliableGetUnderLoss(t *testing.T) {
	r := newRelRig(t, 2, relDefaults(), config.FaultConfig{Seed: 21, DropProb: 0.25})
	r.nics[1].ExposeRegion(&Region{
		MatchBits: 0x20,
		ReadBack:  func(size int64) any { return size * 2 },
	})
	done := sim.NewCounter(r.eng)
	c := &Command{Kind: OpGet, Target: 1, MatchBits: 0x20, Size: 100, LocalCompletion: done}
	r.eng.Go("host", func(p *sim.Proc) {
		r.nics[0].PostCommand(p, c)
		done.WaitGE(p, 1)
	})
	r.eng.Run()
	if c.Data != int64(200) {
		t.Fatalf("get reply = %v, want 200", c.Data)
	}
}
