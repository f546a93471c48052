package nic

import (
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

// grayLink degrades both directions between nodes 0 and 1: latency inflated
// 10x and a quarter of packets lost, the canonical gray link.
func grayLink(seed int64) config.FaultConfig {
	return config.FaultConfig{Seed: seed, Degrade: config.DegradeConfig{Windows: []config.DegradeWindow{
		{Src: 0, Dst: 1, Until: sim.Second, LatencyFactor: 10, LossProb: 0.25},
		{Src: 1, Dst: 0, Until: sim.Second, LatencyFactor: 10, LossProb: 0.25},
	}}}
}

// On a gray link the static timer pays its full conservative RTO (30us)
// per loss; the adaptive timer has converged to the real degraded RTT and
// recovers each loss in round-trip-scale time, so the same transfer under
// the same loss schedule completes sooner. Both must still deliver every
// frame exactly once and in order. The schedule must lose frames sent after
// the first RTT samples: a frame lost in the first flight was armed before
// the estimator had any sample, so both timers fire at the same instant
// (seed 7 loses only such frames; seed 1 loses later ones too).
func TestAdaptiveRTORecoversFasterOnGrayLink(t *testing.T) {
	run := func(adaptive bool) (sim.Time, Stats) {
		rel := relDefaults()
		rel.AdaptiveRTO = adaptive
		r := newRelRig(t, 2, rel, grayLink(1))
		recv, order := postPuts(r, 20)
		r.eng.Run()
		if recv.Value() != 20 {
			t.Fatalf("adaptive=%v: recv = %d, want 20", adaptive, recv.Value())
		}
		assertInOrder(t, *order, 20)
		return r.eng.Now(), r.nics[0].Stats()
	}
	static, _ := run(false)
	adaptive, st := run(true)
	if adaptive >= static {
		t.Fatalf("adaptive RTO finished at %v, static at %v: adaptation bought nothing", adaptive, static)
	}
	if st.RTTSamples == 0 {
		t.Fatal("no RTT samples folded into the estimator")
	}
	if st.Retransmits == 0 {
		t.Fatal("25%% loss produced no retransmits — the run proves nothing")
	}
}

// The per-peer link-health view: SRTT converges to a real round trip and
// the health EWMA is pulled below 1 by the retransmits a lossy link forces.
func TestLinkHealthReflectsGrayLink(t *testing.T) {
	r := newRelRig(t, 2, relDefaults(), grayLink(7))
	recv, _ := postPuts(r, 20)
	r.eng.Run()
	if recv.Value() != 20 {
		t.Fatalf("recv = %d", recv.Value())
	}
	lh, ok := r.nics[0].LinkHealth(1)
	if !ok {
		t.Fatal("no link-health view toward an active peer")
	}
	if lh.SRTT <= 0 {
		t.Fatalf("SRTT = %v, want a converged positive estimate", lh.SRTT)
	}
	if lh.Score >= 1 || lh.Score <= 0 {
		t.Fatalf("health score = %v on a lossy-but-alive link, want strictly within (0, 1)", lh.Score)
	}
	if lh.Dead {
		t.Fatal("gray link escalated to a dead verdict")
	}
	// A clean fabric keeps the score at exactly 1.
	rc := newRelRig(t, 2, relDefaults(), config.FaultConfig{})
	recvC, _ := postPuts(rc, 20)
	rc.eng.Run()
	if recvC.Value() != 20 {
		t.Fatalf("clean recv = %d", recvC.Value())
	}
	if lhc, _ := rc.nics[0].LinkHealth(1); lhc.Score != 1 {
		t.Fatalf("clean-link health = %v, want 1", lhc.Score)
	}
}

// A partition verdict absorbs outbound traffic; HealPeer reopens the
// channel under a fresh session that the receiver adopts lazily. Frames
// from before the cut and after the heal each arrive exactly once; frames
// sent into the cut are withdrawn, never delivered late.
func TestPartitionHealReopensFreshSession(t *testing.T) {
	r := newRelRig(t, 2, relDefaults(), config.FaultConfig{})
	recv := sim.NewCounter(r.eng)
	var order []int
	r.nics[1].ExposeRegion(&Region{
		MatchBits: 0x10,
		Counter:   recv,
		OnDelivery: func(d Delivery) {
			order = append(order, d.Data.(int))
		},
	})
	put := func(p *sim.Proc, i int) {
		r.nics[0].PostCommand(p, &Command{
			Kind: OpPut, Target: 1, MatchBits: 0x10, Size: 4 << 10, Data: i,
		})
	}
	r.eng.Go("driver", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			put(p, i)
		}
		p.Sleep(30 * sim.Microsecond) // drain phase 1
		r.nics[0].MarkPeerPartitioned(1)
		if info, ok := r.nics[0].PeerDeadDetail(1); !ok || info.Reason != PeerDeadPartition {
			t.Errorf("dead detail = %+v, %v; want a partition verdict", info, ok)
		}
		put(p, 3) // into the cut: absorbed
		put(p, 4)
		p.Sleep(5 * sim.Microsecond)
		r.nics[0].HealPeer(1)
		if r.nics[0].PeerDead(1) {
			t.Error("peer still dead after HealPeer")
		}
		for i := 5; i < 8; i++ {
			put(p, i)
		}
	})
	r.eng.Run()
	want := []int{0, 1, 2, 5, 6, 7}
	if len(order) != len(want) {
		t.Fatalf("delivered %v, want %v", order, want)
	}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("delivered %v, want %v", order, want)
		}
	}
	st := r.nics[0].Stats()
	if st.PeersDeclaredPartitioned != 1 || st.PeersHealed != 1 {
		t.Fatalf("sender partition accounting: part=%d healed=%d, want 1/1", st.PeersDeclaredPartitioned, st.PeersHealed)
	}
	if st.SendsToDeadPeer != 2 {
		t.Fatalf("SendsToDeadPeer = %d, want 2 (frames 3 and 4)", st.SendsToDeadPeer)
	}
	rs := r.nics[1].Stats()
	if rs.SessionResets != 1 {
		t.Fatalf("receiver SessionResets = %d, want 1 (fresh post-heal session)", rs.SessionResets)
	}
}
