package portals

import (
	"errors"
	"testing"

	"repro/internal/config"
	"repro/internal/network"
	"repro/internal/nic"
	"repro/internal/sim"
)

type world struct {
	eng *sim.Engine
	rts []*Runtime
}

func newWorld(t testing.TB, n int) *world {
	t.Helper()
	cfg := config.Default()
	eng := sim.NewEngine()
	fab := network.New(eng, cfg.Network, n)
	w := &world{eng: eng}
	for i := 0; i < n; i++ {
		nc := nic.New(eng, cfg.NIC, network.NodeID(i), fab)
		w.rts = append(w.rts, Init(eng, nc, i, n))
	}
	return w
}

func TestInitValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Init(sim.NewEngine(), nil, 5, 2)
}

func TestRankSize(t *testing.T) {
	w := newWorld(t, 3)
	if w.rts[1].Rank() != 1 || w.rts[1].Size() != 3 {
		t.Fatal("rank/size wrong")
	}
	if w.rts[2].NIC() == nil {
		t.Fatal("NIC accessor nil")
	}
}

func TestPutWithCTs(t *testing.T) {
	w := newWorld(t, 2)
	r0, r1 := w.rts[0], w.rts[1]
	recvCT := r1.CTAlloc()
	var landed any
	r1.MEAppend(&ME{MatchBits: 0xAA, Length: 1 << 20, CT: recvCT,
		OnDelivery: func(d nic.Delivery) { landed = d.Data }})
	sendCT := r0.CTAlloc()
	md := r0.MDBind("buf", 4096, "payload", sendCT)
	w.eng.Go("host0", func(p *sim.Proc) {
		r0.Put(p, md, 4096, 1, 0xAA)
		sendCT.Wait(p, 1) // local completion: buffer reusable
	})
	w.eng.Go("host1", func(p *sim.Proc) {
		recvCT.Wait(p, 1) // target-side notification
	})
	w.eng.Run()
	if landed != "payload" {
		t.Fatalf("landed = %v", landed)
	}
	if sendCT.Value() != 1 || recvCT.Value() != 1 {
		t.Fatalf("CTs = %d/%d", sendCT.Value(), recvCT.Value())
	}
}

func TestPutValidation(t *testing.T) {
	w := newWorld(t, 2)
	r0 := w.rts[0]
	md := r0.MDBind("b", 100, nil, nil)
	w.eng.Go("h", func(p *sim.Proc) {
		for _, f := range []func(){
			func() { r0.Put(p, md, 200, 1, 1) }, // size > MD
			func() { r0.Put(p, md, 50, 0, 1) },  // self
			func() { r0.Put(p, md, 50, 9, 1) },  // out of range
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Error("expected panic")
					}
				}()
				f()
			}()
		}
	})
	w.eng.Run()
}

func TestNegativeMDLengthPanics(t *testing.T) {
	w := newWorld(t, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	w.rts[0].MDBind("bad", -1, nil, nil)
}

func TestGetRoundTrip(t *testing.T) {
	w := newWorld(t, 2)
	r0, r1 := w.rts[0], w.rts[1]
	r1.MEAppend(&ME{MatchBits: 0xBB, Length: 1 << 20,
		ReadBack: func(size int64) any { return size * 2 }})
	ct := r0.CTAlloc()
	md := r0.MDBind("dst", 1<<20, nil, ct)
	var got any
	w.eng.Go("h0", func(p *sim.Proc) {
		r0.Get(p, md, 512, 1, 0xBB, func(data any) { got = data })
		ct.Wait(p, 1)
	})
	w.eng.Run()
	if got != int64(1024) {
		t.Fatalf("got = %v", got)
	}
}

func TestTriggeredPutClassicPortals(t *testing.T) {
	// Fires when a CT reaches its threshold — e.g. after two inbound
	// messages arrive (the collective-offload building block).
	w := newWorld(t, 3)
	r0, r1, r2 := w.rts[0], w.rts[1], w.rts[2]

	inCT := r2.CTAlloc()
	r2.MEAppend(&ME{MatchBits: 0x1, Length: 1 << 20, CT: inCT})
	outCT := r1.CTAlloc()
	r1.MEAppend(&ME{MatchBits: 0x2, Length: 1 << 20, CT: outCT})

	// Node 2: when both inbound puts have arrived, forward to node 1.
	fwd := r2.MDBind("fwd", 64, "combined", nil)
	w.eng.Go("h2", func(p *sim.Proc) {
		r2.TriggeredPut(p, fwd, 64, 1, 0x2, inCT, 2)
	})
	// Node 0 sends two puts to node 2.
	w.eng.Go("h0", func(p *sim.Proc) {
		md := r0.MDBind("src", 64, nil, nil)
		p.Sleep(1 * sim.Microsecond)
		r0.Put(p, md, 64, 2, 0x1)
		p.Sleep(1 * sim.Microsecond)
		r0.Put(p, md, 64, 2, 0x1)
	})
	var doneAt sim.Time
	w.eng.Go("h1", func(p *sim.Proc) {
		outCT.Wait(p, 1)
		doneAt = p.Now()
	})
	w.eng.Run()
	if outCT.Value() != 1 {
		t.Fatalf("forwarded puts = %d", outCT.Value())
	}
	if doneAt < 2*sim.Microsecond {
		t.Fatalf("triggered put fired too early: %v", doneAt)
	}
}

func TestTrigPutAndTriggerAddr(t *testing.T) {
	// The full Figure 6 host flow: register, get trigger address, and let
	// a "kernel" (modeled as a plain proc here) write tags.
	w := newWorld(t, 2)
	r0, r1 := w.rts[0], w.rts[1]
	recvCT := r1.CTAlloc()
	r1.MEAppend(&ME{MatchBits: 0x7, Length: 1 << 20, CT: recvCT})

	md := r0.MDBind("buf", 256, "x", nil)
	w.eng.Go("host", func(p *sim.Proc) {
		if err := r0.TrigPut(p, 42, 4, md, 256, 1, 0x7); err != nil {
			t.Error(err)
		}
	})
	trig := r0.GetTriggerAddr()
	w.eng.Go("gpu", func(p *sim.Proc) {
		p.Sleep(2 * sim.Microsecond)
		for i := 0; i < 4; i++ {
			trig.Write(42) // four work-groups contribute
			p.Sleep(10 * sim.Nanosecond)
		}
	})
	w.eng.Run()
	if recvCT.Value() != 1 {
		t.Fatalf("recv = %d", recvCT.Value())
	}
}

func TestTrigPutRelaxedSyncThroughAPI(t *testing.T) {
	// Kernel triggers before the host registers (§3.2) — must still fire.
	w := newWorld(t, 2)
	r0, r1 := w.rts[0], w.rts[1]
	recvCT := r1.CTAlloc()
	r1.MEAppend(&ME{MatchBits: 0x8, Length: 1 << 20, CT: recvCT})
	trig := r0.GetTriggerAddr()
	w.eng.Go("gpu", func(p *sim.Proc) {
		trig.Write(13)
	})
	w.eng.Go("host", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		md := r0.MDBind("buf", 64, nil, nil)
		if err := r0.TrigPut(p, 13, 1, md, 64, 1, 0x8); err != nil {
			t.Error(err)
		}
	})
	w.eng.Run()
	if recvCT.Value() != 1 {
		t.Fatalf("recv = %d", recvCT.Value())
	}
}

func TestCTIncAndValue(t *testing.T) {
	w := newWorld(t, 2)
	ct := w.rts[0].CTAlloc()
	ct.Inc(5)
	if ct.Value() != 5 {
		t.Fatalf("Value = %d", ct.Value())
	}
}

func TestCTWaitTimeout(t *testing.T) {
	w := newWorld(t, 2)
	ct := w.rts[0].CTAlloc()
	var errTimed, errOK, errZero error
	w.eng.Go("w", func(p *sim.Proc) {
		// Deadline passes with the counter untouched.
		errTimed = ct.WaitTimeout(p, 1, 2*sim.Microsecond)
		// Counter reaches the target before the next deadline.
		errOK = ct.WaitTimeout(p, 1, 50*sim.Microsecond)
		// Zero timeout means wait forever (blocking fast path).
		errZero = ct.WaitTimeout(p, 2, 0)
	})
	w.eng.Go("inc", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		ct.Inc(1)
		p.Sleep(10 * sim.Microsecond)
		ct.Inc(1)
	})
	w.eng.Run()
	if !errors.Is(errTimed, ErrTimeout) {
		t.Fatalf("expired wait returned %v, want ErrTimeout", errTimed)
	}
	if errOK != nil {
		t.Fatalf("satisfied wait returned %v", errOK)
	}
	if errZero != nil {
		t.Fatalf("zero-timeout wait returned %v", errZero)
	}
	if ct.Value() != 2 {
		t.Fatalf("ct = %d", ct.Value())
	}
}

// exposeCounted exposes a NIC region on rank i whose deliveries bump a
// fresh CT, for the match-semantics tests below.
func (w *world) exposeCounted(i int, r *nic.Region) *CT {
	ct := w.rts[i].CTAlloc()
	r.Counter = ct.Raw()
	w.rts[i].NIC().ExposeRegion(r)
	return ct
}

func TestMEUseOnce(t *testing.T) {
	w := newWorld(t, 2)
	r0 := w.rts[0]
	onceCT := w.exposeCounted(1, &nic.Region{MatchBits: 0xE1, UseOnce: true})
	fallbackCT := w.exposeCounted(1, &nic.Region{MatchBits: 0xE1})
	w.eng.Go("send", func(p *sim.Proc) {
		md := r0.MDBind("b", 8, nil, nil)
		r0.Put(p, md, 8, 1, 0xE1)
		r0.Put(p, md, 8, 1, 0xE1)
		r0.Put(p, md, 8, 1, 0xE1)
	})
	w.eng.Run()
	if onceCT.Value() != 1 {
		t.Fatalf("use-once entry matched %d times", onceCT.Value())
	}
	if fallbackCT.Value() != 2 {
		t.Fatalf("fallback matched %d times, want 2", fallbackCT.Value())
	}
}

func TestMEIgnoreBitsWildcard(t *testing.T) {
	w := newWorld(t, 2)
	r0 := w.rts[0]
	// Match any low byte under prefix 0xAB00.
	ct := w.exposeCounted(1, &nic.Region{MatchBits: 0xAB00, IgnoreBits: 0xFF})
	w.eng.Go("send", func(p *sim.Proc) {
		md := r0.MDBind("b", 8, nil, nil)
		r0.Put(p, md, 8, 1, 0xAB07)
		r0.Put(p, md, 8, 1, 0xAB99)
	})
	w.eng.Run()
	if ct.Value() != 2 {
		t.Fatalf("wildcard matched %d, want 2", ct.Value())
	}
}
