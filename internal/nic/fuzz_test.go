package nic

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/sim"
)

// Property: under random interleavings of registrations and trigger
// writes across many tags — including relaxed-sync (write-first) tags and
// over-triggering — every registered operation fires exactly once, and
// operations never fire before their threshold is met.
func TestTriggerListMultiTagFuzz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(t, 2)
		recv := sim.NewCounter(r.eng)
		r.nics[1].ExposeRegion(&Region{MatchBits: 0xF, Counter: recv})

		ntags := rng.Intn(6) + 1
		type tagPlan struct {
			threshold int64
			writes    int
			regAt     sim.Time
		}
		plans := make([]tagPlan, ntags)
		for i := range plans {
			th := int64(rng.Intn(4) + 1)
			plans[i] = tagPlan{
				threshold: th,
				writes:    int(th) + rng.Intn(3),
				regAt:     sim.Time(rng.Intn(5000)) * sim.Nanosecond,
			}
		}
		for i, pl := range plans {
			i, pl := i, pl
			r.eng.Go(fmt.Sprintf("host%d", i), func(p *sim.Proc) {
				p.Sleep(pl.regAt)
				if err := r.nics[0].RegisterTriggered(p, uint64(i+1), pl.threshold, &Command{
					Kind: OpPut, Target: 1, MatchBits: 0xF, Size: 8,
				}); err != nil {
					t.Error(err)
				}
			})
			r.eng.Go(fmt.Sprintf("gpu%d", i), func(p *sim.Proc) {
				for w := 0; w < pl.writes; w++ {
					p.Sleep(sim.Time(rng.Intn(2000)) * sim.Nanosecond)
					r.nics[0].TriggerWrite(uint64(i + 1))
				}
			})
		}
		r.eng.Run()
		st := r.nics[0].Stats()
		return recv.Value() == int64(ntags) &&
			st.TriggerFires == int64(ntags) &&
			st.DroppedTriggers == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved sequential reuse of one tag (register, satisfy,
// re-register, satisfy, ...) fires exactly once per generation.
func TestTriggerTagReuseFuzz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(t, 2)
		recv := sim.NewCounter(r.eng)
		r.nics[1].ExposeRegion(&Region{MatchBits: 0xF, Counter: recv})
		gens := rng.Intn(5) + 2
		ok := true
		r.eng.Go("host", func(p *sim.Proc) {
			for g := 0; g < gens; g++ {
				th := int64(rng.Intn(3) + 1)
				if err := r.nics[0].RegisterTriggered(p, 1, th, &Command{
					Kind: OpPut, Target: 1, MatchBits: 0xF, Size: 8,
				}); err != nil {
					ok = false
					return
				}
				for w := int64(0); w < th; w++ {
					p.Sleep(sim.Time(rng.Intn(500)+1) * sim.Nanosecond)
					r.nics[0].TriggerWrite(1)
				}
				recv.WaitGE(p, int64(g)+1)
			}
		})
		r.eng.Run()
		return ok && recv.Value() == int64(gens)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: a get and concurrent puts against overlapping regions never
// misroute — each reply lands at its own requester, each put at its ME.
func TestMixedOpsFuzz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(t, 3)
		putCT := sim.NewCounter(r.eng)
		r.nics[2].ExposeRegion(&Region{
			MatchBits: 0x10, Counter: putCT,
			ReadBack: func(size int64) any { return size * 3 },
		})
		nops := rng.Intn(8) + 2
		puts, gets := 0, 0
		bad := false
		done := sim.NewCounter(r.eng)
		for i := 0; i < nops; i++ {
			src := rng.Intn(2) // nodes 0 and 1 both talk to node 2
			if rng.Intn(2) == 0 {
				puts++
				r.eng.Go(fmt.Sprintf("put%d", i), func(p *sim.Proc) {
					r.nics[src].PostCommand(p, &Command{
						Kind: OpPut, Target: 2, MatchBits: 0x10, Size: 64,
						OnLocalComplete: func() { done.Add(1) },
					})
				})
			} else {
				gets++
				sz := int64(rng.Intn(100) + 1)
				r.eng.Go(fmt.Sprintf("get%d", i), func(p *sim.Proc) {
					c := &Command{Kind: OpGet, Target: 2, MatchBits: 0x10, Size: sz}
					cc := c
					c.OnLocalComplete = func() {
						if cc.Data != sz*3 {
							bad = true
						}
						done.Add(1)
					}
					r.nics[src].PostCommand(p, c)
				})
			}
		}
		r.eng.Run()
		// The region counter counts both put landings and served gets.
		return !bad && putCT.Value() == int64(puts+gets) && done.Value() == int64(nops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: with a seeded injector dropping and delaying MMIO trigger
// writes, and a random register/write interleaving (including relaxed-sync
// write-first tags), the entry fires exactly once iff at least threshold
// writes survive the bus, and never more than once regardless.
func TestRelaxedSyncRaceWithInjectedTriggerFaultsFuzz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(t, 2)
		inj := fault.NewInjector(config.FaultConfig{
			Seed:            seed,
			TrigDropProb:    0.3,
			TrigDelayJitter: sim.Time(rng.Intn(5000)) * sim.Nanosecond,
		}, 2)
		r.nics[0].SetInjector(inj)
		recv := sim.NewCounter(r.eng)
		r.nics[1].ExposeRegion(&Region{MatchBits: 0xF, Counter: recv})

		threshold := int64(rng.Intn(4) + 1)
		writes := int(threshold) + rng.Intn(6)
		regAt := sim.Time(rng.Intn(4000)) * sim.Nanosecond
		r.eng.Go("host", func(p *sim.Proc) {
			p.Sleep(regAt)
			if err := r.nics[0].RegisterTriggered(p, 1, threshold, &Command{
				Kind: OpPut, Target: 1, MatchBits: 0xF, Size: 8,
			}); err != nil {
				t.Error(err)
			}
		})
		r.eng.Go("gpu", func(p *sim.Proc) {
			for w := 0; w < writes; w++ {
				p.Sleep(sim.Time(rng.Intn(1000)) * sim.Nanosecond)
				r.nics[0].TriggerWrite(1)
			}
		})
		r.eng.Run()
		survived := int64(writes) - r.nics[0].Stats().LostTriggerWrites
		want := int64(0)
		if survived >= threshold {
			want = 1
		}
		return recv.Value() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: under random loss and corruption rates — lost ACKs force
// duplicate data frames, and corrupt duplicates provoke duplicate NACKs
// for the same sequence number — the reliable layer still delivers every
// message exactly once, in order, and the engine drains (no stuck window).
func TestReliableDuplicateNackFuzz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		faults := config.FaultConfig{
			Seed:        seed,
			DropProb:    0.1 + rng.Float64()*0.2,
			CorruptProb: 0.1 + rng.Float64()*0.2,
		}
		r := newRelRig(t, 2, relDefaults(), faults)
		count := rng.Intn(15) + 5
		recv, order := postPuts(r, count)
		r.eng.Run() // returning at all proves no frame is stuck unarmed
		if recv.Value() != int64(count) || len(*order) != count {
			return false
		}
		for i, v := range *order {
			if v != i {
				return false
			}
		}
		return !r.nics[0].PeerDead(1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the receiver NIC crashes and restarts at a random instant
// mid-stream. ACKs and retransmits from the dead incarnation are fenced by
// the epoch protocol, the sender's reliability state resets on adopting the
// new epoch, and the stream continues: no payload is ever delivered twice,
// the post-reset sequence space starts clean, and nothing wedges — the
// sender's window is empty when the engine drains.
func TestReliableAckAfterEpochResetFuzz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := newRelRig(t, 2, relDefaults(), config.FaultConfig{})
		recv := sim.NewCounter(r.eng)
		var order []int
		region := &Region{
			MatchBits: 0x10,
			Counter:   recv,
			OnDelivery: func(d Delivery) {
				order = append(order, d.Data.(int))
			},
		}
		r.nics[1].ExposeRegion(region)
		count := rng.Intn(12) + 8
		r.eng.Go("sender", func(p *sim.Proc) {
			for i := 0; i < count; i++ {
				r.nics[0].PostCommand(p, &Command{
					Kind: OpPut, Target: 1, MatchBits: 0x10, Size: 4 << 10, Data: i,
				})
				p.Sleep(sim.Time(rng.Intn(2000)) * sim.Nanosecond)
			}
		})
		r.eng.Go("chaos", func(p *sim.Proc) {
			p.Sleep(sim.Time(rng.Intn(20000)+500) * sim.Nanosecond)
			r.nics[1].Crash()
			p.Sleep(sim.Time(rng.Intn(5000)+100) * sim.Nanosecond)
			r.nics[1].Restart()
			r.nics[1].ExposeRegion(region) // regions died with the old life
			r.nics[1].AnnounceEpoch(0)
		})
		r.eng.Run()
		// Exactly-once: a payload fenced or reset away may be lost (the
		// restarted node lost everything anyway) but must never double up.
		dup := map[int]bool{}
		for _, v := range order {
			if dup[v] {
				return false
			}
			dup[v] = true
		}
		if int(recv.Value()) != len(order) {
			return false
		}
		// The sender adopted the new incarnation exactly once and holds no
		// wedged unacknowledged frames against it (epoch adoption may have
		// reset the channel away entirely: also clean).
		if st := r.nics[0].Stats(); st.EpochResets != 1 {
			return false
		}
		ch := r.nics[0].rel.chans[1]
		return ch == nil || len(ch.inflight) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
