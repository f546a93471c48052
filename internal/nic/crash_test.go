package nic

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/sim"
)

// Crash must be a total cold stop: the trigger list (staged ops and
// placeholders), exposed regions, and queued commands all vanish, the NIC
// reports Down, and inbound frames are absorbed as DownDrops.
func TestCrashClearsStateAndAbsorbsInbound(t *testing.T) {
	r := newRig(t, 2)
	recv := sim.NewCounter(r.eng)
	r.nics[1].ExposeRegion(&Region{MatchBits: 0x10, Counter: recv})
	r.eng.Go("host1", func(p *sim.Proc) {
		if err := r.nics[1].RegisterTriggered(p, 7, 100, &Command{Kind: OpPut, Target: 0, MatchBits: 0x10, Size: 8}); err != nil {
			t.Error(err)
		}
		r.nics[1].TriggerWrite(99) // placeholder
	})
	r.eng.Go("host0", func(p *sim.Proc) {
		p.Sleep(5 * sim.Microsecond)
		r.nics[1].Crash()
		r.nics[1].Crash() // idempotent
		r.nics[0].PostCommand(p, &Command{Kind: OpPut, Target: 1, MatchBits: 0x10, Size: 64})
	})
	r.eng.Run()
	n1 := r.nics[1]
	if !n1.Down() {
		t.Fatal("NIC not down after Crash")
	}
	if n1.DownSince() != 5*sim.Microsecond {
		t.Fatalf("DownSince = %v", n1.DownSince())
	}
	if n1.TriggerListLen() != 0 {
		t.Fatalf("trigger list survived the crash: %d entries", n1.TriggerListLen())
	}
	st := n1.Stats()
	if st.Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1 (idempotent)", st.Crashes)
	}
	if st.DownDrops == 0 {
		t.Fatal("inbound put to the down NIC was not absorbed")
	}
	if recv.Value() != 0 {
		t.Fatal("delivery raised on a crashed NIC")
	}
}

// The full epoch protocol across a restart: frames addressed to the old
// incarnation are fenced, an epoch announce makes the peer adopt the new
// incarnation, a stale workload's put to a vanished region is dropped with
// an event (Portals semantics), and a re-exposed region delivers normally.
func TestRestartEpochProtocolEndToEnd(t *testing.T) {
	r := newRig(t, 2)
	recv := sim.NewCounter(r.eng)
	r.nics[1].ExposeRegion(&Region{MatchBits: 0x10, Counter: recv})
	r.eng.Go("driver", func(p *sim.Proc) {
		r.nics[1].Crash()
		p.Sleep(1 * sim.Microsecond)
		r.nics[1].Restart()
		if inc := r.nics[1].Incarnation(); inc != 2 {
			t.Errorf("incarnation after restart = %d, want 2", inc)
		}
		// Peer still believes incarnation 1: the frame is fenced at the
		// restarted NIC (DstEpoch mismatch), not delivered.
		r.nics[0].PostCommand(p, &Command{Kind: OpPut, Target: 1, MatchBits: 0x10, Size: 64})
		p.Sleep(10 * sim.Microsecond)
		if st := r.nics[1].Stats(); st.StaleDstDrops == 0 {
			t.Errorf("old-epoch frame not fenced: %+v", st)
		}
		// The announce teaches the peer the new incarnation.
		r.nics[1].AnnounceEpoch(0)
		p.Sleep(10 * sim.Microsecond)
		if st := r.nics[0].Stats(); st.EpochResets != 1 {
			t.Errorf("peer EpochResets = %d, want 1", st.EpochResets)
		}
		// Correctly-addressed frame, but the region died with the old life:
		// dropped with an event, not a panic.
		r.nics[0].PostCommand(p, &Command{Kind: OpPut, Target: 1, MatchBits: 0x10, Size: 64})
		p.Sleep(10 * sim.Microsecond)
		if st := r.nics[1].Stats(); st.UnmatchedDrops == 0 {
			t.Errorf("stale-workload put not dropped as unmatched: %+v", st)
		}
		if recv.Value() != 0 {
			t.Error("delivery raised for a region from the previous incarnation")
		}
		// The restarted node re-exposes and traffic flows again.
		r.nics[1].ExposeRegion(&Region{MatchBits: 0x10, Counter: recv})
		r.nics[0].PostCommand(p, &Command{Kind: OpPut, Target: 1, MatchBits: 0x10, Size: 64})
	})
	r.eng.Run()
	if recv.Value() != 1 {
		t.Fatalf("post-rejoin delivery count = %d, want 1", recv.Value())
	}
}

// Frames from a dead incarnation of the peer (SrcEpoch behind the adopted
// view) are dropped before any dispatch.
func TestStaleSrcEpochFrameIsDropped(t *testing.T) {
	r := newRig(t, 2)
	r.eng.Go("driver", func(p *sim.Proc) {
		// Adopt incarnation 3 for peer 1 via a synthetic announce.
		r.nics[0].deliver(&network.Message{
			Src: 1, Dst: 0, Size: epochAnnounceBytes, Kind: "epoch",
			SrcEpoch: 3, DstEpoch: 1, Payload: &epochAnnounce{},
		})
		if got := r.nics[0].peerEpochOf(1); got != 3 {
			t.Errorf("adopted epoch = %d, want 3", got)
		}
		// A retransmit staged by incarnation 2 arrives late: fenced.
		r.nics[0].deliver(&network.Message{
			Src: 1, Dst: 0, Size: 64, Kind: "put",
			SrcEpoch: 2, DstEpoch: 1,
			Payload: &wireMeta{kind: OpPut, matchBits: 0xDEAD},
		})
	})
	r.eng.Run()
	st := r.nics[0].Stats()
	if st.StaleSrcDrops != 1 {
		t.Fatalf("StaleSrcDrops = %d, want 1", st.StaleSrcDrops)
	}
	if st.EpochResets != 1 {
		t.Fatalf("EpochResets = %d, want 1", st.EpochResets)
	}
}

// CancelTriggered sweeps exactly the tag range [lo, hi): staged ops,
// relaxed-sync placeholders, and fired entries inside it go; entries
// outside survive; the canceled count excludes already-fired entries.
func TestCancelTriggeredSweepsTagRange(t *testing.T) {
	r := newRig(t, 2)
	recv := sim.NewCounter(r.eng)
	r.nics[1].ExposeRegion(&Region{MatchBits: 0x10, Counter: recv})
	n0 := r.nics[0]
	r.eng.Go("host", func(p *sim.Proc) {
		for _, tag := range []uint64{10, 11, 20} {
			if err := n0.RegisterTriggered(p, tag, 100, &Command{Kind: OpPut, Target: 1, MatchBits: 0x10, Size: 8}); err != nil {
				t.Error(err)
			}
		}
		if err := n0.RegisterTriggered(p, 12, 1, &Command{Kind: OpPut, Target: 1, MatchBits: 0x10, Size: 8}); err != nil {
			t.Error(err)
		}
		n0.TriggerWrite(12) // fires: a consumed entry inside the range
		n0.TriggerWrite(99) // placeholder outside the range
		p.Sleep(5 * sim.Microsecond)
		if got := n0.CancelTriggered(p, 10, 13); got != 2 {
			t.Errorf("canceled %d pending entries, want 2 (tags 10, 11)", got)
		}
		// Tag 10 can be registered fresh after the sweep.
		if err := n0.RegisterTriggered(p, 10, 1, &Command{Kind: OpPut, Target: 1, MatchBits: 0x10, Size: 8}); err != nil {
			t.Error(err)
		}
		n0.TriggerWrite(10)
	})
	r.eng.Run()
	// Survivors: tag 20 (staged), tag 99 (placeholder), re-registered 10.
	if got := n0.TriggerListLen(); got != 3 {
		t.Fatalf("trigger list len = %d, want 3", got)
	}
	st := n0.Stats()
	if st.CanceledTriggers != 2 {
		t.Fatalf("CanceledTriggers = %d, want 2", st.CanceledTriggers)
	}
	if recv.Value() != 2 {
		t.Fatalf("deliveries = %d, want 2 (tag 12 pre-sweep, tag 10 post-sweep)", recv.Value())
	}
}

// MarkPeerCrashed declares the peer dead immediately with the crash reason
// and fires OnPeerDead, without burning the retry budget.
func TestMarkPeerCrashedDeclaresWithReason(t *testing.T) {
	r := newRelRig(t, 2, relDefaults(), config.FaultConfig{})
	var deadPeer network.NodeID = 255
	r.nics[0].OnPeerDead(func(peer network.NodeID) { deadPeer = peer })
	r.eng.Go("driver", func(p *sim.Proc) {
		p.Sleep(1 * sim.Microsecond)
		r.nics[0].MarkPeerCrashed(1)
		r.nics[0].MarkPeerCrashed(1) // idempotent
	})
	r.eng.Run()
	if deadPeer != 1 {
		t.Fatalf("OnPeerDead fired for %d, want 1", deadPeer)
	}
	info, ok := r.nics[0].PeerDeadDetail(1)
	if !ok {
		t.Fatal("no peer-dead record")
	}
	if info.Reason != PeerDeadCrash {
		t.Fatalf("reason = %v, want PeerDeadCrash", info.Reason)
	}
	if info.Reason.String() != "peer crashed" {
		t.Fatalf("reason string = %q", info.Reason.String())
	}
	if info.At != 1*sim.Microsecond {
		t.Fatalf("declared at %v, want 1µs", info.At)
	}
	if st := r.nics[0].Stats(); st.PeersDeclaredCrashed != 1 {
		t.Fatalf("PeersDeclaredCrashed = %d, want 1 (idempotent)", st.PeersDeclaredCrashed)
	}
}

// The seeded stale-delivery bug (DebugStaleDeliver): exactly one frame
// addressed to this NIC's previous incarnation is dispatched instead of
// fenced, and the always-on auditor must flag it as a no-stale-delivery
// violation. The honest twin of the same timeline fences the frame
// (StaleDstDrops) and the audit stays clean — proving the check keys on
// the protocol break, not on the crash schedule.
func TestAuditorCatchesSeededStaleDelivery(t *testing.T) {
	run := func(debug bool) (*audit.Auditor, Stats, int64) {
		cfg := config.Default()
		eng := sim.NewEngine()
		fab := network.New(eng, cfg.Network, 2)
		inj := fault.NewInjector(config.FaultConfig{DebugStaleDeliver: debug}, 2)
		fab.SetInjector(inj)
		au := audit.New(2)
		r := &rig{eng: eng, fab: fab}
		for i := 0; i < 2; i++ {
			nc := New(eng, cfg.NIC, network.NodeID(i), fab)
			nc.SetInjector(inj)
			nc.SetAuditor(au)
			r.nics = append(r.nics, nc)
		}
		recv := sim.NewCounter(eng)
		r.nics[1].ExposeRegion(&Region{MatchBits: 0x10, Counter: recv})
		eng.Go("driver", func(p *sim.Proc) {
			// Restart node 1 without telling node 0: the next put is
			// stamped with the dead incarnation's epoch.
			r.nics[1].Crash()
			p.Sleep(sim.Microsecond)
			r.nics[1].Restart()
			r.nics[1].ExposeRegion(&Region{MatchBits: 0x10, Counter: recv})
			r.nics[0].PostCommand(p, &Command{Kind: OpPut, Target: 1, MatchBits: 0x10, Size: 64})
		})
		eng.Run()
		au.Finish(eng.Now(), true)
		return au, r.nics[1].Stats(), recv.Value()
	}

	au, st, recv := run(true)
	vs, _ := au.Violations()
	if len(vs) == 0 {
		t.Fatal("seeded stale delivery produced no violation")
	}
	for _, v := range vs {
		if v.Check != audit.CheckStaleDelivery {
			t.Fatalf("violation check = %q, want %q (%v)", v.Check, audit.CheckStaleDelivery, v)
		}
	}
	if recv == 0 {
		t.Fatal("debug frame was not actually delivered to the wrong incarnation")
	}
	if st.StaleDstDrops != 0 {
		t.Fatalf("debug run also fenced the frame: StaleDstDrops = %d", st.StaleDstDrops)
	}

	auHonest, stHonest, recvHonest := run(false)
	if !auHonest.Clean() {
		vs, _ := auHonest.Violations()
		t.Fatalf("honest run violated: %v", vs)
	}
	if stHonest.StaleDstDrops == 0 {
		t.Fatal("honest run never fenced the stale frame (vacuous twin)")
	}
	if recvHonest != 0 {
		t.Fatal("honest run delivered a stale frame")
	}
}

// A crash fences the command in execution wherever it is: one caught in
// its parse is abandoned uncounted, and a put caught in its DMA read is
// abandoned but still counts as executed. Either way nothing reaches the
// fabric, no local completion is signalled, and the command queued behind
// it dies with the queue.
func TestCrashFencesCommandInExecution(t *testing.T) {
	// A 64-byte put parses in [0, 50ns) and DMA-reads in [50ns, 111.28ns).
	for _, tc := range []struct {
		name     string
		kind     OpKind
		at       sim.Time
		executed int64
	}{
		{"put in parse", OpPut, 25 * sim.Nanosecond, 0},
		{"get in parse", OpGet, 25 * sim.Nanosecond, 0},
		{"put in DMA", OpPut, 80 * sim.Nanosecond, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 2)
			recv := sim.NewCounter(r.eng)
			r.nics[1].ExposeRegion(&Region{MatchBits: 0x10, Counter: recv})
			local := sim.NewCounter(r.eng)
			n := r.nics[0]
			n.PostCommandAsync(&Command{Kind: tc.kind, Target: 1, MatchBits: 0x10, Size: 64, LocalCompletion: local})
			n.PostCommandAsync(&Command{Kind: OpPut, Target: 1, MatchBits: 0x10, Size: 64, LocalCompletion: local})
			r.eng.Schedule(tc.at, n.Crash)
			r.eng.Run()
			st := n.Stats()
			if st.FencedCommands != 1 || st.CommandsExecuted != tc.executed {
				t.Errorf("FencedCommands = %d, CommandsExecuted = %d; want 1, %d",
					st.FencedCommands, st.CommandsExecuted, tc.executed)
			}
			if sent := r.fab.BytesSent(0); sent != 0 {
				t.Errorf("%d bytes reached the fabric from the crashed NIC", sent)
			}
			if local.Value() != 0 || recv.Value() != 0 {
				t.Errorf("local completions %d, deliveries %d; want none", local.Value(), recv.Value())
			}
		})
	}
}
