package health

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/network"
	"repro/internal/nic"
	"repro/internal/node"
	"repro/internal/portals"
	"repro/internal/sim"
)

// Heartbeat wire constants. The tag and match-bits spaces are shared with
// collectives on the same NIC, so both live far above the episode/attempt
// ranges (episodes use tag = episode*4096, attempts salt from 1<<26).
const (
	hbTagBase   = uint64(0x48420000) // + peer rank
	hbMatchBits = uint64(0x4842_BEA7)
	hbBytes     = int64(32)
)

// hbPayload is the heartbeat put's payload: who beats, under which
// incarnation epoch, and — the fail-slow detection feed — the node's
// progress watermarks at DMA time: the GPU ticker's tick count (dilated
// compute shows up directly as a depressed tick rate) and the NIC's
// command-completion counter.
type hbPayload struct {
	Node  int
	Inc   int64
	WM    int64
	NICWM int64
}

// Agent is one node's heartbeat emitter. Its CPU side loops registering a
// triggered heartbeat Put per peer (threshold 1) on the NIC; its GPU side
// is a persistent one-work-group ticker kernel writing the per-peer
// heartbeat tags to the trigger address every Period. The put therefore
// only leaves the NIC when the GPU actually ticks — a wedged GPU stops
// heartbeats even though the CPU loop keeps registering. Registration and
// tick race deliberately: a tick that lands before the next registration
// takes the relaxed-sync placeholder path (§3.2).
type Agent struct {
	m       *Membership
	nd      *node.Node
	cfg     config.HealthConfig
	procs   []*sim.Proc // current incarnation's loop + ticker
	stopped bool
	// ticks counts GPU ticker iterations — the progress watermark
	// heartbeat payloads carry. Monotonic across restarts (the membership
	// resets its baseline on rejoin, so continuity is never scored across
	// an epoch).
	ticks int64
}

// StartAgent installs the heartbeat service on a node: landing zone,
// CPU registration loop, and GPU ticker. The agent re-installs itself via
// the node's OnRestart hook, replaying the CPU-side registration on the
// fresh incarnation (the mid-collective reintegration path).
func StartAgent(m *Membership, nd *node.Node) *Agent {
	a := &Agent{m: m, nd: nd, cfg: m.cfg}
	a.install()
	nd.OnRestart(func(*node.Node) {
		if !a.stopped {
			a.install()
		}
	})
	return a
}

// install wires one incarnation: expose the heartbeat landing region,
// start the CPU registration loop, and start the GPU ticker.
func (a *Agent) install() {
	nd := a.nd
	// Heartbeats are unreliable-datagram class: best-effort on the wire, so
	// liveness evidence keeps flowing to and from a peer whose reliable
	// channels are condemned — the only way a healed partition can ever be
	// observed and retracted.
	nd.NIC.MarkUnreliable(hbMatchBits)
	nd.Ptl.MEAppend(&portals.ME{
		MatchBits: hbMatchBits,
		OnDelivery: func(d nic.Delivery) {
			if pl, ok := d.Data.(hbPayload); ok {
				// The receiving node is the observer: its NIC delivering
				// this put is one reachability vote for pl.Node, and the
				// piggybacked watermarks are its progress evidence.
				a.m.BeatProgress(nd.Index, pl.Node, pl.Inc, pl.WM, pl.NICWM)
			}
		},
	})
	tick := nd.GPU.RunResident(fmt.Sprintf("hbtick.%d", nd.Index), a.ticker)
	nd.Bind(tick)
	a.procs = []*sim.Proc{nd.Go("hb.cpu", a.cpuLoop), tick}
}

// cpuLoop is the host side: every Period it (re-)registers a triggered
// heartbeat Put toward each peer with threshold 1, so the next GPU tick
// fires them all. A registration that finds the previous entry still
// pending (tick delayed or trigger list full) skips that peer this round —
// the standing entry will fire on the late tick. Killed with the node.
func (a *Agent) cpuLoop(p *sim.Proc) {
	nd := a.nd
	inc := nd.NIC.Incarnation()
	size := nd.Ptl.Size()
	// The payload is deferred: the NIC reads it at DMA time, so the
	// watermarks a beat carries are live, not a snapshot from registration.
	// Resolution is data-only at an instant that already existed, so the
	// trace stays bit-for-bit with the detection-free seed.
	md := nd.Ptl.MDBind("hb", hbBytes, nic.Deferred(func() any {
		return hbPayload{
			Node:  nd.Index,
			Inc:   inc,
			WM:    a.ticks,
			NICWM: nd.NIC.Stats().CommandsExecuted,
		}
	}), nil)
	for {
		for peer := 0; peer < size; peer++ {
			if peer == nd.Index {
				continue
			}
			// ErrTagBusy (entry still pending) and capacity rejects are
			// expected steady-state outcomes, not failures.
			_ = nd.Ptl.TrigPut(p, hbTagBase+uint64(peer), 1, md, hbBytes, peer, hbMatchBits)
		}
		// The node's own software being scheduled is its self-evidence.
		a.m.Beat(nd.Index, inc)
		p.Sleep(a.cfg.Period)
	}
}

// ticker is the GPU side: a persistent single-work-group kernel that every
// Period publishes the heartbeat by storing the per-peer tags to the
// NIC's trigger address (fence + system-scope atomic store, §4.2.6).
func (a *Agent) ticker(wg *gpu.WGCtx) {
	nd := a.nd
	trig := nd.Ptl.GetTriggerAddr()
	size := nd.Ptl.Size()
	for {
		wg.Compute(a.cfg.Period)
		// Heartbeat payloads read ticks at DMA time: publish the tick at
		// the work-group's own time, one Period after the last.
		wg.Sync()
		a.ticks++
		wg.FenceSystem()
		for peer := 0; peer < size; peer++ {
			if peer == nd.Index {
				continue
			}
			peer := peer
			wg.AtomicStoreSystem(func() { trig.Write(hbTagBase + uint64(peer)) })
		}
	}
}

// Stop ends the agent: the current incarnation's loop and ticker are
// killed (without crashing the node) and no reinstall happens on future
// restarts. Idempotent.
func (a *Agent) Stop() {
	if a.stopped {
		return
	}
	a.stopped = true
	for _, p := range a.procs {
		a.nd.Eng.Kill(p)
	}
	a.procs = nil
}

// Suite is the cluster-wide health service: one shared membership view
// plus one agent per node, with suspicion wired into the survivor NICs'
// reliability layers (an explicit PeerDeadCrash verdict, so collectives
// blocked on a dead peer abort immediately).
type Suite struct {
	Membership *Membership
	Agents     []*Agent

	cl *node.Cluster
}

// Start launches the health service on a cluster. It uses cl.Cfg.Health
// when enabled, falling back to DefaultHealth. Call Stop when the workload
// completes so heartbeat traffic stops and the simulation drains.
func Start(cl *node.Cluster) *Suite {
	cfg := cl.Cfg.Health
	if !cfg.Enabled {
		cfg = config.DefaultHealth()
	}
	m := NewMembership(cl.Eng, cfg, cl.Size())
	m.SetAuditor(cl.Audit)
	s := &Suite{Membership: m, cl: cl}
	m.OnSuspect(func(suspect int) {
		for _, nd := range cl.Nodes {
			if nd.Index != suspect && !nd.NIC.Down() {
				nd.NIC.MarkPeerCrashed(network.NodeID(suspect))
			}
		}
	})
	m.OnPartition(func(part int) {
		// Condemn both directions: majority-side sends to the partitioned
		// node and its sends toward them are withdrawn instead of burning
		// retry budgets against a blackhole. (The board is shared, so the
		// minority side sees its own verdict too.)
		for _, nd := range cl.Nodes {
			if nd.NIC.Down() {
				continue
			}
			if nd.Index == part {
				for _, peer := range cl.Nodes {
					if peer.Index != part {
						nd.NIC.MarkPeerPartitioned(network.NodeID(peer.Index))
					}
				}
			} else {
				nd.NIC.MarkPeerPartitioned(network.NodeID(part))
			}
		}
	})
	m.OnQuarantine(func(bad int) {
		// Condemn both directions with the corrupt-data verdict: survivors
		// stop accepting the quarantined rank's traffic, and its own sends
		// toward them are withdrawn. Unlike a partition the verdict is
		// permanent — no OnHeal path ever retracts it.
		for _, nd := range cl.Nodes {
			if nd.NIC.Down() {
				continue
			}
			if nd.Index == bad {
				for _, peer := range cl.Nodes {
					if peer.Index != bad {
						nd.NIC.MarkPeerCorrupt(network.NodeID(peer.Index))
					}
				}
			} else {
				nd.NIC.MarkPeerCorrupt(network.NodeID(bad))
			}
		}
	})
	m.OnSlow(func(slow int) {
		// Observability only — a straggler's channels stay fully usable
		// (the mitigation is routing, not condemnation), so unlike every
		// verdict above nothing is marked dead. Each survivor records the
		// verdict and the detector's slowdown estimate.
		est := 0.0
		if s := m.SlowScore(slow); s > 0 {
			est = 1 / s
		}
		for _, nd := range cl.Nodes {
			if nd.Index != slow && !nd.NIC.Down() {
				nd.NIC.NoteSlowPeer()
				nd.NIC.NoteSlowdownEstimate(est)
			}
		}
	})
	m.OnRecovered(func(rec int) {
		for _, nd := range cl.Nodes {
			if nd.Index != rec && !nd.NIC.Down() {
				nd.NIC.NoteSlowRecovered()
			}
		}
	})
	m.OnHeal(func(healed int) {
		// Retract the outage verdicts in both directions; the channels
		// restart under fresh sessions on the next send.
		for _, nd := range cl.Nodes {
			if nd.NIC.Down() {
				continue
			}
			if nd.Index == healed {
				for _, peer := range cl.Nodes {
					if peer.Index != healed {
						nd.NIC.HealPeer(network.NodeID(peer.Index))
					}
				}
			} else {
				nd.NIC.HealPeer(network.NodeID(healed))
			}
		}
	})
	for _, nd := range cl.Nodes {
		s.Agents = append(s.Agents, StartAgent(m, nd))
	}
	return s
}

// Stop shuts the whole service down: every agent's loop and ticker are
// killed (without crashing the nodes) and the membership sweeper exits.
// After Stop the health subsystem schedules no further events, letting the
// simulation drain. Idempotent.
func (s *Suite) Stop() {
	for _, a := range s.Agents {
		a.Stop()
	}
	s.Membership.Stop()
}
