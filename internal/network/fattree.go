// Fat-tree fabric: a three-tier leaf/spine/core interconnect with switch
// failure domains, deterministic ECMP failover, and credit-based per-hop
// flow control with ECN marking.
//
// Topology: nodes attach to leaf switches; PodLeaves leaves plus Spines
// pod-local spine switches form a pod; Cores core switches join the pods.
// Routing is up/down: same-leaf traffic turns at the leaf, intra-pod
// traffic climbs to one pod spine, cross-pod traffic climbs through a
// spine and a core into the destination pod. Each transmit port is an
// event-chained passive stage — one serialization-completion event per
// frame, no pump goroutines — so the whole fabric replays bit-for-bit from
// a seed. A one-pod, one-spine, one-core shape is the classic two-level
// tree: every leaf shares a single uplink to one root switch.
//
// Failure domains: a whole switch (leaf/spine/core) or a single
// inter-switch trunk dies at a scheduled instant and optionally comes
// back. A dead port drops everything queued, in service, or arriving —
// counted per switch so the auditor's hop-conservation check still
// balances — and route computation skips it: each message picks its path
// at Send from the surviving candidates in deterministic hash order, so
// retransmissions reroute around a kill without any global coordination.
// When no candidate survives the message is counted Unrouteable (never
// silently stalled) and the watchdog surfaces the named diagnosis.
//
// Congestion: QueueCredits bounds every switch port to that many frames
// (queued + in service + committed upstream); a full port backpressures
// its upstream stage — which parks in the port's blocked FIFO and resumes
// when a credit frees — instead of growing an unbounded buffer. Because
// up/down routing makes the stage graph a DAG, backpressure cannot
// deadlock. ECNThreshold marks messages that enqueue on an
// already-congested port; the receiving NIC echoes the mark in its ACK
// and the sender's adaptive RTO backs off (incast degrades to bounded
// queueing plus sender pacing, the tree-allreduce hot-spot fix).
package network

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/sim"
)

var _ Transport = (*FatTree)(nil)

// stage is one store-and-forward transmit port: a FIFO serialized at the
// stage rate, each frame forwarded after the fixed post-latency. Like the
// star fabric's ports, a stage is an event-driven state machine — one
// serialization-completion event per frame, no pump process.
type stage struct {
	q    []*frame
	head int
	cur  *frame // in service; nil when the stage is idle
	done func()
	gbps float64
	post sim.Time
	// faultPoint marks the injection stage (the node-to-leaf egress hop);
	// fault verdicts are drawn exactly once per frame, there.
	faultPoint bool

	// dead marks a port of a killed switch or trunk: arriving frames are
	// dropped with reason "switchdown", and full() reads false so
	// upstream ports never block on a sink.
	dead bool
	// credits bounds occupancy (queued + in-service + reserved); 0 =
	// unbounded. ecnThresh marks arriving messages when occupancy is at
	// or above it; 0 = never mark.
	credits   int
	ecnThresh int
	// reserved counts frames committed upstream (serialization started)
	// but still in post-latency flight toward this stage.
	reserved int
	// blocked is the FIFO of upstream stages stalled waiting for one of
	// this stage's credits; stalled marks a stage parked in some
	// downstream blocked list.
	blocked []*stage
	stalled bool
	// owner is the audit switch index whose hop-conservation ledger this
	// port belongs to; -1 = node-owned (the egress injection port).
	owner int
}

func (s *stage) push(p *frame) { s.q = append(s.q, p) }

func (s *stage) pop() *frame {
	p := s.q[s.head]
	s.q[s.head] = nil
	s.head++
	if s.head == len(s.q) {
		s.q = s.q[:0]
		s.head = 0
	}
	return p
}

func (s *stage) empty() bool { return s.head == len(s.q) }

// frame is one MTU-sized segment of a message crossing the fat-tree.
type frame struct {
	msg   *Message
	bytes int64
	last  bool
	// path holds the remaining stages; empty means deliver.
	path []*stage
}

// UnroutedSample records one message the fat-tree could not route: every
// candidate path crossed a dead switch or trunk. The watchdog's HangError
// reports these so a partitioned-by-switch-failure run diagnoses as
// Unrouteable instead of hanging.
type UnroutedSample struct {
	Src, Dst NodeID
	At       sim.Time
	// Reason names the exhausted resource, e.g. "leaf 1 down" or
	// "no surviving spine/core path".
	Reason string
}

// FatTree is the three-tier fabric. It runs on a single engine
// (node.serialRequired): ports are shared mutable state across all node
// pairs, so there is no per-node lane partition to shard over.
type FatTree struct {
	ledger
	eng  *sim.Engine
	cfg  config.NetworkConfig
	topo config.TopologyConfig

	nleaves int
	npods   int
	nspines int // global spine count: npods * topo.Spines
	ncores  int

	egress  []*stage // per node: into its leaf (fault injection point)
	ingress []*stage // per node: leaf to node

	leafUp    [][]*stage // [leaf][podSpineLocal]: leaf to pod spine
	spineDown [][]*stage // [globalSpine][podLeafLocal]: spine to pod leaf
	spineUp   [][]*stage // [globalSpine][core]: spine to core
	coreDown  [][]*stage // [core][globalSpine]: core to spine

	aliveLeaf  []bool
	aliveSpine []bool
	aliveCore  []bool

	// Switch-domain and congestion accounting.
	switchDrops   int64 // frames dropped at dead ports ("switchdown")
	ecnMarks      int64 // messages marked by a congested port
	unrouteable   int64 // messages with no surviving path at Send
	unroutedFirst []UnroutedSample
}

// unroutedSampleMax bounds the retained Unrouteable samples (diagnosis
// wants a few named examples, not the full flood of an incast storm).
const unroutedSampleMax = 4

// NewFatTree builds the fabric over n nodes with the given topology
// shape (zero fields take config.TopologyConfig defaults).
func NewFatTree(eng *sim.Engine, cfg config.NetworkConfig, n int) *FatTree {
	if n <= 0 {
		panic("network: fat-tree needs a positive node count")
	}
	topo := cfg.FatTree.WithDefaults()
	nleaves := topo.Leaves(n)
	npods := topo.Pods(n)
	f := &FatTree{
		ledger:     newLedger(n),
		eng:        eng,
		cfg:        cfg,
		topo:       topo,
		nleaves:    nleaves,
		npods:      npods,
		nspines:    npods * topo.Spines,
		ncores:     topo.Cores,
		aliveLeaf:  make([]bool, nleaves),
		aliveSpine: make([]bool, npods*topo.Spines),
		aliveCore:  make([]bool, topo.Cores),
	}
	for i := range f.aliveLeaf {
		f.aliveLeaf[i] = true
	}
	for i := range f.aliveSpine {
		f.aliveSpine[i] = true
	}
	for i := range f.aliveCore {
		f.aliveCore[i] = true
	}
	mk := func(post sim.Time, owner int) *stage {
		s := &stage{gbps: cfg.BandwidthGbps, post: post, owner: owner}
		if owner >= 0 {
			s.credits = topo.QueueCredits
			s.ecnThresh = topo.ECNThreshold
		}
		s.done = func() { f.stageDone(s) }
		return s
	}
	hop := cfg.LinkLatency + cfg.SwitchLatency
	for i := 0; i < n; i++ {
		// Node-to-leaf: the sender's own port — unbounded (the source
		// buffer), fault injection point, owned by no switch.
		eg := mk(hop, -1)
		eg.faultPoint = true
		f.egress = append(f.egress, eg)
		// Leaf-to-node: propagation only, owned by the node's leaf.
		f.ingress = append(f.ingress, mk(cfg.LinkLatency, f.leafSwitch(topo.LeafOf(i))))
	}
	for l := 0; l < nleaves; l++ {
		ports := make([]*stage, topo.Spines)
		for s := range ports {
			ports[s] = mk(hop, f.leafSwitch(l))
		}
		f.leafUp = append(f.leafUp, ports)
	}
	for g := 0; g < f.nspines; g++ {
		down := make([]*stage, topo.PodLeaves)
		for l := range down {
			down[l] = mk(hop, f.spineSwitch(g))
		}
		f.spineDown = append(f.spineDown, down)
		up := make([]*stage, f.ncores)
		for c := range up {
			up[c] = mk(hop, f.spineSwitch(g))
		}
		f.spineUp = append(f.spineUp, up)
	}
	for c := 0; c < f.ncores; c++ {
		down := make([]*stage, f.nspines)
		for g := range down {
			down[g] = mk(hop, f.coreSwitch(c))
		}
		f.coreDown = append(f.coreDown, down)
	}
	return f
}

// Switch-index space for the audit hop-conservation ledger: leaves first,
// then global spines, then cores.
func (f *FatTree) leafSwitch(l int) int  { return l }
func (f *FatTree) spineSwitch(g int) int { return f.nleaves + g }
func (f *FatTree) coreSwitch(c int) int  { return f.nleaves + f.nspines + c }

// SwitchCount returns the total switch count across all tiers (the size
// of the audit hop ledger; callers installing an auditor must
// RegisterHops(SwitchCount()) on it first).
func (f *FatTree) SwitchCount() int { return f.nleaves + f.nspines + f.ncores }

// SwitchName renders a ledger index back to its tier name, for reports.
func (f *FatTree) SwitchName(sw int) string {
	switch {
	case sw < f.nleaves:
		return fmt.Sprintf("%s%d", config.SwitchTierLeaf, sw)
	case sw < f.nleaves+f.nspines:
		return fmt.Sprintf("%s%d", config.SwitchTierSpine, sw-f.nleaves)
	default:
		return fmt.Sprintf("%s%d", config.SwitchTierCore, sw-f.nleaves-f.nspines)
	}
}

// Leaves, Pods, Spines, Cores report the built shape.
func (f *FatTree) Leaves() int { return f.nleaves }
func (f *FatTree) Pods() int   { return f.npods }
func (f *FatTree) Spines() int { return f.nspines }
func (f *FatTree) Cores() int  { return f.ncores }

// occupancy is the port's credit load: frames queued, in service, and
// committed by an upstream stage but still in post-latency flight.
func (s *stage) occupancy() int {
	n := len(s.q) - s.head + s.reserved
	if s.cur != nil {
		n++
	}
	return n
}

// full reports whether the port has no free credit. A dead port is never
// full: it is a sink (arrivals drop), so upstream stages must not block
// on it forever.
func (s *stage) full() bool {
	return s.credits > 0 && !s.dead && s.occupancy() >= s.credits
}

// pathHash spreads (src, dst) pairs across the ECMP candidate orderings
// deterministically (no RNG: same pair, same preference order, forever).
func pathHash(src, dst NodeID) int {
	h := uint32(src)*0x9E3779B1 ^ uint32(dst)*0x85EBCA77
	h ^= h >> 16
	return int(h & 0x7FFFFFFF)
}

// pickPath computes one up/down route from src to dst over the surviving
// switches and trunks, scanning ECMP candidates from a deterministic
// hash offset. It returns nil and a named reason when nothing survives.
func (f *FatTree) pickPath(src, dst NodeID) ([]*stage, string) {
	ls, ld := f.topo.LeafOf(int(src)), f.topo.LeafOf(int(dst))
	if !f.aliveLeaf[ls] {
		return nil, fmt.Sprintf("leaf %d down", ls)
	}
	if !f.aliveLeaf[ld] {
		return nil, fmt.Sprintf("leaf %d down", ld)
	}
	if ls == ld {
		return []*stage{f.egress[src], f.ingress[dst]}, ""
	}
	h := pathHash(src, dst)
	ps, pd := ls/f.topo.PodLeaves, ld/f.topo.PodLeaves
	if ps == pd {
		for i := 0; i < f.topo.Spines; i++ {
			sl := (h + i) % f.topo.Spines
			g := ps*f.topo.Spines + sl
			up := f.leafUp[ls][sl]
			dn := f.spineDown[g][ld%f.topo.PodLeaves]
			if !f.aliveSpine[g] || up.dead || dn.dead {
				continue
			}
			return []*stage{f.egress[src], up, dn, f.ingress[dst]}, ""
		}
		return nil, fmt.Sprintf("no surviving spine path in pod %d", ps)
	}
	for i := 0; i < f.topo.Spines; i++ {
		gs := ps*f.topo.Spines + (h+i)%f.topo.Spines
		up1 := f.leafUp[ls][gs%f.topo.Spines]
		if !f.aliveSpine[gs] || up1.dead {
			continue
		}
		for j := 0; j < f.ncores; j++ {
			c := (h + j) % f.ncores
			up2 := f.spineUp[gs][c]
			if !f.aliveCore[c] || up2.dead {
				continue
			}
			for k := 0; k < f.topo.Spines; k++ {
				gd := pd*f.topo.Spines + (h+k)%f.topo.Spines
				dn1 := f.coreDown[c][gd]
				dn2 := f.spineDown[gd][ld%f.topo.PodLeaves]
				if !f.aliveSpine[gd] || dn1.dead || dn2.dead {
					continue
				}
				return []*stage{f.egress[src], up1, up2, dn1, dn2, f.ingress[dst]}, ""
			}
		}
	}
	return nil, "no surviving spine/core path"
}

// Send implements Transport. The whole message routes over one path,
// chosen here; a mid-flight kill damages it (reliable senders retransmit
// and the retransmission reroutes), and a message with no surviving path
// is counted Unrouteable instead of queued toward a dead port.
func (f *FatTree) Send(m *Message) {
	f.admit(m)
	m.SentAt = f.eng.Now()
	path, reason := f.pickPath(m.Src, m.Dst)
	if path == nil {
		f.unrouteable++
		if len(f.unroutedFirst) < unroutedSampleMax {
			f.unroutedFirst = append(f.unroutedFirst, UnroutedSample{
				Src: m.Src, Dst: m.Dst, At: f.eng.Now(), Reason: reason,
			})
		}
		f.lose(m)
		return
	}
	remaining := m.Size
	for {
		chunk := remaining
		if chunk > f.cfg.MTUBytes {
			chunk = f.cfg.MTUBytes
		}
		remaining -= chunk
		pkt := &frame{msg: m, bytes: chunk, last: remaining == 0, path: path[1:]}
		path[0].push(pkt)
		if remaining == 0 {
			break
		}
	}
	f.maybeStart(path[0])
}

// maybeStart starts the stage's next serialization unless it is already
// serving, parked on a full downstream port, dead, or empty.
func (f *FatTree) maybeStart(s *stage) {
	if s.cur == nil && !s.stalled && !s.dead && !s.empty() {
		f.stageStart(s)
	}
}

// stageStart commits the stage's head frame: it reserves a credit on the
// frame's next port (or parks in that port's blocked FIFO when it is
// full) and begins serialization.
func (f *FatTree) stageStart(s *stage) {
	pkt := s.q[s.head]
	var ns *stage
	if len(pkt.path) > 0 {
		ns = pkt.path[0]
	}
	if ns != nil && ns.full() {
		s.stalled = true
		ns.blocked = append(ns.blocked, s)
		return
	}
	if ns != nil {
		ns.reserved++
	}
	s.pop()
	s.cur = pkt
	f.eng.After(sim.BytesAtGbps(pkt.bytes, s.gbps), s.done)
}

// kickBlocked resumes stages parked on s while s has free credits.
func (f *FatTree) kickBlocked(s *stage) {
	for len(s.blocked) > 0 && !s.full() {
		u := s.blocked[0]
		s.blocked = s.blocked[1:]
		u.stalled = false
		if u.dead || u.empty() || u.cur != nil {
			continue
		}
		f.stageStart(u)
	}
}

// dropPacket accounts one frame dropped at a dead port: the message is
// damaged (delivery suppressed, reliable senders will retransmit and
// reroute) and the owning switch's hop ledger records the drop.
func (f *FatTree) dropPacket(pkt *frame, owner int) {
	f.switchDrops++
	f.drop(pkt.msg)
	if owner >= 0 {
		f.au.HopDropped(owner)
	}
}

// releaseReservation returns the credit a dropped in-service frame had
// reserved on its next port, waking anything parked on it.
func (f *FatTree) releaseReservation(pkt *frame) {
	if len(pkt.path) > 0 {
		ns := pkt.path[0]
		ns.reserved--
		f.kickBlocked(ns)
	}
}

// stageDone finishes one frame's serialization: the frame leaves this
// port (freeing a credit) and flies the post-latency to its next port or
// to delivery. A port killed mid-service drops the frame here instead.
func (f *FatTree) stageDone(s *stage) {
	pkt := s.cur
	s.cur = nil
	if s.dead {
		f.dropPacket(pkt, s.owner)
		f.releaseReservation(pkt)
		return
	}
	if s.owner >= 0 {
		f.au.HopOut(s.owner)
	}
	post, dropped := s.post, false
	if s.faultPoint {
		post, dropped = f.faultPoint(f.eng.Now(), pkt.msg, post)
	}
	if dropped {
		f.releaseReservation(pkt)
	} else {
		f.eng.After(post, func() { f.arrive(pkt) })
	}
	f.kickBlocked(s)
	f.maybeStart(s)
}

// arrive lands one frame at its next port (or delivers it). Arrival at a
// port of a switch killed while the frame was in flight drops it.
func (f *FatTree) arrive(pkt *frame) {
	if len(pkt.path) == 0 {
		f.deliver(pkt.msg, pkt.bytes, pkt.last, f.eng.Now())
		return
	}
	ns := pkt.path[0]
	pkt.path = pkt.path[1:]
	ns.reserved--
	if ns.dead {
		if ns.owner >= 0 {
			f.au.HopIn(ns.owner)
		}
		f.dropPacket(pkt, ns.owner)
		return
	}
	if ns.ecnThresh > 0 && ns.occupancy() >= ns.ecnThresh && !pkt.msg.ECN {
		pkt.msg.ECN = true
		f.ecnMarks++
	}
	if ns.owner >= 0 {
		f.au.HopIn(ns.owner)
	}
	ns.push(pkt)
	f.maybeStart(ns)
}

// killStage marks one port dead and drops everything it holds. The
// in-service frame (if any) drops when its serialization event fires;
// stages parked on this port resume immediately (a dead port is a sink,
// never a block).
func (f *FatTree) killStage(s *stage) {
	if s.dead {
		return
	}
	s.dead = true
	for !s.empty() {
		f.dropPacket(s.pop(), s.owner)
	}
	f.kickBlocked(s)
}

// restoreStage brings a port back in service, empty.
func (f *FatTree) restoreStage(s *stage) { s.dead = false }

// switchStages returns the transmit ports owned by one switch.
func (f *FatTree) switchStages(tier string, index int) []*stage {
	var out []*stage
	switch tier {
	case config.SwitchTierLeaf:
		if index < 0 || index >= f.nleaves {
			panic(fmt.Sprintf("network: fat-tree has no leaf %d (have %d)", index, f.nleaves))
		}
		for i := range f.ingress {
			if f.topo.LeafOf(i) == index {
				out = append(out, f.ingress[i])
			}
		}
		out = append(out, f.leafUp[index]...)
	case config.SwitchTierSpine:
		if index < 0 || index >= f.nspines {
			panic(fmt.Sprintf("network: fat-tree has no spine %d (have %d)", index, f.nspines))
		}
		out = append(out, f.spineDown[index]...)
		out = append(out, f.spineUp[index]...)
	case config.SwitchTierCore:
		if index < 0 || index >= f.ncores {
			panic(fmt.Sprintf("network: fat-tree has no core %d (have %d)", index, f.ncores))
		}
		out = append(out, f.coreDown[index]...)
	default:
		panic(fmt.Sprintf("network: unknown switch tier %q", tier))
	}
	return out
}

func (f *FatTree) setSwitchAlive(tier string, index int, alive bool) {
	switch tier {
	case config.SwitchTierLeaf:
		f.aliveLeaf[index] = alive
	case config.SwitchTierSpine:
		f.aliveSpine[index] = alive
	case config.SwitchTierCore:
		f.aliveCore[index] = alive
	}
}

// KillSwitch takes a whole switch dark: routing skips it, its ports drop
// everything held and everything that arrives until RestoreSwitch.
func (f *FatTree) KillSwitch(tier string, index int) {
	for _, s := range f.switchStages(tier, index) {
		f.killStage(s)
	}
	f.setSwitchAlive(tier, index, false)
}

// RestoreSwitch brings a killed switch back, with empty ports.
func (f *FatTree) RestoreSwitch(tier string, index int) {
	for _, s := range f.switchStages(tier, index) {
		f.restoreStage(s)
	}
	f.setSwitchAlive(tier, index, true)
}

// trunkStages resolves one inter-switch link to its two directional
// ports. Valid trunks are leaf↔spine within one pod and spine↔core.
func (f *FatTree) trunkStages(aTier string, aIdx int, bTier string, bIdx int) (up, down *stage) {
	if aTier == config.SwitchTierSpine && bTier == config.SwitchTierLeaf {
		aTier, aIdx, bTier, bIdx = bTier, bIdx, aTier, aIdx
	}
	if aTier == config.SwitchTierCore && bTier == config.SwitchTierSpine {
		aTier, aIdx, bTier, bIdx = bTier, bIdx, aTier, aIdx
	}
	switch {
	case aTier == config.SwitchTierLeaf && bTier == config.SwitchTierSpine:
		if aIdx < 0 || aIdx >= f.nleaves || bIdx < 0 || bIdx >= f.nspines {
			panic(fmt.Sprintf("network: fat-tree has no trunk %s%d-%s%d", aTier, aIdx, bTier, bIdx))
		}
		if aIdx/f.topo.PodLeaves != bIdx/f.topo.Spines {
			panic(fmt.Sprintf("network: leaf%d and spine%d are in different pods (no trunk)", aIdx, bIdx))
		}
		return f.leafUp[aIdx][bIdx%f.topo.Spines], f.spineDown[bIdx][aIdx%f.topo.PodLeaves]
	case aTier == config.SwitchTierSpine && bTier == config.SwitchTierCore:
		if aIdx < 0 || aIdx >= f.nspines || bIdx < 0 || bIdx >= f.ncores {
			panic(fmt.Sprintf("network: fat-tree has no trunk %s%d-%s%d", aTier, aIdx, bTier, bIdx))
		}
		return f.spineUp[aIdx][bIdx], f.coreDown[bIdx][aIdx]
	default:
		panic(fmt.Sprintf("network: no trunk between tiers %q and %q", aTier, bTier))
	}
}

// KillTrunk takes one inter-switch link dark in both directions.
func (f *FatTree) KillTrunk(aTier string, aIdx int, bTier string, bIdx int) {
	up, down := f.trunkStages(aTier, aIdx, bTier, bIdx)
	f.killStage(up)
	f.killStage(down)
}

// RestoreTrunk brings a killed trunk back.
func (f *FatTree) RestoreTrunk(aTier string, aIdx int, bTier string, bIdx int) {
	up, down := f.trunkStages(aTier, aIdx, bTier, bIdx)
	f.restoreStage(up)
	f.restoreStage(down)
}

// SwitchDrops reports frames dropped at dead switch/trunk ports.
func (f *FatTree) SwitchDrops() int64 { return f.switchDrops }

// ECNMarks reports messages marked by congested ports.
func (f *FatTree) ECNMarks() int64 { return f.ecnMarks }

// Unrouteable reports messages that found no surviving path at Send.
func (f *FatTree) Unrouteable() int64 { return f.unrouteable }

// UnroutedSamples returns the first few Unrouteable messages, for the
// watchdog diagnosis.
func (f *FatTree) UnroutedSamples() []UnroutedSample { return f.unroutedFirst }
