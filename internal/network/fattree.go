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
// tree: every leaf shares a single uplink to one root switch. A one-leaf
// shape with no credits and no ECN is the Table 2 star: every route is the
// source's port (link plus switch latency) then the destination's port
// (link latency), which serializes destination contention.
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

// stage is one store-and-forward transmit port: a FIFO serialized at the
// stage rate, each frame forwarded after the fixed post-latency. A stage is
// an event-driven state machine — one serialization-completion event per
// frame, no pump process, which would cost two goroutine context switches
// per frame. done is the stage's pre-bound completion callback, so the
// steady-state path allocates no closures for serialization.
type stage struct {
	q    []*frame
	head int
	cur  *frame // in service; nil when the stage is idle
	done func()
	// eng runs the stage's events: the node's engine for its egress and
	// ingress ports, the construction engine for switch-to-switch ports.
	eng  *sim.Engine
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
	// but still in post-latency flight toward this stage. Only metered
	// stages keep it: an unmetered ingress port is fed from every source's
	// engine, so it must take no upstream writes.
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

// metered reports whether the stage reads its occupancy (credits or ECN).
func (s *stage) metered() bool { return s.credits > 0 || s.ecnThresh > 0 }

// maxHops is the longest up/down route: egress, leaf up, spine up, core
// down, spine down, ingress.
const maxHops = 6

// route is a frame's whole path, held by value so picking one allocates
// nothing.
type route struct {
	st [maxHops]*stage
	n  int
}

func (r *route) add(s *stage) {
	r.st[r.n] = s
	r.n++
}

// frame is one MTU-sized segment of a message in flight. Frames are pooled
// per node (see Fabric.newFrame): arrive is bound to the frame once, when
// it is first allocated, so the per-hop flight allocates no closure.
type frame struct {
	msg   *Message
	bytes int64
	last  bool
	// route.st[hop] is the stage holding the frame, or the one it just
	// left while in flight; past the last stage, arrive delivers.
	route  route
	hop    int
	arrive func()
}

// next returns the stage after the current one, or nil at the last.
func (pkt *frame) next() *stage {
	if pkt.hop+1 < pkt.route.n {
		return pkt.route.st[pkt.hop+1]
	}
	return nil
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

// Fabric is the interconnect: nodes on leaf switches, leaves and spines
// in pods, cores joining the pods. The Table 2 star is the one-leaf shape
// with no credits and no ECN.
//
// Sharding: a node's egress and ingress ports, its counters, and its frame
// pool are touched only by events on that node's engine — the source's for
// egress and fault draws, the destination's for ingress and delivery. The
// one src→dst handoff is the flight into the destination's ingress port,
// which either re-lanes onto the shared engine or crosses engines as window
// mail (see launch). Message flag writes (damaged, Corrupted,
// SilentCorrupt) happen on the source side and complete before the last
// frame's flight is even scheduled; the only reader is the last frame's
// delivery on the destination side, which the flight event happens-before
// — so sharing *Message across shards is race-free. Switch-to-switch ports
// are shared by node pairs and credits are written from upstream, so any
// shape with more than one leaf, credits, or ECN runs on one engine.
type Fabric struct {
	ledger
	cfg  config.NetworkConfig
	topo config.TopologyConfig

	// lanes[i] is node i's event lane; its ports' stage engines own it.
	// Default: every node on the construction engine, lane 0 (a bare
	// fabric, as unit rigs build it). SetSharding installs the cluster's
	// layout.
	lanes []uint32
	sh    *sim.Sharded

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

	// pool[i] recycles frames for node i. A frame is drawn from its
	// source's pool in Send and returned to whichever node's engine retires
	// it (destination on delivery, source on drop), so each pool is only
	// ever touched by its owner's engine.
	pool [][]*frame
}

// unroutedSampleMax bounds the retained Unrouteable samples (diagnosis
// wants a few named examples, not the full flood of an incast storm).
const unroutedSampleMax = 4

// shapeOf returns the switch layout for cfg's topology: the fat-tree's
// configured shape, or for the star one leaf switch holding all n nodes.
func shapeOf(cfg config.NetworkConfig, n int) config.TopologyConfig {
	switch cfg.Topology {
	case config.TopologyFatTree:
		return cfg.FatTree.WithDefaults()
	case config.TopologyStar, "":
		return config.TopologyConfig{LeafSize: n, PodLeaves: 1, Spines: 1, Cores: 1}
	default:
		panic(fmt.Sprintf("network: unknown topology %q", cfg.Topology))
	}
}

// New builds the fabric over n nodes in the topology cfg selects: the
// Table 2 star by default, or the fat-tree shaped by cfg.FatTree (zero
// fields take config.TopologyConfig defaults). Handlers must be bound with
// Bind before traffic reaches a node.
func New(eng *sim.Engine, cfg config.NetworkConfig, n int) *Fabric {
	if n <= 0 {
		panic("network: fabric needs at least one node")
	}
	topo := shapeOf(cfg, n)
	nleaves := topo.Leaves(n)
	npods := topo.Pods(n)
	f := &Fabric{
		ledger:     newLedger(n),
		cfg:        cfg,
		topo:       topo,
		lanes:      make([]uint32, n),
		nleaves:    nleaves,
		npods:      npods,
		nspines:    npods * topo.Spines,
		ncores:     topo.Cores,
		aliveLeaf:  make([]bool, nleaves),
		aliveSpine: make([]bool, npods*topo.Spines),
		aliveCore:  make([]bool, topo.Cores),
		pool:       make([][]*frame, n),
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
	mk := func(s *stage, post sim.Time, owner int) *stage {
		*s = stage{eng: eng, gbps: cfg.BandwidthGbps, post: post, owner: owner}
		if owner >= 0 {
			s.credits = topo.QueueCredits
			s.ecnThresh = topo.ECNThreshold
		}
		s.done = func() { f.stageDone(s) }
		return s
	}
	hop := cfg.LinkLatency + cfg.SwitchLatency
	nodePorts := make([]stage, 2*n)
	f.egress, f.ingress = make([]*stage, n), make([]*stage, n)
	for i := 0; i < n; i++ {
		// Node-to-leaf: the sender's own port — unbounded (the source
		// buffer), fault injection point, owned by no switch.
		f.egress[i] = mk(&nodePorts[2*i], hop, -1)
		f.egress[i].faultPoint = true
		// Leaf-to-node: propagation only, owned by the node's leaf.
		f.ingress[i] = mk(&nodePorts[2*i+1], cfg.LinkLatency, f.leafSwitch(topo.LeafOf(i)))
	}
	if cfg.Topology != config.TopologyFatTree {
		// The star's one leaf switches every route itself, and
		// config.Validate rejects switch events off the fat-tree, so no
		// switch-to-switch port would ever be used.
		return f
	}
	// tier carves one switch tier's rows×cols ports, row r owned by switch
	// owner(r), from one backing array.
	tier := func(rows, cols int, owner func(int) int) [][]*stage {
		ports := make([]stage, rows*cols)
		ptrs := make([]*stage, rows*cols)
		out := make([][]*stage, rows)
		for r := range out {
			out[r] = ptrs[r*cols : (r+1)*cols : (r+1)*cols]
			for c := range out[r] {
				out[r][c] = mk(&ports[r*cols+c], hop, owner(r))
			}
		}
		return out
	}
	f.leafUp = tier(nleaves, topo.Spines, f.leafSwitch)
	f.spineDown = tier(f.nspines, topo.PodLeaves, f.spineSwitch)
	f.spineUp = tier(f.nspines, f.ncores, f.spineSwitch)
	f.coreDown = tier(f.ncores, f.nspines, f.coreSwitch)
	return f
}

// SetSharding partitions the fabric's nodes across a sharded engine group:
// engOf[i] is the engine owning node i and laneOf[i] its event lane. Must be
// called before any traffic. The group's lookahead must not exceed
// Lookahead(cfg) or cross-shard flights would violate the window invariant,
// and a shape with shared switch ports or credits must stay on one engine.
func (f *Fabric) SetSharding(sh *sim.Sharded, engOf []*sim.Engine, laneOf []uint32) {
	if len(engOf) != len(f.handlers) || len(laneOf) != len(f.handlers) {
		panic("network: sharding tables must cover every node")
	}
	if sh.Lookahead() > Lookahead(f.cfg) {
		panic(fmt.Sprintf("network: shard lookahead %v exceeds minimum flight %v", sh.Lookahead(), Lookahead(f.cfg)))
	}
	if f.nleaves > 1 || f.topo.QueueCredits > 0 || f.topo.ECNThreshold > 0 {
		for _, e := range engOf {
			if e != engOf[0] {
				panic("network: a fabric with shared switch ports or credits needs one engine")
			}
		}
	}
	f.sh = sh
	copy(f.lanes, laneOf)
	for i, e := range engOf {
		f.egress[i].eng = e
		f.ingress[i].eng = e
	}
}

// newFrame draws a recycled frame from node owner's pool (or allocates
// one, binding its arrive callback exactly once).
func (f *Fabric) newFrame(owner int) *frame {
	fl := f.pool[owner]
	if n := len(fl); n > 0 {
		pkt := fl[n-1]
		fl[n-1] = nil
		f.pool[owner] = fl[:n-1]
		return pkt
	}
	pkt := &frame{}
	pkt.arrive = func() { f.arrive(pkt) }
	return pkt
}

// recycle returns a retired frame to node owner's pool. The caller must
// hold the only remaining reference.
func (f *Fabric) recycle(owner int, pkt *frame) {
	pkt.msg = nil
	f.pool[owner] = append(f.pool[owner], pkt)
}

// Switch-index space for the audit hop-conservation ledger: leaves first,
// then global spines, then cores.
func (f *Fabric) leafSwitch(l int) int  { return l }
func (f *Fabric) spineSwitch(g int) int { return f.nleaves + g }
func (f *Fabric) coreSwitch(c int) int  { return f.nleaves + f.nspines + c }

// SwitchCount returns the total switch count across all tiers (the size
// of the audit hop ledger; callers installing an auditor must
// RegisterHops(SwitchCount()) on it first).
func (f *Fabric) SwitchCount() int { return f.nleaves + f.nspines + f.ncores }

// SwitchName renders a ledger index back to its tier name, for reports.
func (f *Fabric) SwitchName(sw int) string {
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
func (f *Fabric) Leaves() int { return f.nleaves }
func (f *Fabric) Pods() int   { return f.npods }
func (f *Fabric) Spines() int { return f.nspines }
func (f *Fabric) Cores() int  { return f.ncores }

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
// hash offset. It returns an empty route and a named reason when nothing
// survives.
func (f *Fabric) pickPath(src, dst NodeID) (route, string) {
	var r route
	ls, ld := f.topo.LeafOf(int(src)), f.topo.LeafOf(int(dst))
	if !f.aliveLeaf[ls] {
		return r, fmt.Sprintf("leaf %d down", ls)
	}
	if !f.aliveLeaf[ld] {
		return r, fmt.Sprintf("leaf %d down", ld)
	}
	r.add(f.egress[src])
	if ls == ld {
		r.add(f.ingress[dst])
		return r, ""
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
			r.add(up)
			r.add(dn)
			r.add(f.ingress[dst])
			return r, ""
		}
		return route{}, fmt.Sprintf("no surviving spine path in pod %d", ps)
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
				for _, s := range [...]*stage{up1, up2, dn1, dn2, f.ingress[dst]} {
					r.add(s)
				}
				return r, ""
			}
		}
	}
	return route{}, "no surviving spine/core path"
}

// Send injects a message. It is asynchronous: the call returns immediately
// and delivery happens via the destination handler. The whole message
// routes over one path, chosen here; a mid-flight switch kill damages it
// (reliable senders retransmit and the retransmission reroutes), and a
// message with no surviving path is counted Unrouteable instead of queued
// toward a dead port.
func (f *Fabric) Send(m *Message) {
	f.admit(m)
	src := int(m.Src)
	m.SentAt = f.egress[src].eng.Now()
	r, reason := f.pickPath(m.Src, m.Dst)
	if r.n == 0 {
		f.unrouteable++
		if len(f.unroutedFirst) < unroutedSampleMax {
			f.unroutedFirst = append(f.unroutedFirst, UnroutedSample{
				Src: m.Src, Dst: m.Dst, At: m.SentAt, Reason: reason,
			})
		}
		f.lose(m)
		return
	}
	first := r.st[0]
	remaining := m.Size
	for {
		chunk := remaining
		if chunk > f.cfg.MTUBytes {
			chunk = f.cfg.MTUBytes
		}
		remaining -= chunk
		pkt := f.newFrame(src)
		pkt.msg, pkt.bytes, pkt.last, pkt.route, pkt.hop = m, chunk, remaining == 0, r, 0
		first.push(pkt)
		if remaining == 0 {
			break
		}
	}
	f.maybeStart(first)
}

// maybeStart starts the stage's next serialization unless it is already
// serving, parked on a full downstream port, dead, or empty.
func (f *Fabric) maybeStart(s *stage) {
	if s.cur == nil && !s.stalled && !s.dead && !s.empty() {
		f.stageStart(s)
	}
}

// stageStart commits the stage's head frame: it reserves a credit on the
// frame's next port (or parks in that port's blocked FIFO when it is
// full) and begins serialization.
func (f *Fabric) stageStart(s *stage) {
	pkt := s.q[s.head]
	ns := pkt.next()
	if ns != nil && ns.full() {
		s.stalled = true
		ns.blocked = append(ns.blocked, s)
		return
	}
	if ns != nil && ns.metered() {
		ns.reserved++
	}
	s.pop()
	s.cur = pkt
	s.eng.After(sim.BytesAtGbps(pkt.bytes, s.gbps), s.done)
}

// kickBlocked resumes stages parked on s while s has free credits.
func (f *Fabric) kickBlocked(s *stage) {
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
func (f *Fabric) dropPacket(pkt *frame, owner int) {
	f.switchDrops++
	f.drop(pkt.msg)
	if owner >= 0 {
		f.au.HopDropped(owner)
	}
}

// releaseReservation returns the credit a dropped in-service frame had
// reserved on its next port, waking anything parked on it.
func (f *Fabric) releaseReservation(pkt *frame) {
	if ns := pkt.next(); ns != nil && ns.metered() {
		ns.reserved--
		f.kickBlocked(ns)
	}
}

// stageDone finishes one frame's serialization: the frame leaves this
// port (freeing a credit) and flies the post-latency to its next port or
// to delivery. A port killed mid-service drops the frame here instead.
func (f *Fabric) stageDone(s *stage) {
	pkt := s.cur
	s.cur = nil
	if s.dead {
		f.dropPacket(pkt, s.owner)
		f.releaseReservation(pkt)
		f.recycle(int(pkt.msg.Src), pkt)
		return
	}
	if s.owner >= 0 {
		f.au.HopOut(s.owner)
	}
	post, dropped := s.post, false
	if s.faultPoint {
		post, dropped = f.faultPoint(s.eng.Now(), pkt.msg, post)
	}
	if dropped {
		f.releaseReservation(pkt)
		f.recycle(int(pkt.msg.Src), pkt)
	} else {
		f.launch(s, pkt, post)
	}
	f.kickBlocked(s)
	f.maybeStart(s)
}

// launch schedules a frame's flight from stage s. Flight time is pure
// delay (pipelined), so it is a scheduled event rather than port
// occupancy. The flight into the destination's ingress port is the one hop
// that changes lane: it executes on the destination node's engine under its
// lane, either directly (same engine) or as window mail (flight ≥ lookahead
// by construction, see Lookahead). Every other hop inherits the current
// lane.
func (f *Fabric) launch(s *stage, pkt *frame, post sim.Time) {
	if pkt.hop+2 != pkt.route.n {
		s.eng.After(post, pkt.arrive)
		return
	}
	dst := int(pkt.msg.Dst)
	if de := f.ingress[dst].eng; de == s.eng {
		s.eng.AfterLane(post, f.lanes[dst], pkt.arrive)
	} else {
		f.sh.SendMail(s.eng, de, post, f.lanes[dst], "", pkt.arrive)
	}
}

// arrive lands one frame at its next port, or past the last port delivers
// it. The frame is recycled before the handler runs (the handler may
// immediately reuse it for a reply). Arrival at a port of a switch killed
// while the frame was in flight drops it.
func (f *Fabric) arrive(pkt *frame) {
	ns := pkt.next()
	if ns == nil {
		dst := int(pkt.msg.Dst)
		m, bytes, last := pkt.msg, pkt.bytes, pkt.last
		f.recycle(dst, pkt)
		f.deliver(m, bytes, last, f.ingress[dst].eng.Now())
		return
	}
	pkt.hop++
	if ns.metered() {
		ns.reserved--
	}
	if ns.dead {
		if ns.owner >= 0 {
			f.au.HopIn(ns.owner)
		}
		f.dropPacket(pkt, ns.owner)
		f.recycle(int(pkt.msg.Src), pkt)
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
func (f *Fabric) killStage(s *stage) {
	if s.dead {
		return
	}
	s.dead = true
	for !s.empty() {
		pkt := s.pop()
		f.dropPacket(pkt, s.owner)
		f.recycle(int(pkt.msg.Src), pkt)
	}
	f.kickBlocked(s)
}

// restoreStage brings a port back in service, empty.
func (f *Fabric) restoreStage(s *stage) { s.dead = false }

// switchStages returns the transmit ports owned by one switch.
func (f *Fabric) switchStages(tier string, index int) []*stage {
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

func (f *Fabric) setSwitchAlive(tier string, index int, alive bool) {
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
func (f *Fabric) KillSwitch(tier string, index int) {
	for _, s := range f.switchStages(tier, index) {
		f.killStage(s)
	}
	f.setSwitchAlive(tier, index, false)
}

// RestoreSwitch brings a killed switch back, with empty ports.
func (f *Fabric) RestoreSwitch(tier string, index int) {
	for _, s := range f.switchStages(tier, index) {
		f.restoreStage(s)
	}
	f.setSwitchAlive(tier, index, true)
}

// trunkStages resolves one inter-switch link to its two directional
// ports. Valid trunks are leaf↔spine within one pod and spine↔core.
func (f *Fabric) trunkStages(aTier string, aIdx int, bTier string, bIdx int) (up, down *stage) {
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
func (f *Fabric) KillTrunk(aTier string, aIdx int, bTier string, bIdx int) {
	up, down := f.trunkStages(aTier, aIdx, bTier, bIdx)
	f.killStage(up)
	f.killStage(down)
}

// RestoreTrunk brings a killed trunk back.
func (f *Fabric) RestoreTrunk(aTier string, aIdx int, bTier string, bIdx int) {
	up, down := f.trunkStages(aTier, aIdx, bTier, bIdx)
	f.restoreStage(up)
	f.restoreStage(down)
}

// SwitchDrops reports frames dropped at dead switch/trunk ports.
func (f *Fabric) SwitchDrops() int64 { return f.switchDrops }

// ECNMarks reports messages marked by congested ports.
func (f *Fabric) ECNMarks() int64 { return f.ecnMarks }

// Unrouteable reports messages that found no surviving path at Send.
func (f *Fabric) Unrouteable() int64 { return f.unrouteable }

// UnroutedSamples returns the first few Unrouteable messages, for the
// watchdog diagnosis.
func (f *Fabric) UnroutedSamples() []UnroutedSample { return f.unroutedFirst }
