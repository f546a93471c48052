// Package network models the paper's fabric (Table 2): a single-switch star
// topology with 100 ns links, a 100 ns switch, and 100 Gb/s ports.
//
// Messages are segmented into MTU-sized packets. Each packet serializes on
// the source port, propagates over the source link, pays the switch latency,
// serializes on the destination port (modeling the egress link rate and
// destination contention), and propagates over the destination link. The
// fabric preserves packet — and therefore message — order per (src, dst)
// pair and conserves bandwidth on every port.
//
// The multi-tier FatTree (fattree.go) is the package's other Transport;
// both fabrics embed the same per-node counter ledger and call the same
// fault point (ledger.go).
package network

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/sim"
)

// Transport is the interface NICs speak to an interconnect. The star
// Fabric of Table 2 and the multi-tier FatTree both satisfy it, so
// experiments can swap topologies without touching the NIC model.
type Transport interface {
	// Bind installs the delivery handler for a node.
	Bind(id NodeID, h Handler)
	// Send injects a message (asynchronous; no loopback).
	Send(m *Message)
	// Nodes returns the port count.
	Nodes() int
	// BytesSent / BytesDelivered / MessagesDelivered report accounting.
	BytesSent(id NodeID) int64
	BytesDelivered(id NodeID) int64
	MessagesDelivered(id NodeID) int64
	// LastDelivery reports the most recent delivery time.
	LastDelivery() sim.Time
	// SetInjector installs a fault injector (nil = lossless).
	SetInjector(in *fault.Injector)
	// SetAuditor installs the invariant auditor's message-conservation
	// hooks (nil = no-op).
	SetAuditor(a *audit.Auditor)
	// PacketsDropped / MessagesLost / MessagesCorrupted report injected
	// fault accounting; all zero on a lossless fabric.
	PacketsDropped() int64
	MessagesLost() int64
	MessagesCorrupted() int64
}

var _ Transport = (*Fabric)(nil)

// NodeID identifies a node (port) on the fabric.
type NodeID int

// Message is one network transfer between two nodes. The fabric treats the
// payload as opaque; NIC models attach whatever metadata they need.
type Message struct {
	Src, Dst NodeID
	Size     int64 // payload size in bytes (headers are ignored)
	Kind     string
	Payload  any

	// SentAt is stamped by the fabric when the message is injected.
	SentAt sim.Time

	// SrcEpoch and DstEpoch are incarnation epochs stamped by the sending
	// NIC: SrcEpoch is the sender's current incarnation and DstEpoch is the
	// sender's view of the destination's incarnation. The receiving NIC
	// fences frames from a dead incarnation (SrcEpoch behind its view) and
	// frames addressed to a previous life of its own (DstEpoch mismatch).
	// Both stay at the initial incarnation (1) unless a node crashes.
	SrcEpoch, DstEpoch int64

	// Corrupted is set by the fault injector when any packet of the
	// message was corrupted in flight; the receiving NIC's checksum
	// detects it (and NACKs it when reliable delivery is on).
	Corrupted bool
	// SilentCorrupt is set by the SDC plan when a packet's payload bits
	// flipped in flight WITHOUT tripping the link checksum: the link CRC
	// passes, so only the end-to-end payload checksum (or a verified
	// collective) can catch it. The receiving NIC materializes the bit
	// flips into the payload when this is set.
	SilentCorrupt bool
	// ECN is set by a congested fat-tree switch port (occupancy at or
	// above TopologyConfig.ECNThreshold when a frame of this message
	// enqueued); the receiving NIC echoes it in the corresponding ACK so
	// the sender's adaptive RTO backs off. Congestion feedback only — it
	// never fails a checksum or suppresses delivery.
	ECN bool
	// damaged marks a message with at least one dropped packet; the
	// fabric suppresses its delivery.
	damaged bool
}

// Handler receives a complete message at its destination, at the simulated
// time the last byte arrives.
type Handler func(m *Message)

// packet is one MTU-sized segment of a message in flight. Packets are
// pooled per node (see Fabric.newPacket): arrive and deliver are bound to
// the packet object once, when it is first allocated, so the two per-hop
// schedules — switch flight and destination-link propagation — allocate
// no closures in steady state.
type packet struct {
	msg   *Message
	bytes int64
	last  bool
	// dst caches int(msg.Dst) for the pre-bound hop callbacks.
	dst     int
	arrive  func()
	deliver func()
}

// port is one serialization stage of a fabric port: a FIFO of waiting
// packets plus the packet currently on the wire. Serialization is modeled
// as a chain of completion events — one event per packet — rather than a
// pump process, which would cost two goroutine context switches per
// packet. done is the stage's pre-bound completion callback, so the
// steady-state path allocates no closures for serialization.
type port struct {
	q    []*packet
	head int
	cur  *packet // in service; nil when the stage is idle
	done func()
}

func (pq *port) push(p *packet) { pq.q = append(pq.q, p) }

func (pq *port) pop() *packet {
	p := pq.q[pq.head]
	pq.q[pq.head] = nil
	pq.head++
	if pq.head == len(pq.q) {
		pq.q = pq.q[:0]
		pq.head = 0
	}
	return p
}

func (pq *port) empty() bool { return pq.head == len(pq.q) }

// Fabric is the star-topology interconnect.
//
// Sharding: every piece of fabric state is owned by exactly one node and only
// touched by events running on that node's engine — egress stages, per-source
// counters, and fault draws by the source; ingress stages, delivery counters,
// and handlers by the destination. The one src→dst handoff is the
// switch-flight event, which either re-lanes onto the shared engine or
// crosses engines as window mail (see route). Message flag writes (damaged,
// Corrupted, SilentCorrupt) happen on the source side and complete before the
// last packet's flight is even scheduled; the only reader is the last
// packet's delivery on the destination side, which the flight event
// happens-before — so sharing *Message across shards is race-free.
type Fabric struct {
	ledger
	cfg config.NetworkConfig

	// engs[i] is the engine owning node i's ports; lanes[i] its event lane.
	// Default: every node on the construction engine, lane 0 (a bare
	// fabric, as unit rigs build it). SetSharding installs the cluster's
	// layout.
	engs  []*sim.Engine
	lanes []uint32
	sh    *sim.Sharded

	egress  []port // per-source injection stage
	ingress []port // per-destination switch output stage

	// pktFree[i] recycles packet objects for node i. A packet is drawn
	// from its source's list in Send and returned to whichever node's
	// engine retires it (destination on delivery, source on drop), so
	// each list is only ever touched by its owner's engine.
	pktFree [][]*packet
}

// NewFabric creates a fabric with n nodes. Handlers must be bound with
// Bind before traffic reaches a node.
func NewFabric(eng *sim.Engine, cfg config.NetworkConfig, n int) *Fabric {
	if n <= 0 {
		panic("network: fabric needs at least one node")
	}
	f := &Fabric{
		ledger:  newLedger(n),
		cfg:     cfg,
		engs:    make([]*sim.Engine, n),
		lanes:   make([]uint32, n),
		egress:  make([]port, n),
		ingress: make([]port, n),
		pktFree: make([][]*packet, n),
	}
	for i := 0; i < n; i++ {
		i := i
		f.engs[i] = eng
		f.egress[i].done = func() { f.egressDone(i) }
		f.ingress[i].done = func() { f.ingressDone(i) }
	}
	return f
}

// newPacket draws a recycled packet from node owner's free list (or
// allocates one, binding its hop callbacks exactly once).
func (f *Fabric) newPacket(owner int) *packet {
	fl := f.pktFree[owner]
	if n := len(fl); n > 0 {
		p := fl[n-1]
		fl[n-1] = nil
		f.pktFree[owner] = fl[:n-1]
		return p
	}
	p := &packet{}
	p.arrive = func() {
		f.ingress[p.dst].push(p)
		if f.ingress[p.dst].cur == nil {
			f.ingressStart(p.dst)
		}
	}
	p.deliver = func() { f.deliverPacket(p) }
	return p
}

// freePacket returns a retired packet to node owner's free list. The
// caller must hold the only remaining reference.
func (f *Fabric) freePacket(owner int, p *packet) {
	p.msg = nil
	f.pktFree[owner] = append(f.pktFree[owner], p)
}

// Lookahead returns the minimum cross-node interaction latency of the
// active topology under cfg — the smallest per-hop flight any packet pays
// between two nodes' engines. On the star that is the single switch
// flight (link propagation + switch traversal); on the fat-tree the final
// ingress hop pays propagation only, so the window must shrink to
// LinkLatency alone. Degradation and jitter only stretch a hop
// (DelayFactor ≥ 1, Delay ≥ 0), so this bounds the conservative
// synchronization window of a sharded run from below.
func Lookahead(cfg config.NetworkConfig) sim.Time {
	if cfg.Topology == config.TopologyFatTree {
		return cfg.LinkLatency
	}
	return cfg.LinkLatency + cfg.SwitchLatency
}

// SetSharding partitions the fabric's nodes across a sharded engine group:
// engOf[i] is the engine owning node i and laneOf[i] its event lane. Must be
// called before any traffic. The group's lookahead must not exceed
// Lookahead(cfg) or cross-shard flights would violate the window invariant.
func (f *Fabric) SetSharding(sh *sim.Sharded, engOf []*sim.Engine, laneOf []uint32) {
	if len(engOf) != len(f.handlers) || len(laneOf) != len(f.handlers) {
		panic("network: sharding tables must cover every node")
	}
	if sh.Lookahead() > Lookahead(f.cfg) {
		panic(fmt.Sprintf("network: shard lookahead %v exceeds minimum flight %v", sh.Lookahead(), Lookahead(f.cfg)))
	}
	f.sh = sh
	copy(f.engs, engOf)
	copy(f.lanes, laneOf)
}

// Send injects a message. It is asynchronous: the call returns immediately
// and delivery happens via the destination handler.
func (f *Fabric) Send(m *Message) {
	src := int(m.Src)
	f.admit(m)
	m.SentAt = f.engs[src].Now()
	remaining := m.Size
	for {
		chunk := remaining
		if chunk > f.cfg.MTUBytes {
			chunk = f.cfg.MTUBytes
		}
		remaining -= chunk
		pkt := f.newPacket(src)
		pkt.msg, pkt.bytes, pkt.last, pkt.dst = m, chunk, remaining == 0, int(m.Dst)
		f.egress[src].push(pkt)
		if remaining == 0 {
			break
		}
	}
	if f.egress[src].cur == nil {
		f.egressStart(src)
	}
}

// egressStart puts the next queued packet on the source link. The
// completion event fires when its last byte has serialized. It is always
// called from the source node's context, so the event inherits its lane.
func (f *Fabric) egressStart(portID int) {
	pq := &f.egress[portID]
	pq.cur = pq.pop()
	f.engs[portID].After(sim.BytesAtGbps(pq.cur.bytes, f.cfg.BandwidthGbps), pq.done)
}

// egressDone finishes one packet's source-port serialization and, past the
// fault point, launches it toward the switch.
func (f *Fabric) egressDone(portID int) {
	pq := &f.egress[portID]
	pkt := pq.cur
	pq.cur = nil
	se := f.engs[portID]
	flight, dropped := f.faultPoint(se.Now(), pkt.msg, f.cfg.LinkLatency+f.cfg.SwitchLatency)
	if dropped {
		f.freePacket(portID, pkt)
	} else {
		// Propagation to the switch plus switch traversal, then enqueue on
		// the destination port. Flight time is pure delay (pipelined), so
		// model it with a scheduled event rather than occupying the port.
		// The flight is the src→dst handoff: it executes on the destination
		// node's engine under its lane, either directly (same engine) or as
		// window mail (flight ≥ lookahead by construction, see Lookahead).
		if de := f.engs[pkt.dst]; de == se {
			se.AfterLane(flight, f.lanes[pkt.dst], pkt.arrive)
		} else {
			f.sh.SendMail(se, de, flight, f.lanes[pkt.dst], "", pkt.arrive)
		}
	}
	if !pq.empty() {
		f.egressStart(portID)
	}
}

// ingressStart puts the next queued packet on the destination link. It runs
// on the destination node's engine (kicked by the flight arrival or a prior
// ingressDone, both destination-side events).
func (f *Fabric) ingressStart(portID int) {
	pq := &f.ingress[portID]
	pq.cur = pq.pop()
	f.engs[portID].After(sim.BytesAtGbps(pq.cur.bytes, f.cfg.BandwidthGbps), pq.done)
}

// ingressDone finishes one packet's destination-port serialization and,
// after the destination link propagation, delivers completed messages to
// the bound handler.
func (f *Fabric) ingressDone(portID int) {
	pq := &f.ingress[portID]
	pktDone := pq.cur
	pq.cur = nil
	f.engs[portID].After(f.cfg.LinkLatency, pktDone.deliver)
	if !pq.empty() {
		f.ingressStart(portID)
	}
}

// deliverPacket lands one packet at its destination after the final link
// propagation. The packet is recycled before the handler runs (the handler
// may immediately reuse it for a reply).
func (f *Fabric) deliverPacket(pkt *packet) {
	dst := pkt.dst
	m, bytes, last := pkt.msg, pkt.bytes, pkt.last
	f.freePacket(dst, pkt)
	f.deliver(m, bytes, last, f.engs[dst].Now())
}
