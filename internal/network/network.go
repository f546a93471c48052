// Package network models the interconnect: the paper's single-switch star
// (Table 2: 100 ns links, a 100 ns switch, 100 Gb/s ports) and the
// three-tier leaf/spine/core fat-tree, as two shapes of one Fabric.
//
// Messages are segmented into MTU-sized frames. Each frame crosses a chain
// of transmit stages — its source port, then one port per switch on its
// up/down route, then the destination's leaf port — serializing at the
// port rate on each and flying the hop's fixed latency to the next. The
// star is the one-leaf shape: every route is the source port (link plus
// switch latency) followed by the destination port (link latency), which
// serializes destination contention. The fabric preserves frame — and
// therefore message — order per (src, dst) pair and conserves bandwidth on
// every port. fattree.go holds the Fabric — its stages, routes and switch
// failure domains — and ledger.go its per-node counters and fault point.
package network

import (
	"repro/internal/config"
	"repro/internal/sim"
)

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

// Lookahead returns the minimum cross-node interaction latency of the
// active topology under cfg — the smallest per-hop flight any frame pays
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
