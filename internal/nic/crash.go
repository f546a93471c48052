// Crash-stop/restart support and incarnation-epoch fencing.
//
// A crashed node loses all NIC state: the trigger list (including
// relaxed-sync placeholders), exposed regions, the command queue, and the
// reliable-delivery layer. A restart is cold: the NIC comes back empty
// under a new incarnation epoch. Every outbound frame is stamped with the
// sender's incarnation (SrcEpoch) and the sender's view of the receiver's
// incarnation (DstEpoch); the receiver fences frames from a dead
// incarnation of the peer and frames addressed to a previous life of its
// own, so retransmits, triggered fires, and placeholders staged before a
// crash can never corrupt the restarted node. All fencing is integer
// comparison on the single-threaded engine — with no crash scheduled every
// epoch stays at 1 and the event trace is bit-for-bit the crash-free one.
package nic

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/sim"
)

// epochAnnounce is the control frame a restarted NIC sends to every peer:
// its SrcEpoch advertises the new incarnation so peers adopt it (resetting
// their per-peer reliability state) without waiting for data traffic.
type epochAnnounce struct{}

// epochAnnounceBytes is the modeled wire size of an epoch announcement.
const epochAnnounceBytes = 16

// PeerDeadReason records why the reliability layer gave up on a peer.
type PeerDeadReason int

const (
	// PeerDeadRetries means the retry budget was exhausted — loss or
	// congestion, with no evidence the peer actually died.
	PeerDeadRetries PeerDeadReason = iota
	// PeerDeadCrash means an explicit crash report (link-down propagated by
	// the cluster when the peer's node crashed).
	PeerDeadCrash
	// PeerDeadPartition means the membership layer diagnosed a network
	// partition: the peer is alive but unreachable. Unlike a crash the
	// verdict is revocable — HealPeer clears it when the cut heals.
	PeerDeadPartition
	// PeerDeadCorrupt means the membership layer quarantined the peer for
	// producing corrupt data (accumulated SDC strikes): the peer is alive
	// and reachable, but its output cannot be trusted. The verdict is
	// permanent — unlike a partition, a flaky core does not heal.
	PeerDeadCorrupt
)

func (r PeerDeadReason) String() string {
	switch r {
	case PeerDeadRetries:
		return "retry budget exhausted"
	case PeerDeadCrash:
		return "peer crashed"
	case PeerDeadPartition:
		return "peer partitioned"
	case PeerDeadCorrupt:
		return "peer quarantined (corrupt data)"
	default:
		return fmt.Sprintf("PeerDeadReason(%d)", int(r))
	}
}

// PeerDeadInfo records when and why a peer was declared dead.
type PeerDeadInfo struct {
	At     sim.Time
	Reason PeerDeadReason
}

// PeerDeadDetail returns the recorded declaration details for a dead peer.
// ok is false when the peer was never declared dead (or reliability is off).
func (n *NIC) PeerDeadDetail(peer network.NodeID) (PeerDeadInfo, bool) {
	if n.rel == nil {
		return PeerDeadInfo{}, false
	}
	ch := n.rel.chans[peer]
	if ch == nil || !ch.dead {
		return PeerDeadInfo{}, false
	}
	return ch.deadInfo, true
}

// Down reports whether the NIC is crashed and not yet restarted.
func (n *NIC) Down() bool { return n.down }

// Incarnation returns the NIC's current incarnation epoch (1 until the
// first restart).
func (n *NIC) Incarnation() int64 { return n.inc }

// DownSince returns the time of the NIC's crash; meaningful only while
// Down() is true.
func (n *NIC) DownSince() sim.Time { return n.downAt }

// emit stamps the incarnation epochs onto an outbound frame and injects it
// into the fabric. Every NIC-originated fabric send goes through here.
func (n *NIC) emit(m *network.Message) {
	m.SrcEpoch = n.inc
	m.DstEpoch = n.peerEpochOf(m.Dst)
	n.fabric.Send(m)
}

// peerEpochOf returns this NIC's view of a peer's incarnation (1 until an
// epoch adoption says otherwise).
func (n *NIC) peerEpochOf(id network.NodeID) int64 {
	if int(id) < len(n.peerEpoch) && n.peerEpoch[id] != 0 {
		return n.peerEpoch[id]
	}
	return 1
}

func (n *NIC) setPeerEpoch(id network.NodeID, e int64) {
	old := n.peerEpochOf(id)
	for int(id) >= len(n.peerEpoch) {
		n.peerEpoch = append(n.peerEpoch, 0)
	}
	n.peerEpoch[id] = e
	n.au.PeerEpochSet(n.eng.Now(), int(n.id), int(id), old, e)
}

// fenced reports whether work captured under incarnation ep must be
// abandoned: the NIC crashed (down) or restarted (new incarnation) since
// the work was staged.
func (n *NIC) fenced(ep int64) bool { return n.down || n.inc != ep }

// Crash models a node crash-stop at the current instant: the NIC goes down
// and loses the trigger list, relaxed-sync placeholders, exposed regions,
// queued commands, buffered trigger writes, and all reliable-delivery
// state. In-flight work (mid-DMA commands, scheduled completions) is fenced
// by the incarnation check when it lands. Idempotent while down.
func (n *NIC) Crash() {
	if n.down {
		return
	}
	n.catchUp()
	n.crashRuns()
	n.down = true
	n.downAt = n.eng.Now()
	n.stats.Crashes++
	for _, e := range n.entries {
		// The trigger list dies with the incarnation; the auditor forgets
		// each instance so its live-fired set stays bounded.
		n.au.TriggerRetired(int(n.id), e.regSeq)
	}
	n.entries = nil
	n.regions = nil
	for {
		if _, ok := n.trigFIFO.TryPop(); !ok {
			break
		}
	}
	for {
		if _, ok := n.cmdQ.TryPop(); !ok {
			break
		}
	}
	n.cmdPending = nil
	if n.rel != nil {
		n.rel.cancelAllTimers()
		// Fresh maps: sequence numbers, windows, and peer-dead verdicts all
		// die with the incarnation.
		n.rel = newReliability(n, n.cfg.Reliability)
	}
	n.markArm()
}

// Restart brings a crashed NIC back cold under a new incarnation epoch and
// announces the new epoch to the fabric is the node layer's job (it knows
// the peer set); see AnnounceEpoch.
func (n *NIC) Restart() {
	if !n.down {
		return
	}
	n.down = false
	n.inc++
	n.stats.Restarts++
	n.au.Incarnated(n.eng.Now(), int(n.id), n.inc-1, n.inc)
	if n.cfg.Reliability.Enabled {
		// Cold state; OnPeerDead callbacks from the previous life are gone
		// with the processes that registered them.
		n.rel = newReliability(n, n.cfg.Reliability)
	}
}

// AnnounceEpoch emits a small control frame advertising this NIC's
// incarnation to one peer. Receivers adopt the epoch and reset their
// per-peer reliability state toward this node, so retransmits staged
// against the dead incarnation stop immediately instead of burning their
// retry budget.
func (n *NIC) AnnounceEpoch(peer network.NodeID) {
	if peer == n.id {
		return
	}
	n.emit(&network.Message{
		Src:     n.id,
		Dst:     peer,
		Size:    epochAnnounceBytes,
		Kind:    "epoch",
		Payload: &epochAnnounce{},
	})
}

// MarkPeerCrashed records an explicit crash report for a peer (link-down
// propagated by the cluster): the peer is declared dead immediately with
// reason PeerDeadCrash, firing OnPeerDead callbacks, instead of waiting for
// the retry budget to burn down. No-op without reliability or when the
// peer is already dead.
func (n *NIC) MarkPeerCrashed(peer network.NodeID) {
	if n.rel == nil || n.down || peer == n.id {
		return
	}
	ch := n.rel.chanTo(peer)
	if ch.dead {
		return
	}
	n.rel.declareDead(ch, PeerDeadCrash)
}

// MarkPeerPartitioned records a partition diagnosis for a peer: the peer is
// declared dead with reason PeerDeadPartition so pending traffic is
// withdrawn and upper layers route around it, but — unlike a crash — the
// verdict is designed to be healed (see HealPeer). No-op without
// reliability or when the peer is already dead.
func (n *NIC) MarkPeerPartitioned(peer network.NodeID) {
	if n.rel == nil || n.down || peer == n.id {
		return
	}
	ch := n.rel.chanTo(peer)
	if ch.dead {
		return
	}
	n.rel.declareDead(ch, PeerDeadPartition)
}

// MarkPeerCorrupt records a quarantine verdict for a peer: the membership
// layer accumulated enough SDC strikes to stop trusting the peer's data,
// so the channel is withdrawn with reason PeerDeadCorrupt and upper
// layers recompute without it. Permanent: quarantined peers are never
// healed. No-op without reliability or when the peer is already dead.
func (n *NIC) MarkPeerCorrupt(peer network.NodeID) {
	if n.rel == nil || n.down || peer == n.id {
		return
	}
	ch := n.rel.chanTo(peer)
	if ch.dead {
		return
	}
	n.rel.declareDead(ch, PeerDeadCorrupt)
}

// HealPeer clears a dead verdict against a peer — a healed partition or a
// retracted false suspicion. The channel restarts under a fresh session
// number (no incarnation bump: the node never died), which the receiver
// adopts lazily from the first frame. No-op for live or unknown peers.
func (n *NIC) HealPeer(peer network.NodeID) {
	if n.rel == nil || n.down || peer == n.id {
		return
	}
	n.rel.heal(peer)
}
