// Reliable delivery (go-back-on-loss with selective buffering): every
// outbound data frame between a (src, dst) NIC pair carries a sequence
// number; the receiver delivers strictly in order, buffering out-of-order
// arrivals, and acknowledges cumulatively. The sender keeps a sliding
// window of unacknowledged frames, retransmitting on per-frame timeouts
// with exponential backoff and NACK-triggered fast retransmit for frames
// that arrive corrupt. A configurable retry budget bounds recovery: when
// it is exhausted the peer is declared dead and registered callbacks fire,
// letting upper layers degrade gracefully instead of hanging.
//
// Everything runs in simulated time on the single-threaded engine, so the
// protocol needs no locking and — with a seeded fault injector — replays
// bit-for-bit. All bookkeeping iterates explicit sequence ranges, never Go
// maps, to keep event order deterministic.
package nic

import (
	"repro/internal/config"
	"repro/internal/network"
	"repro/internal/sim"
)

// relEnvelope wraps one data frame with its per-(src,dst) sequence number.
// sess is the channel session: HealPeer starts a fresh session so sequence
// spaces restart after a partition heals without a node-incarnation bump.
// sentAt is the NIC hardware timestamp of this transmission, echoed by the
// receiver's ACK so RTT samples are never retransmission-ambiguous.
type relEnvelope struct {
	seq    uint64
	sess   uint64
	sentAt sim.Time
	meta   *wireMeta
}

// relAck is the unreliable control frame. cum acknowledges all sequence
// numbers ≤ cum; saw, when nonzero, reports an out-of-order frame held in
// the receiver's buffer (suppressing its retransmit timer); nack requests
// an immediate retransmit of nackSeq (corrupt arrival). sess names the
// receiver's current session — the sender ignores ACKs from older sessions.
// echoTS, when nonzero, echoes the sentAt timestamp of the frame that
// provoked this ACK (the RTT measurement channel). ecn echoes the
// congestion-experienced mark a fat-tree switch set on the provoking data
// frame, feeding the sender's ECN backoff.
type relAck struct {
	cum     uint64
	saw     uint64
	sess    uint64
	echoTS  sim.Time
	nack    bool
	nackSeq uint64
	ecn     bool
}

// relAckBytes is the modeled wire size of an ACK/NACK control frame.
const relAckBytes = 16

// relEntry is one unacknowledged outbound frame.
type relEntry struct {
	seq      uint64
	kind     string
	size     int64
	meta     *wireMeta
	attempts int
	timer    sim.Event
}

// relChan is the sender-side state toward one destination.
type relChan struct {
	dst      network.NodeID
	sess     uint64 // channel session (bumped by HealPeer)
	nextSeq  uint64 // last assigned sequence number
	base     uint64 // highest cumulatively acknowledged sequence number
	inflight map[uint64]*relEntry
	pending  []*relEntry // assigned a seq, waiting for window space
	dead     bool
	// deadInfo records when and why the peer was declared dead, so
	// NeighborFailedError and the fencing stats can distinguish an explicit
	// crash from retry-budget exhaustion (congestion/loss).
	deadInfo PeerDeadInfo
	// Jacobson/Karels RTT estimator state, fed by ACK timestamp echoes.
	// srtt == 0 means "no sample yet". Pure bookkeeping: it changes no
	// events unless Reliability.AdaptiveRTO arms the adaptive timeout.
	srtt   sim.Time
	rttvar sim.Time
	// health is the link-health EWMA in [0, 1]: 1 = clean, pulled toward 0
	// by retransmits and inflated RTT samples, toward 1 by clean exchanges.
	health float64
	// ecnBackoff is the multiplicative RTO stretch driven by echoed ECN
	// marks: 0 = no congestion seen (no stretch), otherwise doubles per
	// marked ACK up to ecnBackoffCap and halves back toward 0 on unmarked
	// ACKs. Only a congested fat-tree fabric ever sets marks, so every
	// other topology keeps this at 0 and its traces unchanged.
	ecnBackoff int
}

// ecnBackoffCap bounds the ECN-driven RTO stretch multiplier.
const ecnBackoffCap = 8

// relRecv is the receiver-side state from one source.
type relRecv struct {
	sess     uint64 // adopted sender session (highest seen)
	expected uint64 // next in-order sequence number
	buf      map[uint64]*bufFrame
	// struck records sequence numbers that already cost the sender an SDC
	// strike in this session, so a retransmission of the same frame — even
	// one still carrying a stale checksum — can never double-count.
	struck map[uint64]bool
}

type bufFrame struct {
	m    *network.Message
	meta *wireMeta
}

// reliability is one NIC's reliable-delivery engine.
type reliability struct {
	n     *NIC
	cfg   config.ReliabilityConfig
	chans map[network.NodeID]*relChan
	recvs map[network.NodeID]*relRecv
	// sessTo outlives channel teardown: HealPeer drops a dead channel and
	// bumps the session here, so the rebuilt channel opens a space the
	// receiver has never seen and adopts lazily.
	sessTo     map[network.NodeID]uint64
	onPeerDead []func(peer network.NodeID)
}

func newReliability(n *NIC, cfg config.ReliabilityConfig) *reliability {
	return &reliability{
		n:      n,
		cfg:    cfg,
		chans:  make(map[network.NodeID]*relChan),
		recvs:  make(map[network.NodeID]*relRecv),
		sessTo: make(map[network.NodeID]uint64),
	}
}

func (r *reliability) chanTo(dst network.NodeID) *relChan {
	ch := r.chans[dst]
	if ch == nil {
		ch = &relChan{dst: dst, sess: r.sessTo[dst], health: 1, inflight: make(map[uint64]*relEntry)}
		r.chans[dst] = ch
	}
	return ch
}

func (r *reliability) recvFrom(src network.NodeID) *relRecv {
	rc := r.recvs[src]
	if rc == nil {
		rc = &relRecv{expected: 1, buf: make(map[uint64]*bufFrame), struck: make(map[uint64]bool)}
		r.recvs[src] = rc
	}
	return rc
}

// PeerDead reports whether the reliability layer has given up on a peer.
func (n *NIC) PeerDead(peer network.NodeID) bool {
	if n.rel == nil {
		return false
	}
	ch := n.rel.chans[peer]
	return ch != nil && ch.dead
}

// send assigns the next sequence number toward m.Dst and transmits the
// frame if the window has room, otherwise queues it.
func (r *reliability) send(m *network.Message) {
	meta, ok := m.Payload.(*wireMeta)
	if !ok {
		// Non-data payloads (epoch announcements) bypass reliability.
		r.n.emit(m)
		return
	}
	if r.n.unreliableMatch(meta.matchBits) {
		// Unreliable-datagram class (heartbeats): best-effort, never queued
		// behind a window and never absorbed by a dead-channel verdict —
		// they must keep flowing so a healed partition can be observed.
		r.n.emit(m)
		return
	}
	ch := r.chanTo(m.Dst)
	if ch.dead {
		r.n.stats.SendsToDeadPeer++
		return
	}
	ch.nextSeq++
	e := &relEntry{seq: ch.nextSeq, kind: m.Kind, size: m.Size, meta: meta}
	if len(ch.inflight) < r.cfg.WindowSize {
		r.transmit(ch, e)
	} else {
		ch.pending = append(ch.pending, e)
	}
}

// defaultMinRTO floors the adaptive timeout when MinRTO is unset, so a
// string of identical RTT samples cannot land the timer exactly on the
// ACK's arrival instant.
const defaultMinRTO = 1 * sim.Microsecond

// rto computes the retransmission timeout for a frame of the given size on
// its k-th attempt (1-based). The static formula is a base plus a size-
// proportional term; with AdaptiveRTO armed and at least one RTT sample,
// the base becomes the Jacobson/Karels estimate srtt + srtt/8 + 4*rttvar
// (the srtt/8 guard keeps the timer off the expected ACK instant when
// rttvar has converged to zero), floored at MinRTO. Either way the result
// doubles per prior attempt, capped at MaxBackoff.
func (r *reliability) rto(ch *relChan, size int64, attempts int) sim.Time {
	var t sim.Time
	if r.cfg.AdaptiveRTO && ch.srtt > 0 {
		t = ch.srtt + ch.srtt/8 + 4*ch.rttvar + r.cfg.RTOPerKB*sim.Time(size/1024+1)
		min := r.cfg.MinRTO
		if min <= 0 {
			min = defaultMinRTO
		}
		if t < min {
			t = min
		}
	} else {
		t = r.cfg.RTOBase + r.cfg.RTOPerKB*sim.Time(size/1024+1)
	}
	if ch.ecnBackoff > 0 {
		// Congestion-experienced marks echoed by the peer: stretch the
		// timeout multiplicatively so retransmissions back off before the
		// retry budget burns down on a merely-congested (not lossy) path.
		t *= sim.Time(ch.ecnBackoff)
	}
	for i := 1; i < attempts; i++ {
		t *= 2
		if t >= r.cfg.MaxBackoff {
			break
		}
	}
	if t > r.cfg.MaxBackoff {
		t = r.cfg.MaxBackoff
	}
	return t
}

// sampleRTT feeds one timestamp-echo RTT measurement into the channel's
// Jacobson/Karels estimator and the link-health EWMA. Estimator state is
// pure bookkeeping — it never schedules events — so maintaining it
// unconditionally keeps traces identical while AdaptiveRTO is off.
func (r *reliability) sampleRTT(ch *relChan, rtt sim.Time) {
	if rtt <= 0 {
		return
	}
	r.n.stats.RTTSamples++
	inflated := ch.srtt > 0 && rtt > 2*ch.srtt
	if ch.srtt == 0 {
		ch.srtt = rtt
		ch.rttvar = rtt / 2
	} else {
		diff := rtt - ch.srtt
		if diff < 0 {
			diff = -diff
		}
		ch.rttvar += (diff - ch.rttvar) / 4
		ch.srtt += (rtt - ch.srtt) / 8
	}
	if inflated {
		r.noteLink(ch, 0.5)
	} else {
		r.noteLink(ch, 1)
	}
}

// noteLink folds one link observation into the health EWMA: 1 for a clean
// exchange, 0.5 for an inflated RTT sample, 0 for a retransmission.
func (r *reliability) noteLink(ch *relChan, good float64) {
	ch.health += (good - ch.health) / 8
}

// transmit puts a frame on the wire and arms its retransmit timer.
func (r *reliability) transmit(ch *relChan, e *relEntry) {
	ch.inflight[e.seq] = e
	e.attempts++
	if e.attempts > 1 {
		// A retransmission re-reads the send buffer, so it carries a
		// freshly computed end-to-end checksum (on a copied wireMeta: the
		// pointer of earlier transmissions is shared with the wire). A
		// frame NACKed for silent wire corruption goes out clean; one
		// whose source buffer corrupted goes out self-consistent — which
		// is exactly what verified collectives exist to catch. A body the
		// NIC checksummed itself must not have changed since: its buffer
		// belongs to the frame until the frame is acknowledged.
		fresh := e2eRefresh(e.meta)
		if e.meta.e2eBody && fresh.e2eSum != e.meta.e2eSum {
			r.n.au.ResendChanged(r.n.eng.Now(), int(r.n.id), int(ch.dst), e.seq)
		}
		e.meta = fresh
	}
	r.n.emit(&network.Message{
		Src:     r.n.id,
		Dst:     ch.dst,
		Size:    e.size,
		Kind:    e.kind,
		Payload: &relEnvelope{seq: e.seq, sess: ch.sess, sentAt: r.n.eng.Now(), meta: e.meta},
	})
	seq := e.seq
	e.timer = r.n.eng.After(r.rto(ch, e.size, e.attempts), func() {
		r.onTimeout(ch, seq)
	})
}

// onTimeout handles a retransmit-timer expiry for one frame.
func (r *reliability) onTimeout(ch *relChan, seq uint64) {
	e := ch.inflight[seq]
	if e == nil || ch.dead {
		return // acknowledged (or channel abandoned) before the timer fired
	}
	if e.attempts >= r.cfg.RetryBudget {
		r.declareDead(ch, PeerDeadRetries)
		return
	}
	r.n.stats.Retransmits++
	r.noteLink(ch, 0)
	r.transmit(ch, e)
}

// onAck processes an inbound ACK/NACK from peer src.
func (r *reliability) onAck(src network.NodeID, a *relAck) {
	ch := r.chans[src]
	if ch == nil || ch.dead {
		return
	}
	if a.sess != ch.sess {
		// An ACK from a previous channel session (late arrival across a
		// heal, or the receiver has not adopted the new session yet): it
		// describes a sequence space this channel no longer uses.
		r.n.stats.StaleSessionDrops++
		return
	}
	if a.echoTS > 0 {
		r.sampleRTT(ch, r.n.eng.Now()-a.echoTS)
	}
	if a.ecn {
		// The path is congested, not broken: widen the RTO stretch.
		if ch.ecnBackoff == 0 {
			ch.ecnBackoff = 2
		} else if ch.ecnBackoff < ecnBackoffCap {
			ch.ecnBackoff *= 2
		}
		r.n.stats.ECNBackoffs++
	} else if ch.ecnBackoff > 0 {
		// Unmarked ACK: decay the stretch back toward nothing.
		ch.ecnBackoff /= 2
		if ch.ecnBackoff < 2 {
			ch.ecnBackoff = 0
		}
	}
	if a.nack {
		if e := ch.inflight[a.nackSeq]; e != nil {
			e.timer.Cancel()
			if e.attempts >= r.cfg.RetryBudget {
				r.declareDead(ch, PeerDeadRetries)
				return
			}
			r.n.stats.Retransmits++
			r.noteLink(ch, 0)
			r.transmit(ch, e)
		}
		return
	}
	if a.saw > a.cum {
		// The peer holds this frame out of order: disarm its timer. If the
		// later cumulative ACK is lost, a duplicate of the gap frame will
		// provoke a fresh cumulative ACK, so progress is still guaranteed.
		if e := ch.inflight[a.saw]; e != nil {
			e.timer.Cancel()
			e.timer = sim.Event{}
		}
	}
	if a.cum > ch.base {
		for s := ch.base + 1; s <= a.cum; s++ {
			if e := ch.inflight[s]; e != nil {
				e.timer.Cancel()
				delete(ch.inflight, s)
			}
		}
		ch.base = a.cum
		// Window slid open: launch queued frames in order.
		for len(ch.pending) > 0 && len(ch.inflight) < r.cfg.WindowSize {
			e := ch.pending[0]
			ch.pending = ch.pending[1:]
			r.transmit(ch, e)
		}
	}
}

// onData processes an inbound sequenced data frame.
func (r *reliability) onData(m *network.Message, env *relEnvelope) {
	rc := r.recvFrom(m.Src)
	if m.ECN {
		// A congested fat-tree port marked this frame in flight. The mark is
		// fabric metadata (set by a switch, not carried in the payload), so
		// it survives corruption and is echoed on every ACK shape below.
		r.n.stats.ECNMarksSeen++
	}
	if m.Corrupted {
		// A corrupt frame's header fields are untrusted: NACK it under the
		// current session without adopting anything from it.
		r.n.stats.NacksSent++
		r.sendAck(m.Src, &relAck{cum: rc.expected - 1, sess: rc.sess, nack: true, nackSeq: env.seq, ecn: m.ECN})
		return
	}
	if env.sess != rc.sess {
		if env.sess < rc.sess {
			// Leftover of a pre-heal session still in flight: its sequence
			// numbers belong to an abandoned space.
			r.n.stats.StaleSessionDrops++
			return
		}
		// The sender healed this channel and opened a fresh session:
		// adopt it and restart the in-order space.
		rc.sess = env.sess
		rc.expected = 1
		rc.buf = make(map[uint64]*bufFrame)
		rc.struck = make(map[uint64]bool)
		r.n.stats.SessionResets++
	}
	// Materialize silent wire corruption (the link CRC passed, so the
	// flipped bits are application data now) and verify the end-to-end
	// payload checksum before the frame can be delivered or buffered.
	meta := env.meta
	if m.SilentCorrupt {
		meta = e2eMaterialize(meta)
		m.SilentCorrupt = false
	}
	if env.seq >= rc.expected && r.n.e2eFails(meta) {
		// The link accepted this frame but the payload sum is wrong: the
		// corruption happened end-to-end (sender buffer, DMA, or silent
		// wire flips). NACK it for retransmission and indict the sender —
		// once per (session, sequence), so the retransmission of the same
		// frame can never count as a second strike.
		r.n.noteE2EFail()
		if !rc.struck[env.seq] {
			rc.struck[env.seq] = true
			r.n.addStrike(m.Src)
		}
		r.n.stats.NacksSent++
		r.sendAck(m.Src, &relAck{cum: rc.expected - 1, sess: rc.sess, nack: true, nackSeq: env.seq, ecn: m.ECN})
		return
	}
	switch {
	case env.seq < rc.expected:
		// Duplicate of an already-delivered frame (a lost ACK made the
		// sender retransmit): drop it and refresh the cumulative ACK.
		r.n.stats.DupesDropped++
		r.sendAck(m.Src, &relAck{cum: rc.expected - 1, sess: rc.sess, echoTS: env.sentAt, ecn: m.ECN})
	case env.seq == rc.expected:
		r.n.dispatch(m, meta)
		rc.expected++
		// Drain any contiguously buffered successors.
		for {
			bf := rc.buf[rc.expected]
			if bf == nil {
				break
			}
			delete(rc.buf, rc.expected)
			r.n.dispatch(bf.m, bf.meta)
			rc.expected++
		}
		r.sendAck(m.Src, &relAck{cum: rc.expected - 1, sess: rc.sess, echoTS: env.sentAt, ecn: m.ECN})
	default: // out of order: hold it, report the gap
		if rc.buf[env.seq] == nil {
			rc.buf[env.seq] = &bufFrame{m: m, meta: meta}
		} else {
			r.n.stats.DupesDropped++
		}
		r.sendAck(m.Src, &relAck{cum: rc.expected - 1, sess: rc.sess, saw: env.seq, echoTS: env.sentAt, ecn: m.ECN})
	}
}

// sendAck emits an unreliable control frame back to the peer.
func (r *reliability) sendAck(dst network.NodeID, a *relAck) {
	if !a.nack {
		r.n.stats.AcksSent++
	}
	if a.ecn {
		r.n.stats.ECNEchoed++
	}
	r.n.emit(&network.Message{
		Src:     r.n.id,
		Dst:     dst,
		Size:    relAckBytes,
		Kind:    "rel_ack",
		Payload: a,
	})
}

// declareDead abandons a peer — because the retry budget is exhausted or
// because an explicit crash was reported — recording when and why. All
// timers are disarmed, queued frames are discarded, and upper layers are
// notified so they can route around the failure.
func (r *reliability) declareDead(ch *relChan, reason PeerDeadReason) {
	ch.dead = true
	ch.health = 0
	ch.deadInfo = PeerDeadInfo{At: r.n.eng.Now(), Reason: reason}
	r.n.stats.PeersDeclaredDead++
	switch reason {
	case PeerDeadCrash:
		r.n.stats.PeersDeclaredCrashed++
	case PeerDeadPartition:
		r.n.stats.PeersDeclaredPartitioned++
	case PeerDeadCorrupt:
		r.n.stats.PeersDeclaredCorrupt++
	}
	for s := ch.base + 1; s <= ch.nextSeq; s++ {
		if e := ch.inflight[s]; e != nil {
			e.timer.Cancel()
			delete(ch.inflight, s)
		}
	}
	ch.pending = nil
	for _, fn := range r.onPeerDead {
		fn(ch.dst)
	}
}

// resetPeer forgets all state toward and from one peer: the receiver
// adopted a newer incarnation epoch, so sequence numbers restart from
// scratch and a dead verdict against the previous incarnation is void.
// Fresh state is rebuilt lazily on the next send/receive.
func (r *reliability) resetPeer(peer network.NodeID) {
	if ch := r.chans[peer]; ch != nil {
		for s := ch.base + 1; s <= ch.nextSeq; s++ {
			if e := ch.inflight[s]; e != nil {
				e.timer.Cancel()
				delete(ch.inflight, s)
			}
		}
		delete(r.chans, peer)
	}
	delete(r.recvs, peer)
}

// heal clears a dead verdict against a peer after a partition (or a false
// suspicion) ends: the dead channel is dropped and the next send opens a
// fresh session, whose higher session number the receiver adopts lazily —
// no incarnation bump, no epoch announcement, no receiver coordination.
// A live channel is left untouched (nothing to heal).
func (r *reliability) heal(peer network.NodeID) {
	ch := r.chans[peer]
	if ch == nil || !ch.dead {
		return
	}
	r.sessTo[peer] = ch.sess + 1
	delete(r.chans, peer)
	r.n.stats.PeersHealed++
}

// cancelAllTimers disarms every retransmit timer (crash teardown). Map
// iteration order is irrelevant here: cancellation is lazy bookkeeping and
// schedules no events.
func (r *reliability) cancelAllTimers() {
	for _, ch := range r.chans {
		for s := ch.base + 1; s <= ch.nextSeq; s++ {
			if e := ch.inflight[s]; e != nil {
				e.timer.Cancel()
			}
		}
	}
}
