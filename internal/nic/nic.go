// Package nic models an RDMA network interface in the style the paper
// assumes: command queues rung by doorbells, DMA engines, one-sided put/get
// with match-bits-addressed target regions, counting events — plus the
// paper's contribution, the GPU-TN trigger-list hardware extension (§3).
//
// The trigger list holds entries of {network operation, tag, counter,
// threshold}. Memory-mapped writes of a tag land in a FIFO; the NIC matches
// each write against the list, increments the entry's counter, and launches
// the pre-staged operation when the counter reaches the threshold. The
// relaxed synchronization model (§3.2) lets tag writes arrive before the
// host registers the operation: the NIC allocates a placeholder entry and,
// if the counter has already met the threshold by registration time, fires
// immediately.
package nic

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/sim"
)

// OpKind enumerates NIC command types.
type OpKind int

const (
	// OpPut writes a local buffer into a match-bits-addressed region on
	// the target node (one-sided).
	OpPut OpKind = iota
	// OpGet reads a match-bits-addressed region on the target node into a
	// local buffer (one-sided).
	OpGet
)

func (k OpKind) String() string {
	switch k {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Command is a fully staged network operation: everything the NIC needs to
// execute the transfer without further host involvement.
type Command struct {
	Kind      OpKind
	Target    network.NodeID
	MatchBits uint64 // addresses the remote region
	Size      int64  // payload bytes
	Data      any    // opaque payload forwarded to the target region
	// LocalCompletion, when non-nil, is incremented once the local buffer
	// is reusable (put: after DMA read; get: after the reply
	// lands) — the GPU-visible completion hook of §4.2.4.
	LocalCompletion *sim.Counter
	// OnLocalComplete, when non-nil, runs at local completion time.
	OnLocalComplete func()
}

// Deferred is a payload resolved at DMA time rather than at command
// construction time. Real NICs read the send buffer when the operation
// executes, not when it is posted; pre-posted GDS commands and GPU-TN
// trigger entries rely on this to transmit values the GPU produced after
// registration.
type Deferred func() any

// Delivery describes an inbound operation handed to a target region.
type Delivery struct {
	// Kind is the operation that hit the region: OpPut for landings,
	// OpGet for served reads.
	Kind      OpKind
	From      network.NodeID
	MatchBits uint64
	Size      int64
	Data      any
	At        sim.Time
}

// Region is a match-bits-exposed landing zone for one-sided operations,
// analogous to a Portals list entry on a priority list. Regions are
// searched in exposure order; the first entry whose (MatchBits,
// IgnoreBits) accepts the inbound operation wins.
type Region struct {
	MatchBits uint64
	// IgnoreBits masks bits out of the match comparison (Portals ME
	// ignore bits); a region with all bits ignored is a wildcard.
	IgnoreBits uint64
	// UseOnce unlinks the region after its first match (PTL_ME_USE_ONCE).
	UseOnce bool
	// Counter, when non-nil, is incremented once per completed delivery —
	// how PGAS-style target-side notification is built (§4.2.5).
	Counter *sim.Counter
	// OnDelivery, when non-nil, observes each delivery after the counter
	// bump (data landing, poll-flag setting, etc.).
	OnDelivery func(d Delivery)
	// ReadBack, when non-nil, serves OpGet requests for this region.
	ReadBack func(size int64) any
}

// accepts reports whether the region matches an inbound operation.
func (r *Region) accepts(matchBits uint64) bool {
	return (r.MatchBits &^ r.IgnoreBits) == (matchBits &^ r.IgnoreBits)
}

// LookupModel abstracts the trigger-list tag-match hardware (§3.3): the
// associative CAM the prototype uses, a hash table, or a linked-list walk.
type LookupModel interface {
	// MatchLatency returns the cost of locating a tag given the current
	// list length and the (0-based) position at which the tag was found
	// (position == listLen means a miss / full scan).
	MatchLatency(listLen, position int) sim.Time
	// Name identifies the model in benchmark output.
	Name() string
}

// AssociativeLookup is the constant-time CAM match the paper's prototype
// adopts for ≤16 simultaneously active entries.
type AssociativeLookup struct{ Latency sim.Time }

// MatchLatency implements LookupModel.
func (a AssociativeLookup) MatchLatency(listLen, position int) sim.Time { return a.Latency }

// Name implements LookupModel.
func (a AssociativeLookup) Name() string { return "associative" }

// HashLookup models a hash-table structure: constant probe cost slightly
// above the CAM, independent of list length.
type HashLookup struct{ Latency sim.Time }

// MatchLatency implements LookupModel.
func (h HashLookup) MatchLatency(listLen, position int) sim.Time { return h.Latency }

// Name implements LookupModel.
func (h HashLookup) Name() string { return "hash" }

// LinkedListLookup models the naive linked-list traversal: cost grows with
// the position of the matching entry.
type LinkedListLookup struct{ PerEntry sim.Time }

// MatchLatency implements LookupModel.
func (l LinkedListLookup) MatchLatency(listLen, position int) sim.Time {
	return sim.Time(position+1) * l.PerEntry
}

// Name implements LookupModel.
func (l LinkedListLookup) Name() string { return "linked-list" }

// DynamicWrite is an extended trigger write carrying optional override
// fields computed on the GPU (§3.4 "GPU-TN and Dynamic Communication"):
// instead of merely writing a tag, the kernel can contribute the target
// node, the transfer size, or the remote match bits. Each present field
// costs the GPU an additional system-scope store; the last write's
// overrides win if several arrive for the same entry.
type DynamicWrite struct {
	Tag uint64

	// An override is present only with its Has flag set; the flags come
	// last so the struct packs without padding (the NIC keeps writes by
	// value).
	Target    network.NodeID
	Size      int64
	MatchBits uint64

	HasTarget, HasSize, HasMatchBits bool
}

// Fields reports how many override fields are present (the GPU-side
// divergence/store cost is proportional to this).
func (w DynamicWrite) Fields() int {
	n := 0
	if w.HasTarget {
		n++
	}
	if w.HasSize {
		n++
	}
	if w.HasMatchBits {
		n++
	}
	return n
}

// triggerEntry is one row of the trigger list (Figure 5).
type triggerEntry struct {
	tag       uint64
	counter   int64
	threshold int64
	op        *Command
	hasOp     bool
	fired     bool
	// regSeq identifies this registration instance for the invariant
	// auditor's trigger-once check: re-registering a consumed entry is a
	// NEW instance (fresh regSeq), so legitimate tag reuse (heartbeats)
	// never trips the exactly-once predicate while a genuine double fire
	// of one instance always does.
	regSeq uint64
	// overrides accumulates dynamic fields from trigger writes (§3.4).
	overrides DynamicWrite
}

// wireMeta travels inside fabric messages.
type wireMeta struct {
	kind      OpKind
	matchBits uint64
	data      any
	// get support
	replyMatch uint64
	reqSize    int64
	// end-to-end payload checksum (e2eHas gates verification so frames
	// from checksum-less sources pass vacuously)
	e2eSum uint32
	e2eHas bool
	// e2eBody is set when e2eSum is the NIC's own CRC of the body as
	// framed, so a retransmission can check the body is unchanged.
	e2eBody bool
}

// Stats aggregates NIC observability counters.
type Stats struct {
	CommandsExecuted  int64
	TriggerWrites     int64
	TriggerFires      int64
	PlaceholdersMade  int64
	ImmediateFires    int64 // fired at registration time (relaxed sync)
	DynamicFires      int64 // fires with GPU-provided overrides (§3.4)
	DeliveredMessages int64
	DroppedTriggers   int64 // trigger FIFO/list overflow (bounded configs only)

	// Bounded-resource counters (all zero with a zero ResourceConfig,
	// except the high-water marks, which are pure observation).
	TriggerListHighWater int64 // peak simultaneously active trigger entries
	PlaceholderHighWater int64 // peak unregistered relaxed-sync placeholders
	CmdQueueHighWater    int64 // peak command-queue backlog
	TrigFIFOHighWater    int64 // peak trigger-FIFO occupancy
	CmdQueueStalls       int64 // PostCommand calls that blocked on a full queue
	CmdDeferred          int64 // non-blocking commands deferred by a full queue
	RegistrationRejects  int64 // RegisterTriggered calls rejected (list full)

	// Reliable-delivery counters (all zero when reliability is off).
	Retransmits       int64 // data frames resent after timeout or NACK
	AcksSent          int64
	NacksSent         int64 // corrupt frames rejected back to the sender
	DupesDropped      int64 // duplicate frames suppressed at the receiver
	CorruptDropped    int64 // corrupt frames discarded (unreliable mode)
	PeersDeclaredDead int64 // peers abandoned after retry-budget exhaustion
	SendsToDeadPeer   int64 // frames discarded because the peer is dead
	LostTriggerWrites int64 // MMIO trigger writes lost by the injector

	// Crash-recovery / incarnation-epoch counters (all zero without a
	// scheduled crash).
	Crashes              int64
	Restarts             int64
	DownDrops            int64 // inbound frames dropped while the NIC was down
	StaleSrcDrops        int64 // frames from a peer's dead incarnation
	StaleDstDrops        int64 // frames addressed to this NIC's previous incarnation
	EpochResets          int64 // per-peer reliability resets on epoch adoption
	FencedCommands       int64 // commands/completions abandoned mid-flight by a crash
	FencedTriggers       int64 // trigger writes/fires fenced by a crash
	FencedDeliveries     int64 // inbound DMA completions fenced by a crash
	PeersDeclaredCrashed int64 // peer-dead declarations caused by an explicit crash report
	CanceledTriggers     int64 // pending entries removed by CancelTriggered
	UnmatchedDrops       int64 // post-restart inbound ops matching no region

	// Partition / gray-failure counters (all zero without partitions,
	// heals, or session churn; tested).
	PeersDeclaredPartitioned int64 // peer-dead declarations diagnosed as partitions
	PeersHealed              int64 // dead verdicts cleared by HealPeer
	SessionResets            int64 // receiver adoptions of a healed channel's fresh session
	StaleSessionDrops        int64 // frames/ACKs from an abandoned channel session
	RTTSamples               int64 // timestamp-echo RTT measurements folded into SRTT/RTTVAR

	// End-to-end integrity counters (all zero without E2EChecksum or SDC
	// injection; tested).
	E2EChecksumFails     int64 // frames whose e2e payload checksum mismatched
	SDCDetected          int64 // deduplicated silent-corruption strikes recorded
	SDCUndetected        int64 // corrupt payloads the NIC delivered unflagged
	PeersDeclaredCorrupt int64 // peer-dead declarations caused by quarantine
	// FirstE2EFailAt stamps the first e2e checksum failure (meaningful
	// only when E2EChecksumFails > 0); the SDC ablation subtracts the
	// injection time to report frame-layer detection latency.
	FirstE2EFailAt sim.Time

	// Fail-slow counters (all zero without a SlowPlan or slow-detection
	// verdicts; tested). The injection side counts slowdowns this NIC
	// suffered; the observability side counts verdicts and hedges this
	// node's health/collective layers recorded.
	SlowCmdStretched  int64 // commands whose parse latency a slow window stretched
	SlowCmdStalls     int64 // commands that additionally drew a stall
	SlowDMAStretched  int64 // DMA transfers stretched by a slow window
	PeersDeclaredSlow int64 // Slow verdicts recorded against peers
	SlowRecoveries    int64 // Slow verdicts lifted after the peer recovered
	HedgedSends       int64 // collective hops re-sent via the hedge path
	// MaxSlowdownSeen is the detector's largest observed slowdown estimate
	// (reciprocal of the lowest progress score a peer reached), ×100 fixed
	// point. 0 = never estimated.
	MaxSlowdownSeen int64

	// ECN congestion-feedback counters (all zero unless a fat-tree port
	// crossed its marking threshold; tested).
	ECNMarksSeen int64 // inbound data frames carrying a congestion mark
	ECNEchoed    int64 // ACK/NACK frames that echoed a mark to the sender
	ECNBackoffs  int64 // sender RTO-stretch increases driven by echoed marks
}

// NIC is one node's network interface.
type NIC struct {
	eng    *sim.Engine
	cfg    config.NICConfig
	id     network.NodeID
	fabric *network.Fabric
	inj    *fault.Injector
	rel    *reliability // nil unless cfg.Reliability.Enabled

	cmdQ     *sim.Queue[*Command]
	trigFIFO *sim.Queue[DynamicWrite]
	// lane is the event lane both hardware pipelines run on.
	lane uint32
	// The command executor runs on plain events (see cmdStep): cmdBusy is
	// set while a step is scheduled or a command is executing, cmdAt names
	// the step the next cmdStep event runs, and cmd, cmdEp, cmdParse and
	// cmdMeta hold the command, the incarnation it was popped under, its
	// priced parse latency and its outbound frame. cmdStepFn is cmdStep,
	// bound once.
	cmdBusy   bool
	cmdAt     cmdStage
	cmd       *Command
	cmdEp     int64
	cmdParse  sim.Time
	cmdMeta   *wireMeta
	cmdStepFn func()
	// The trigger pipeline runs on plain events (see trigStart): trigBusy
	// is set while a trigStart is scheduled or a write is being matched,
	// and trigW/trigEp hold that write and the incarnation it was popped
	// under. trigStartFn and trigDoneFn are the pipeline's two callbacks,
	// bound once.
	trigBusy    bool
	trigW       DynamicWrite
	trigEp      int64
	trigStartFn func()
	trigDoneFn  func()
	// trigFree recycles the in-flight records of MMIO trigger writes.
	trigFree []*trigFlight
	// The counted pipeline (counted.go): runs holds the writes not yet
	// matched and pipeFree the end of the last match; armEv is the armed
	// event (zero when none), born at armBorn, and armDirty marks a rearm
	// queued for the end of the executing event. rearmFn and armFireFn
	// are rearm and armFire, bound once. trigFaults is set when the
	// injector drops or delays trigger writes.
	runs                 []trigRun
	pipeFree             sim.Time
	armEv                sim.Event
	armBorn              sim.Time
	rearmFn              func()
	armFireFn            func()
	armDirty, trigFaults bool
	entries              []*triggerEntry
	regions              []*Region
	lookup               LookupModel

	// Bounded command queue support (Resources.CmdQueueDepth > 0):
	// cmdPending holds deferred commands from non-blocking sources,
	// cmdSlots wakes blocked PostCommand callers when slots free up.
	cmdPending []*Command
	cmdSlots   *sim.Signal

	// ioBusLatency is added to doorbell/trigger MMIO paths for the
	// discrete-GPU ablation; zero in the coherent-APU default.
	ioBusLatency sim.Time

	// replySeq generates unique reply match bits for outstanding gets.
	replySeq uint64

	// Crash-stop state: down marks a crashed-and-not-restarted NIC, inc is
	// the incarnation epoch (1 until the first restart), and peerEpoch is
	// this NIC's view of each peer's incarnation (0 entries read as 1).
	down      bool
	downAt    sim.Time
	inc       int64
	peerEpoch []int64

	// unreliableMB lists match-bits regions whose puts are sent as
	// best-effort datagrams, bypassing the reliability layer (heartbeats).
	// Survives crashes: it is registration metadata, not NIC state.
	unreliableMB []uint64

	// strikes counts deduplicated SDC strikes per sending peer — evidence
	// the membership layer reads to quarantine corrupt ranks. Like
	// unreliableMB it survives crashes: corruption evidence against a peer
	// does not evaporate because the observer rebooted.
	strikes map[network.NodeID]int64

	// au is the always-on invariant auditor (nil-safe hooks); regSeqNext
	// numbers trigger-list registration instances for its trigger-once
	// check.
	au         *audit.Auditor
	regSeqNext uint64

	// Seeded-violation debug knobs (config.FaultConfig.Debug*), cached by
	// SetInjector; the bools record that the one-shot violation happened.
	dbgDoubleFire   bool
	dbgStaleDeliver bool
	dblFired        bool
	staleDelivered  bool

	stats Stats
}

// New creates a NIC bound to a fabric port with its command and trigger
// pipelines idle; both run only while they have work queued.
func New(eng *sim.Engine, cfg config.NICConfig, id network.NodeID, fabric *network.Fabric) *NIC {
	n := &NIC{
		eng:      eng,
		cfg:      cfg,
		id:       id,
		fabric:   fabric,
		cmdQ:     sim.NewQueue[*Command](eng),
		trigFIFO: sim.NewQueue[DynamicWrite](eng),
		lookup:   AssociativeLookup{Latency: cfg.TriggerMatchLatency},
		inc:      1,
	}
	n.cmdSlots = sim.NewSignal(eng)
	if cfg.Reliability.Enabled {
		n.rel = newReliability(n, cfg.Reliability)
	}
	fabric.Bind(id, n.deliver)
	n.lane = eng.Lane()
	n.cmdStepFn, n.trigStartFn, n.trigDoneFn = n.cmdStep, n.trigStart, n.trigDone
	n.rearmFn, n.armFireFn = n.rearm, n.armFire
	return n
}

// ID returns the NIC's fabric port.
func (n *NIC) ID() network.NodeID { return n.id }

// Stats returns a snapshot of the NIC's counters.
func (n *NIC) Stats() Stats { return n.stats }

// Config returns the NIC's configuration (resource defaults, latencies).
func (n *NIC) Config() config.NICConfig { return n.cfg }

// Injector returns the fault injector the NIC draws from; upper layers use
// it to reach the SDC plan (faulty-reducer windows, injection summaries).
func (n *NIC) Injector() *fault.Injector { return n.inj }

// SetLookupModel replaces the trigger-list match hardware (ablation hook).
func (n *NIC) SetLookupModel(m LookupModel) { n.lookup = m }

// NoteSlowPeer records a Slow verdict this node's health layer issued
// against a peer. Observability only: unlike MarkPeerCrashed /
// MarkPeerPartitioned, a straggler's channels stay fully usable — the
// mitigation is routing (ring exclusion, hedged hops), not condemnation.
func (n *NIC) NoteSlowPeer() { n.stats.PeersDeclaredSlow++ }

// NoteSlowRecovered records a Slow verdict lifting.
func (n *NIC) NoteSlowRecovered() { n.stats.SlowRecoveries++ }

// NoteHedgedSend records one collective hop re-sent via the hedge path.
func (n *NIC) NoteHedgedSend() { n.stats.HedgedSends++ }

// NoteSlowdownEstimate folds one detector slowdown estimate (reciprocal
// progress score) into the max-observed stat, ×100 fixed point.
func (n *NIC) NoteSlowdownEstimate(factor float64) {
	if v := int64(factor * 100); v > n.stats.MaxSlowdownSeen {
		n.stats.MaxSlowdownSeen = v
	}
}

// MarkUnreliable registers a match-bits region as unreliable-datagram
// class: puts addressed to it bypass the reliability layer entirely (no
// sequence numbers, no retransmits, never absorbed by a dead-peer
// verdict). Heartbeats use this so liveness evidence keeps flowing across
// a partition that has already killed the reliable channels. Idempotent.
func (n *NIC) MarkUnreliable(matchBits uint64) {
	for _, mb := range n.unreliableMB {
		if mb == matchBits {
			return
		}
	}
	n.unreliableMB = append(n.unreliableMB, matchBits)
}

// unreliableMatch reports whether matchBits was registered via
// MarkUnreliable. The list is tiny (heartbeats only), so a linear scan
// beats a map on the per-send hot path.
func (n *NIC) unreliableMatch(matchBits uint64) bool {
	for _, mb := range n.unreliableMB {
		if mb == matchBits {
			return true
		}
	}
	return false
}

// LinkHealth is the per-peer gray-failure score the reliability layer
// maintains: an EWMA in [0, 1] pulled toward 0 by retransmissions and
// inflated RTT samples, plus the raw Jacobson/Karels estimator state.
type LinkHealth struct {
	// Score is 1 for a clean link, 0 for a dead one; degradation shows up
	// as the EWMA sagging toward 0 while the link technically still works.
	Score  float64
	SRTT   sim.Time
	RTTVar sim.Time
	Dead   bool
}

// LinkHealth returns the health of the sender-side channel toward peer.
// ok is false when no channel exists (no traffic yet, or reliability off).
func (n *NIC) LinkHealth(peer network.NodeID) (LinkHealth, bool) {
	if n.rel == nil {
		return LinkHealth{}, false
	}
	ch := n.rel.chans[peer]
	if ch == nil {
		return LinkHealth{}, false
	}
	return LinkHealth{Score: ch.health, SRTT: ch.srtt, RTTVar: ch.rttvar, Dead: ch.dead}, true
}

// SetIOBusLatency configures the extra MMIO hop of a discrete-GPU system.
func (n *NIC) SetIOBusLatency(d sim.Time) { n.ioBusLatency = d }

// SetInjector installs the fault injector for NIC-local faults (command
// stalls, trigger-write loss/delay). Nil keeps the NIC fault-free.
func (n *NIC) SetInjector(in *fault.Injector) {
	n.inj = in
	cfg := in.Config()
	n.dbgDoubleFire = cfg.DebugDoubleFire
	n.dbgStaleDeliver = cfg.DebugStaleDeliver
	n.trigFaults = in != nil && (cfg.TrigDropProb > 0 || cfg.TrigDelayJitter > 0)
}

// SetAuditor installs the invariant auditor. Nil (the default) keeps every
// hook a no-op.
func (n *NIC) SetAuditor(a *audit.Auditor) { n.au = a }

// nextRegSeq numbers a new trigger-list registration instance.
func (n *NIC) nextRegSeq() uint64 {
	n.regSeqNext++
	return n.regSeqNext
}

// OnPeerDead registers a callback invoked when the reliability layer gives
// up on a peer (retry budget exhausted). No-op without reliability.
func (n *NIC) OnPeerDead(fn func(peer network.NodeID)) {
	if n.rel != nil {
		n.rel.onPeerDead = append(n.rel.onPeerDead, fn)
	}
}

// send routes an outbound wire message through the reliability layer when
// one is configured, otherwise straight onto the fabric.
func (n *NIC) send(m *network.Message) {
	if n.rel != nil {
		n.rel.send(m)
		return
	}
	n.emit(m)
}

// ExposeRegion appends a target-side region to the match list (the
// Portals priority list). Earlier regions win ties.
func (n *NIC) ExposeRegion(r *Region) {
	n.regions = append(n.regions, r)
}

// matchRegion locates (and, for use-once entries, unlinks) the first
// region accepting the operation, or returns nil when nothing matches.
func (n *NIC) matchRegion(matchBits uint64) *Region {
	for i, r := range n.regions {
		if r.accepts(matchBits) {
			if r.UseOnce {
				n.regions = append(n.regions[:i], n.regions[i+1:]...)
			}
			return r
		}
	}
	return nil
}

// PostCommand rings the NIC doorbell with a staged command. The caller
// pays the MMIO doorbell cost; execution proceeds asynchronously on the
// NIC. This is the path HDN and GDS use to send, and the path GPU-TN's
// trigger entries use when they fire.
func (n *NIC) PostCommand(p *sim.Proc, c *Command) {
	p.Sleep(n.cfg.DoorbellLatency + n.ioBusLatency)
	if d := n.cfg.Resources.CmdQueueDepth; d > 0 {
		// Bounded queue: the doorbell write stalls (PCIe backpressure)
		// until the executor frees a slot and the deferred backlog drains.
		stalled := false
		for len(n.cmdPending) > 0 || n.cmdQ.Len() >= d {
			if !stalled {
				n.stats.CmdQueueStalls++
				stalled = true
			}
			n.cmdSlots.Wait(p)
		}
	}
	n.pushCmd(c)
}

// PostCommandAsync enqueues a command without a calling process (used by
// NIC-internal logic such as trigger fires, which already paid their way).
func (n *NIC) PostCommandAsync(c *Command) {
	n.enqueueCmd(c)
}

// RingDoorbell models an MMIO doorbell write from an agent that should not
// block on it (e.g. the GPU front-end ringing a GDS network-initiation
// point): the command lands on the NIC after the doorbell flight time.
func (n *NIC) RingDoorbell(c *Command) {
	n.eng.After(n.cfg.DoorbellLatency+n.ioBusLatency, func() { n.enqueueCmd(c) })
}

// TriggerWrite is the GPU's memory-mapped store of a tag to the trigger
// address (§3.1 step 3). The caller (a GPU work-item model) pays its own
// store cost; the write lands in the NIC's trigger FIFO after the MMIO
// flight time. Unless a write's fate needs the per-write pipeline, it is
// counted (counted.go) rather than scheduled.
func (n *NIC) TriggerWrite(tag uint64) {
	n.TriggerWriteDynamic(DynamicWrite{Tag: tag})
}

// TriggerWriteDynamic is the §3.4 extension of TriggerWrite: the write
// additionally carries GPU-computed override fields that the NIC applies
// to the staged operation when the entry fires.
func (n *NIC) TriggerWriteDynamic(w DynamicWrite) {
	if n.counted() {
		n.bookWrite(w, n.eng.Now())
		return
	}
	n.stats.TriggerWrites++
	lat := n.cfg.DoorbellLatency + n.ioBusLatency
	if n.inj != nil {
		drop, delay := n.inj.TriggerFault(int(n.id))
		if drop {
			// The MMIO store was lost on the bus: it never reaches the
			// trigger FIFO. Recovery is the GPU's re-write (tests) or the
			// relaxed-sync placeholder path absorbing the survivors.
			n.stats.LostTriggerWrites++
			return
		}
		lat += delay
	}
	f := n.newTrigFlight()
	f.w, f.ep = w, n.inc
	n.eng.After(lat, f.land)
}

// trigFlight is one MMIO trigger write in flight to the trigger FIFO.
// Records are pooled per NIC (see NIC.newTrigFlight): land is bound to the
// record once, when it is first allocated, so a trigger write allocates
// no closure in steady state.
type trigFlight struct {
	w    DynamicWrite
	ep   int64 // incarnation that issued the write
	land func()
}

// newTrigFlight draws a recycled in-flight record (or allocates one,
// binding its landing callback exactly once).
func (n *NIC) newTrigFlight() *trigFlight {
	if k := len(n.trigFree); k > 0 {
		f := n.trigFree[k-1]
		n.trigFree = n.trigFree[:k-1]
		return f
	}
	f := &trigFlight{}
	f.land = func() { n.landTrigger(f) }
	return f
}

// landTrigger delivers a trigger write to the FIFO at the end of its MMIO
// flight and recycles the record.
func (n *NIC) landTrigger(f *trigFlight) {
	w, ep := f.w, f.ep
	n.trigFree = append(n.trigFree, f)
	if n.fenced(ep) {
		// The node crashed while the MMIO store was in flight: the write
		// from the dead incarnation never reaches the (new) FIFO.
		n.stats.FencedTriggers++
		return
	}
	if n.cfg.TriggerFIFODepth > 0 && n.trigFIFO.Len() >= n.cfg.TriggerFIFODepth {
		// A bounded FIFO applies backpressure in real hardware; the model
		// counts the event and drops, and tests assert this never happens
		// in the evaluated configurations.
		n.stats.DroppedTriggers++
		return
	}
	n.trigFIFO.Push(w)
	if !n.trigBusy {
		n.trigBusy = true
		n.eng.AfterLane(0, n.lane, n.trigStartFn)
	}
	if hw := int64(n.trigFIFO.Len()); hw > n.stats.TrigFIFOHighWater {
		n.stats.TrigFIFOHighWater = hw
	}
}

// RegisterTriggered registers a triggered operation (§3.1 step 1): the
// staged command op will launch once the entry's counter reaches
// threshold. Under relaxed synchronization the GPU may already have
// written the tag; if the placeholder's counter satisfies the threshold
// the operation launches immediately (§3.2).
func (n *NIC) RegisterTriggered(p *sim.Proc, tag uint64, threshold int64, op *Command) error {
	if threshold <= 0 {
		return fmt.Errorf("nic: threshold must be positive, got %d", threshold)
	}
	if op == nil {
		return fmt.Errorf("nic: nil triggered operation")
	}
	// Host-side registration cost: a command write to the NIC.
	p.Sleep(n.cfg.DoorbellLatency + n.cfg.CommandLatency)
	n.catchUp()
	defer n.markArm()

	if e := n.findEntry(tag); e != nil {
		if e.hasOp && !e.fired {
			return fmt.Errorf("nic: tag %d: %w", tag, ErrTagBusy)
		}
		if e.fired {
			// Entry was consumed; treat as fresh registration reusing the
			// slot — a new instance as far as the trigger-once audit goes.
			n.au.TriggerRetired(int(n.id), e.regSeq)
			e.regSeq = n.nextRegSeq()
			e.counter, e.fired = 0, false
			e.overrides = DynamicWrite{}
		}
		e.op, e.threshold, e.hasOp = op, threshold, true
		if e.counter >= e.threshold {
			n.stats.ImmediateFires++
			n.fire(e)
		}
		return nil
	}
	if n.activeEntries() >= n.capTriggers() {
		n.stats.RegistrationRejects++
		return fmt.Errorf("nic: %w (%d active entries)", ErrTriggerListFull, n.capTriggers())
	}
	n.entries = append(n.entries, &triggerEntry{tag: tag, threshold: threshold, op: op, hasOp: true, regSeq: n.nextRegSeq()})
	n.noteTriggerWater()
	return nil
}

// TriggerListLen reports the number of allocated trigger entries.
func (n *NIC) TriggerListLen() int {
	n.catchUp()
	return len(n.entries)
}

// CancelTriggered removes every trigger-list entry whose tag lies in
// [lo, hi): staged operations that have not fired, relaxed-sync
// placeholders, and consumed (fired) entries alike. It is the model's
// PtlCTCancelTriggeredOps: an aborted workload must withdraw the
// operations it staged, or dead entries pin the associative list until
// nothing else can register (the list is small by design, §3.3). The
// caller pays one host command; the return value counts the removed
// entries that were still pending (had not fired).
func (n *NIC) CancelTriggered(p *sim.Proc, lo, hi uint64) int {
	p.Sleep(n.cfg.DoorbellLatency + n.cfg.CommandLatency)
	n.catchUp()
	defer n.markArm()
	kept := n.entries[:0]
	canceled := 0
	for _, e := range n.entries {
		if e.tag >= lo && e.tag < hi {
			if !e.fired {
				canceled++
			}
			n.au.TriggerRetired(int(n.id), e.regSeq)
			continue
		}
		kept = append(kept, e)
	}
	for i := len(kept); i < len(n.entries); i++ {
		n.entries[i] = nil
	}
	n.entries = kept
	n.stats.CanceledTriggers += int64(canceled)
	return canceled
}

func (n *NIC) activeEntries() int {
	c := 0
	for _, e := range n.entries {
		if !e.fired {
			c++
		}
	}
	return c
}

func (n *NIC) findEntry(tag uint64) *triggerEntry {
	for _, e := range n.entries {
		if e.tag == tag {
			return e
		}
	}
	return nil
}

// The trigger-list pipeline (Figure 4 steps 3-4) matches one buffered tag
// write at a time: trigStart pops a write and pays the list's match
// latency, and trigDone counts or fires it, then starts the next write or
// leaves the pipeline idle until landTrigger buffers another. A hardware
// pipeline keeps no context between writes, so it runs on two plain
// events per write rather than a process.

// trigStart pops the next buffered write and schedules its match.
func (n *NIC) trigStart() {
	w, ok := n.trigFIFO.TryPop()
	if !ok {
		// A crash emptied the FIFO before this dispatch ran.
		n.trigBusy = false
		return
	}
	n.trigW, n.trigEp = w, n.inc
	pos := len(n.entries)
	switch n.lookup.(type) {
	case AssociativeLookup, HashLookup:
		// Their latency does not depend on the match position.
	default:
		for i, e := range n.entries {
			if e.tag == w.Tag {
				pos = i
				break
			}
		}
	}
	n.eng.After(n.lookup.MatchLatency(len(n.entries), pos), n.trigDoneFn)
}

// trigDone finishes the matched write, then moves on to the next one.
func (n *NIC) trigDone() {
	n.matchTrigger(n.trigW, n.trigEp)
	if n.trigFIFO.Len() > 0 {
		n.trigStart()
		return
	}
	n.trigBusy = false
}

// matchTrigger applies one matched write popped under incarnation ep:
// count it against its entry and fire the entry at threshold, or allocate
// a relaxed-sync placeholder.
func (n *NIC) matchTrigger(w DynamicWrite, ep int64) {
	if n.fenced(ep) {
		// Crash landed between pop and match: the write dies with the
		// incarnation that buffered it.
		n.stats.FencedTriggers++
		return
	}
	e := n.findEntry(w.Tag)
	if e == nil {
		if !n.newPlaceholder(w) {
			n.stats.DroppedTriggers++
		}
		return
	}
	e.counter++
	e.mergeOverrides(w)
	if e.hasOp && !e.fired && e.counter >= e.threshold {
		n.fire(e)
	}
}

// newPlaceholder allocates the relaxed-sync placeholder (§3.2) for a write
// whose tag has no entry, counting the write, and reports false when the
// shared list capacity or, when configured, the dedicated placeholder
// budget leaves no room.
func (n *NIC) newPlaceholder(w DynamicWrite) bool {
	if n.activeEntries() >= n.capTriggers() {
		return false
	}
	if pc := n.capPlaceholders(); pc > 0 && n.activePlaceholders() >= pc {
		return false
	}
	e := &triggerEntry{tag: w.Tag, counter: 1, regSeq: n.nextRegSeq()}
	n.entries = append(n.entries, e)
	n.stats.PlaceholdersMade++
	n.noteTriggerWater()
	e.mergeOverrides(w)
	return true
}

// mergeOverrides folds a dynamic write's fields into the entry
// (last-writer-wins per field, §3.4).
func (e *triggerEntry) mergeOverrides(w DynamicWrite) {
	if w.HasTarget {
		e.overrides.HasTarget, e.overrides.Target = true, w.Target
	}
	if w.HasSize {
		e.overrides.HasSize, e.overrides.Size = true, w.Size
	}
	if w.HasMatchBits {
		e.overrides.HasMatchBits, e.overrides.MatchBits = true, w.MatchBits
	}
}

// fire launches a satisfied trigger entry's operation, applying any
// GPU-provided dynamic overrides to the staged command.
func (n *NIC) fire(e *triggerEntry) {
	e.fired = true
	n.stats.TriggerFires++
	n.au.TriggerFired(n.eng.Now(), int(n.id), e.regSeq, int64(e.tag))
	op := e.op
	if e.overrides.Fields() > 0 {
		dyn := *op // the NIC patches a copy of the staged descriptor
		if e.overrides.HasTarget {
			dyn.Target = e.overrides.Target
		}
		if e.overrides.HasSize {
			dyn.Size = e.overrides.Size
		}
		if e.overrides.HasMatchBits {
			dyn.MatchBits = e.overrides.MatchBits
		}
		n.stats.DynamicFires++
		op = &dyn
	}
	n.enqueueCmd(op)
	if n.dbgDoubleFire && n.inc > 1 && !n.dblFired {
		// Seeded violation (DebugDoubleFire): the first fire of the
		// restarted incarnation launches its operation twice. The auditor's
		// trigger-once check must flag it.
		n.dblFired = true
		n.stats.TriggerFires++
		n.au.TriggerFired(n.eng.Now(), int(n.id), e.regSeq, int64(e.tag))
		n.enqueueCmd(op)
	}
}

// The command executor (Figure 4's command processor) runs one staged
// command at a time: it pops the command, pays any injected or fail-slow
// stall, parses it, DMA-reads a put's payload (checksumming it when the
// e2e layer prices that), sends it and signals local completion, then
// starts the next command or goes idle until pushCmd queues another. Like
// the trigger pipeline it waits on nothing but time, so it runs on plain
// events: each wait is one cmdStep event on the NIC's lane, and cmdAt
// names the step that event runs.

// cmdStage names a step of the command executor.
type cmdStage uint8

const (
	cmdAtStart   cmdStage = iota // pop the next command
	cmdAtPrice                   // injected stall paid: price the parse
	cmdAtParse                   // fail-slow stall paid: parse
	cmdAtIssue                   // parsed: start a put's DMA, send a get
	cmdAtDMADone                 // a put's DMA read finished
	cmdAtSummed                  // a put's payload checksum finished
)

// cmdStep runs the step the executor waited for.
func (n *NIC) cmdStep() {
	switch n.cmdAt {
	case cmdAtStart:
		n.cmdPop()
	case cmdAtPrice:
		n.cmdPriceParse()
	case cmdAtParse:
		n.cmdWait(n.cmdParse, cmdAtIssue)
	case cmdAtIssue:
		n.cmdIssue()
	case cmdAtDMADone:
		n.cmdDMADone()
	case cmdAtSummed:
		if n.putFenced() {
			return
		}
		n.putSend(n.cmdMeta)
	}
}

// cmdWait schedules the executor's next step, at, after a wait of d.
func (n *NIC) cmdWait(d sim.Time, at cmdStage) {
	n.cmdAt = at
	n.eng.After(d, n.cmdStepFn)
}

// cmdPop starts the next queued command, or idles the executor.
func (n *NIC) cmdPop() {
	c, ok := n.cmdQ.TryPop()
	if !ok {
		n.cmdBusy = false
		return
	}
	n.cmd, n.cmdEp = c, n.inc
	n.admitPending()
	if d := n.inj.CommandStall(int(n.id)); d > 0 {
		n.cmdWait(d, cmdAtPrice)
		return
	}
	n.cmdPriceParse()
}

// cmdPriceParse prices the parse, stretched by an armed fail-slow window,
// and starts it after any stall the window draws.
func (n *NIC) cmdPriceParse() {
	parse := n.cfg.CommandLatency
	if slow := n.inj.Slow(); slow != nil {
		stretched, stall := slow.CommandSlow(n.eng.Now(), int(n.id), parse)
		if stretched > parse {
			n.stats.SlowCmdStretched++
		}
		if stall > 0 {
			n.stats.SlowCmdStalls++
			n.cmdParse = stretched
			n.cmdWait(stall, cmdAtParse)
			return
		}
		parse = stretched
	}
	n.cmdWait(parse, cmdAtIssue)
}

// cmdIssue executes a parsed command: a put starts its DMA read, a get
// sends its request.
func (n *NIC) cmdIssue() {
	if n.fenced(n.cmdEp) {
		// The node crashed while this command was being parsed: it is
		// abandoned, never reaching the fabric.
		n.stats.FencedCommands++
		n.cmdNext()
		return
	}
	switch c := n.cmd; c.Kind {
	case OpPut:
		// DMA-read the send buffer from memory.
		n.cmdWait(n.dmaTime(c.Size), cmdAtDMADone)
	case OpGet:
		n.execGet(c)
		n.stats.CommandsExecuted++
		n.cmdNext()
	default:
		panic(fmt.Sprintf("nic: unknown op kind %v", c.Kind))
	}
}

// cmdDMADone reads the put's payload at the end of its DMA and frames it,
// paying the e2e checksum first when that is priced.
func (n *NIC) cmdDMADone() {
	if n.putFenced() {
		return
	}
	c := n.cmd
	data := c.Data
	if f, ok := data.(Deferred); ok {
		data = f() // buffer contents are read at DMA time
	}
	meta := &wireMeta{kind: OpPut, matchBits: c.MatchBits}
	data, summed := n.e2ePrepare(meta, data)
	meta.data = data
	if summed && n.cfg.E2EChecksumLatency > 0 {
		n.cmdMeta = meta
		n.cmdWait(n.cfg.E2EChecksumLatency, cmdAtSummed)
		return
	}
	n.putSend(meta)
}

// putFenced abandons the put in execution if the node crashed since it
// was popped. A put abandoned after its DMA read still counts as
// executed.
func (n *NIC) putFenced() bool {
	if !n.fenced(n.cmdEp) {
		return false
	}
	n.stats.FencedCommands++
	n.stats.CommandsExecuted++
	n.cmdNext()
	return true
}

// putSend injects the framed put, signals its local completion and moves
// the executor on.
func (n *NIC) putSend(meta *wireMeta) {
	c := n.cmd
	// Buffer corruption at rest: the DMA engine reads bits that flipped
	// after the (clean-buffer) checksum was computed, so the frame leaves
	// internally inconsistent and the destination's e2e verify catches it.
	if sdc := n.inj.SDC(); sdc != nil {
		if cp, ok := meta.data.(Corruptible); ok && sdc.BufferCorrupt(n.eng.Now(), int(n.id)) {
			meta.data, meta.e2eBody = cp.CorruptCopy(), false
		}
	}
	n.send(&network.Message{
		Src:     n.id,
		Dst:     c.Target,
		Size:    c.Size,
		Kind:    "put",
		Payload: meta,
	})
	// Local completion: buffer is reusable once the DMA read finished.
	n.complete(c)
	n.stats.CommandsExecuted++
	n.cmdNext()
}

// cmdNext finishes the command in execution and starts the next one in
// the same event, as a hardware pipeline would, or idles the executor.
func (n *NIC) cmdNext() {
	n.cmd, n.cmdMeta = nil, nil
	n.cmdPop()
}

// dmaTime prices one DMA transfer of size bytes, stretched by any armed
// fail-slow DMA window covering this node now.
func (n *NIC) dmaTime(size int64) sim.Time {
	d := n.cfg.DMAStartup + sim.BytesAtGbps(size, n.cfg.DMAGBps*8)
	if slow := n.inj.Slow(); slow != nil {
		if sd := slow.DMADilate(n.eng.Now(), int(n.id), d); sd > d {
			n.stats.SlowDMAStretched++
			d = sd
		}
	}
	return d
}

func (n *NIC) execGet(c *Command) {
	// A get sends a small request; the reply carries the data. The reply
	// is routed back to a NIC-internal region with a unique key, so
	// concurrent gets against the same remote match bits cannot collide.
	n.replySeq++
	replyMatch := 0x4752455400000000 | n.replySeq
	done := c
	n.ExposeRegion(&Region{
		MatchBits: replyMatch,
		UseOnce:   true,
		OnDelivery: func(d Delivery) {
			done.Data = d.Data
			n.complete(done)
		},
	})
	n.send(&network.Message{
		Src:  n.id,
		Dst:  c.Target,
		Size: 32, // request header only
		Kind: "get_req",
		Payload: &wireMeta{
			kind:       OpGet,
			matchBits:  c.MatchBits,
			replyMatch: replyMatch,
			reqSize:    c.Size,
		},
	})
}

func (n *NIC) complete(c *Command) {
	ep := n.inc
	n.eng.After(n.cfg.CompletionWriteLatency, func() {
		if n.fenced(ep) {
			// The completion write belonged to a dead incarnation; the
			// counters it would have bumped are gone with the session.
			n.stats.FencedCommands++
			return
		}
		if c.LocalCompletion != nil {
			c.LocalCompletion.Add(1)
		}
		if c.OnLocalComplete != nil {
			c.OnLocalComplete()
		}
	})
}

// deliver is the fabric handler: an inbound message has fully arrived.
// Before any payload handling it applies the crash fences: a down NIC
// receives nothing, frames from a dead incarnation of the sender are
// dropped (adopting newer incarnations resets per-peer reliability state),
// and frames addressed to a previous incarnation of this NIC are dropped —
// the stale pre-staged traffic of the node's former life. Frames with
// zero epochs (sent by non-NIC test harnesses) read as incarnation 1.
func (n *NIC) deliver(m *network.Message) {
	if n.down {
		n.stats.DownDrops++
		return
	}
	se, de := m.SrcEpoch, m.DstEpoch
	if se == 0 {
		se = 1
	}
	if de == 0 {
		de = 1
	}
	if view := n.peerEpochOf(m.Src); se > view {
		// The peer restarted: adopt its new incarnation and reset the
		// reliability channel pair so both directions start fresh.
		n.setPeerEpoch(m.Src, se)
		n.stats.EpochResets++
		if n.rel != nil {
			n.rel.resetPeer(m.Src)
		}
	} else if se < view {
		n.stats.StaleSrcDrops++
		return
	}
	if de != n.inc {
		if n.dbgStaleDeliver && !n.staleDelivered {
			if pl, ok := m.Payload.(*wireMeta); ok && !m.Corrupted && !m.SilentCorrupt {
				// Seeded violation (DebugStaleDeliver): dispatch one frame
				// addressed to this NIC's previous incarnation instead of
				// fencing it. The auditor's no-stale-delivery check must
				// flag it.
				n.staleDelivered = true
				n.dispatch(m, pl)
				return
			}
		}
		n.stats.StaleDstDrops++
		return
	}
	if _, ok := m.Payload.(*epochAnnounce); ok {
		return // the epoch adoption above is the whole message
	}
	switch pl := m.Payload.(type) {
	case *relAck:
		// ACK/NACK control frames are themselves unreliable; a corrupt
		// one is simply discarded (the data timer recovers).
		if n.rel != nil && !m.Corrupted {
			n.rel.onAck(m.Src, pl)
		}
		return
	case *relEnvelope:
		if n.rel == nil {
			panic(fmt.Sprintf("nic %d: reliable frame from %d but reliability is off", n.id, m.Src))
		}
		n.rel.onData(m, pl)
		return
	case *wireMeta:
		if m.Corrupted {
			// Checksum failure without a reliability layer: the frame is
			// dropped on the floor, exactly like a lossy physical link.
			n.stats.CorruptDropped++
			return
		}
		if m.SilentCorrupt {
			pl = e2eMaterialize(pl)
			m.SilentCorrupt = false
		}
		if n.e2eFails(pl) {
			// Bad payload sum on a best-effort datagram: no NACK channel,
			// so the frame is dropped like a link-corrupt one — but the
			// strike lands on the sender, because the link accepted it.
			n.noteE2EFail()
			n.addStrike(m.Src)
			return
		}
		n.dispatch(m, pl)
	default:
		panic(fmt.Sprintf("nic %d: foreign payload %T", n.id, m.Payload))
	}
}

// dispatch hands a verified inbound operation to the matching service path.
func (n *NIC) dispatch(m *network.Message, meta *wireMeta) {
	if n.au != nil {
		// No-stale-delivery audit: every frame crossing into protocol
		// handlers must be from the sender's live incarnation and addressed
		// to this one. Zero epochs (non-NIC test harnesses) read as 1.
		se, de := m.SrcEpoch, m.DstEpoch
		if se == 0 {
			se = 1
		}
		if de == 0 {
			de = 1
		}
		n.au.Dispatched(n.eng.Now(), int(n.id), int(m.Src), se, n.peerEpochOf(m.Src), de, n.inc)
	}
	if cp, ok := meta.data.(Corruptible); ok && cp.IsCorrupt() {
		// Simulator omniscience: a corrupt payload is crossing into the
		// application unflagged — either no e2e checksum was carried or a
		// retransmission made the frame self-consistent. Only a verified
		// collective can catch it now.
		n.stats.SDCUndetected++
	}
	switch m.Kind {
	case "put":
		n.deliverPut(m, meta)
	case "get_req":
		n.serveGet(m, meta)
	default:
		panic(fmt.Sprintf("nic %d: unknown message kind %q", n.id, m.Kind))
	}
}

// unmatched handles an inbound operation whose match bits found no exposed
// region. In a crash-free simulation that is a model bug and panics. After
// a restart it is expected: a surviving peer still running a workload from
// before the crash addresses regions that existed only in this NIC's
// previous life — those frames pass the epoch fence (the sender knows the
// new incarnation; only its *workload* is stale), and Portals semantics
// drop them with an event rather than faulting. Returns true when dropped.
func (n *NIC) unmatched(what string, mb uint64, src network.NodeID) bool {
	if n.inc > 1 {
		n.stats.UnmatchedDrops++
		return true
	}
	panic(fmt.Sprintf("nic %d: %s to unmatched match bits %#x from %d", n.id, what, mb, src))
}

func (n *NIC) deliverPut(m *network.Message, meta *wireMeta) {
	r := n.matchRegion(meta.matchBits)
	if r == nil {
		if n.unmatched("put", meta.matchBits, m.Src) {
			return
		}
	}
	// DMA-write into target memory, then raise target-side notification.
	dmaDone := n.dmaTime(m.Size)
	src, size, data := m.Src, m.Size, meta.data
	ep := n.inc
	n.eng.After(dmaDone, func() {
		if n.fenced(ep) {
			n.stats.FencedDeliveries++
			return
		}
		n.stats.DeliveredMessages++
		if r.Counter != nil {
			r.Counter.Add(1)
		}
		if r.OnDelivery != nil {
			r.OnDelivery(Delivery{Kind: OpPut, From: src, MatchBits: meta.matchBits, Size: size, Data: data, At: n.eng.Now()})
		}
	})
}

func (n *NIC) serveGet(m *network.Message, meta *wireMeta) {
	r := n.matchRegion(meta.matchBits)
	if r == nil {
		if n.unmatched("get", meta.matchBits, m.Src) {
			return
		}
	}
	var data any
	if r.ReadBack != nil {
		data = r.ReadBack(meta.reqSize)
	}
	// DMA-read the region, then send the reply.
	dma := n.dmaTime(meta.reqSize)
	src := m.Src
	ep := n.inc
	n.eng.After(dma, func() {
		if n.fenced(ep) {
			n.stats.FencedDeliveries++
			return
		}
		n.stats.DeliveredMessages++
		if r.Counter != nil {
			r.Counter.Add(1)
		}
		if r.OnDelivery != nil {
			r.OnDelivery(Delivery{Kind: OpGet, From: src, MatchBits: meta.matchBits, Size: meta.reqSize, Data: data, At: n.eng.Now()})
		}
		n.send(&network.Message{
			Src:  n.id,
			Dst:  src,
			Size: meta.reqSize,
			Kind: "put",
			Payload: &wireMeta{
				kind:      OpPut,
				matchBits: meta.replyMatch,
				data:      data,
			},
		})
	})
}
