// Package audit is the always-on invariant auditor: cheap runtime checks
// threaded through the NIC, health, fabric, and collective hot paths that
// turn a silent wrong answer into a pinpointed violation report.
//
// The catalog (each predicate is checked at the moment the protocol state
// changes, so the first violation carries the exact simulated time, node,
// and context needed to replay it):
//
//   - trigger-once: a trigger-list registration fires at most once per
//     registration instance (exactly-once per (generation, tag) falls out:
//     collective tags are generation-unique and re-registration is a new
//     instance). Predicate: fire(regSeq) requires regSeq not already in
//     the node's live-fired set.
//   - epoch-monotone: a NIC's view of a peer's incarnation never moves
//     backward, and its own incarnation only advances. Predicate:
//     setPeerEpoch(new) requires new >= old; Restart requires inc' > inc.
//   - no-stale-delivery: no frame is dispatched to protocol handlers from
//     a dead incarnation or addressed to a previous life of the receiver.
//     Predicate at dispatch: SrcEpoch >= view(src) && DstEpoch == inc.
//   - resend-intact: a reliable frame's retransmission carries the bytes
//     of its first transmission: the send buffer must not change (be
//     reused) while the frame is unacknowledged. Predicate at each
//     retransmission with end-to-end checksums armed: the body's CRC is
//     the one computed at DMA time. Breaches are recorded; passes are not
//     counted, so the checks total of a run is the same with or without
//     retransmissions.
//   - conservation: per (src, dst) peer pair, messages sent equals
//     messages delivered plus counted losses, once the run has drained.
//     Predicate at Finish: sent(s,d) == delivered(s,d) + lost(s,d).
//   - single-majority: every adopted membership view holds a strict
//     majority of the non-suspect population, and a given view ID never
//     names two different member sets. Predicate at view adoption:
//     2*|members| > population && fingerprint(viewID) stable.
//   - exact-reduction: a recoverable collective's output equals the
//     elementwise sum of the surviving ranks' inputs over the final
//     membership. Predicate at success: out[i] == Σ_alive in[r][i].
//
// Concurrency: per-node state is only ever touched from the owning node's
// engine (the same ownership discipline the fabric uses), the sparse
// conservation ledger splits cell ownership between src and dst nodes,
// and the cross-node checks run in Finish after the run drains — so the
// auditor adds no synchronization to split runs and never perturbs event
// order.
package audit

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/sim"
)

// processViolations counts violations recorded by every auditor in the
// process — a cheap cross-cluster aggregate that lets tests assert a whole
// experiment sweep (which builds many clusters, possibly concurrently) ran
// audit-clean by delta-checking around it.
var processViolations atomic.Int64

// ProcessViolations returns the process-wide violation count.
func ProcessViolations() int64 { return processViolations.Load() }

// Check names, as they appear in violation reports.
const (
	CheckTriggerOnce     = "trigger-once"
	CheckEpochMonotone   = "epoch-monotone"
	CheckStaleDelivery   = "stale-delivery"
	CheckResendIntact    = "resend-intact"
	CheckConservation    = "conservation"
	CheckHopConservation = "hop-conservation"
	CheckMajority        = "single-majority"
	CheckReduction       = "exact-reduction"
)

// maxViolations bounds the retained violation list; further violations
// are counted but not stored.
const maxViolations = 64

// Violation is one invariant breach, captured at the instant the
// predicate failed.
type Violation struct {
	Time   sim.Time
	Check  string
	Node   int // primary node (-1 for cluster-wide checks)
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s @%v n%d: %s", v.Check, v.Time, v.Node, v.Detail)
}

// nodeState is the per-node audit block, touched only from the owning
// node's engine.
type nodeState struct {
	checks     int64
	fired      map[uint64]bool // live fired registration instances
	violations []Violation
	dropped    int

	// Sparse conservation ledger: a cell exists only once its pair has
	// traffic. sent and lost are keyed by destination and written as the
	// source node; delivered is keyed by source and written as the
	// destination node — disjoint ownership, no synchronization needed.
	sent, lost, delivered map[int]int64
}

// Auditor holds the invariant state for one cluster. Create with New;
// thread through the model with the Set*/hook methods; call Finish after
// the run drains; read with Violations/Report.
type Auditor struct {
	n     int
	nodes []nodeState

	// Per-switch hop ledgers (RegisterHops): frames entering, leaving,
	// and dropped-with-reason at each switch of a multi-hop fabric.
	// Single-engine contexts only (the fat-tree forces serialRequired).
	hopIn, hopOut, hopDropped []int64

	// Global state, touched only from serial contexts (health membership
	// and recoverable collectives force the serial engine) or Finish.
	globalChecks     int64
	views            map[uint64]string
	globalViolations []Violation
	globalDropped    int

	finished bool

	// onFire, when set, observes every trigger fire (OnFire).
	onFire func(now sim.Time, node int, tag int64)
}

// New creates an auditor for an n-node cluster.
func New(n int) *Auditor {
	a := &Auditor{
		n:     n,
		nodes: make([]nodeState, n),
		views: map[uint64]string{},
	}
	for i := range a.nodes {
		st := &a.nodes[i]
		st.fired = map[uint64]bool{}
		st.sent = map[int]int64{}
		st.lost = map[int]int64{}
		st.delivered = map[int]int64{}
	}
	return a
}

func (a *Auditor) nodeViolation(now sim.Time, node int, check, format string, args ...any) {
	processViolations.Add(1)
	st := &a.nodes[node]
	if len(st.violations) >= maxViolations {
		st.dropped++
		return
	}
	st.violations = append(st.violations, Violation{
		Time: now, Check: check, Node: node, Detail: fmt.Sprintf(format, args...),
	})
}

func (a *Auditor) globalViolation(now sim.Time, check, format string, args ...any) {
	processViolations.Add(1)
	if len(a.globalViolations) >= maxViolations {
		a.globalDropped++
		return
	}
	a.globalViolations = append(a.globalViolations, Violation{
		Time: now, Check: check, Node: -1, Detail: fmt.Sprintf(format, args...),
	})
}

// --- NIC trigger-list hooks ----------------------------------------------

// TriggerFired records that registration instance regSeq on node fired.
// A second fire of the same live instance is a trigger-once violation.
func (a *Auditor) TriggerFired(now sim.Time, node int, regSeq uint64, tag int64) {
	if a == nil {
		return
	}
	if a.onFire != nil {
		a.onFire(now, node, tag)
	}
	st := &a.nodes[node]
	st.checks++
	if st.fired[regSeq] {
		a.nodeViolation(now, node, CheckTriggerOnce,
			"registration %d (tag 0x%x) fired twice", regSeq, tag)
		return
	}
	st.fired[regSeq] = true
}

// OnFire installs fn as an observer of every trigger fire: its time, node
// and tag, in fire order. Nil removes it.
func (a *Auditor) OnFire(fn func(now sim.Time, node int, tag int64)) { a.onFire = fn }

// TriggerRetired forgets a registration instance: the entry was canceled,
// re-registered (a new instance takes its slot), or wiped by a crash. The
// live-fired set stays bounded by the trigger-list capacity.
func (a *Auditor) TriggerRetired(node int, regSeq uint64) {
	if a == nil {
		return
	}
	delete(a.nodes[node].fired, regSeq)
}

// ResendChanged records a retransmission of the reliable frame seq toward
// dst whose body no longer matches its first transmission: its send
// buffer was reused while the frame was still unacknowledged.
func (a *Auditor) ResendChanged(now sim.Time, node, dst int, seq uint64) {
	if a == nil {
		return
	}
	a.nodeViolation(now, node, CheckResendIntact,
		"frame %d to node %d resent with a changed body (send buffer reused before acknowledgement)", seq, dst)
}

// --- Incarnation-epoch hooks ----------------------------------------------

// PeerEpochSet records node's view of peer's incarnation moving from old
// to new; the view must never move backward.
func (a *Auditor) PeerEpochSet(now sim.Time, node, peer int, old, new int64) {
	if a == nil {
		return
	}
	st := &a.nodes[node]
	st.checks++
	if new < old {
		a.nodeViolation(now, node, CheckEpochMonotone,
			"view of peer %d moved backward %d -> %d", peer, old, new)
	}
}

// Incarnated records node restarting from incarnation old to new.
func (a *Auditor) Incarnated(now sim.Time, node int, old, new int64) {
	if a == nil {
		return
	}
	st := &a.nodes[node]
	st.checks++
	if new <= old {
		a.nodeViolation(now, node, CheckEpochMonotone,
			"incarnation did not advance: %d -> %d", old, new)
	}
}

// Dispatched records a frame crossing the NIC's epoch fence into protocol
// handlers: srcEpoch is the frame's sender incarnation, view the
// receiver's view of that sender, dstEpoch the incarnation the frame was
// addressed to, and inc the receiver's own incarnation. Stale frames must
// have been dropped before this point.
func (a *Auditor) Dispatched(now sim.Time, node, src int, srcEpoch, view, dstEpoch, inc int64) {
	if a == nil {
		return
	}
	st := &a.nodes[node]
	st.checks++
	if srcEpoch < view {
		a.nodeViolation(now, node, CheckStaleDelivery,
			"dispatched frame from %d at dead incarnation %d (view %d)", src, srcEpoch, view)
	}
	if dstEpoch != 0 && dstEpoch != inc {
		a.nodeViolation(now, node, CheckStaleDelivery,
			"dispatched frame from %d addressed to incarnation %d (now %d)", src, dstEpoch, inc)
	}
}

// --- Fabric conservation hooks --------------------------------------------

// MessageSent counts a message injected src -> dst. Called on the src
// engine.
func (a *Auditor) MessageSent(src, dst int) {
	if a == nil {
		return
	}
	a.nodes[src].sent[dst]++
}

// MessageDelivered counts a complete message handed to dst's handler.
// Called on the dst engine.
func (a *Auditor) MessageDelivered(src, dst int) {
	if a == nil {
		return
	}
	a.nodes[dst].delivered[src]++
}

// MessageLost counts a message that lost at least one packet and will
// never deliver. Called on the src engine (the fault point).
func (a *Auditor) MessageLost(src, dst int) {
	if a == nil {
		return
	}
	a.nodes[src].lost[dst]++
}

// --- Per-hop (switch) conservation hooks ----------------------------------

// RegisterHops sizes the per-switch hop ledgers for a k-switch fabric.
// The fabric calls HopIn when a frame enters a switch's port, HopOut when
// it leaves on the wire, and HopDropped when the switch drops it (dead
// port, killed mid-queue); at a quiescent Finish every switch must
// balance: in == out + dropped. Nil-safe like every hook.
func (a *Auditor) RegisterHops(k int) {
	if a == nil || k <= 0 {
		return
	}
	a.hopIn = make([]int64, k)
	a.hopOut = make([]int64, k)
	a.hopDropped = make([]int64, k)
}

// HopIn counts one frame entering switch sw.
func (a *Auditor) HopIn(sw int) {
	if a == nil || a.hopIn == nil {
		return
	}
	a.hopIn[sw]++
}

// HopOut counts one frame leaving switch sw on the wire.
func (a *Auditor) HopOut(sw int) {
	if a == nil || a.hopOut == nil {
		return
	}
	a.hopOut[sw]++
}

// HopDropped counts one frame switch sw dropped with reason.
func (a *Auditor) HopDropped(sw int) {
	if a == nil || a.hopDropped == nil {
		return
	}
	a.hopDropped[sw]++
}

// --- Membership hooks -----------------------------------------------------

// ViewAdopted records the membership adopting view viewID with the given
// member set out of a non-suspect population. Majority must be strict and
// a view ID must never rename its member set. Serial contexts only
// (health forces the serial engine).
func (a *Auditor) ViewAdopted(now sim.Time, viewID uint64, members []int, population int) {
	if a == nil {
		return
	}
	a.globalChecks++
	if 2*len(members) <= population {
		a.globalViolation(now, CheckMajority,
			"view %d holds %d of %d non-suspect nodes (no strict majority)", viewID, len(members), population)
	}
	sorted := append([]int(nil), members...)
	sort.Ints(sorted)
	fp := fmt.Sprint(sorted)
	if prev, ok := a.views[viewID]; ok {
		if prev != fp {
			a.globalViolation(now, CheckMajority,
				"view %d named two member sets: %s then %s", viewID, prev, fp)
		}
	} else {
		a.views[viewID] = fp
	}
}

// --- Collective hooks -----------------------------------------------------

// ReductionResult checks a completed allreduce-sum against the elementwise
// sum of the surviving ranks' inputs. inputs[r] may be nil for dead ranks.
// The expected sum is accumulated in float64, so the equality check is
// order-independent for the integer-valued vectors the experiments reduce
// (every partial sum below 2^24 is exact in float32 regardless of ring
// order). Serial contexts only (recoverable collectives force the serial
// engine).
func (a *Auditor) ReductionResult(now sim.Time, gen int64, out []float32, inputs [][]float32, alive []int) {
	if a == nil {
		return
	}
	a.globalChecks++
	for i := range out {
		var want float64
		for _, r := range alive {
			if r < len(inputs) && inputs[r] != nil && i < len(inputs[r]) {
				want += float64(inputs[r][i])
			}
		}
		if float64(out[i]) != want {
			a.globalViolation(now, CheckReduction,
				"gen %d elem %d: got %v want %v over final membership %v", gen, i, out[i], want, alive)
			return
		}
	}
}

// --- Finish and reporting -------------------------------------------------

// Finish runs the cross-node checks. quiescent reports whether the run
// drained completely (Cluster.Run to completion): only then can sends be
// reconciled against delivers+losses — a RunUntil cutoff legitimately
// strands messages in flight. Double-delivery (delivers+losses exceeding
// sends) is a violation regardless. Finish is idempotent.
func (a *Auditor) Finish(now sim.Time, quiescent bool) {
	if a == nil || a.finished {
		return
	}
	a.finished = true
	// Every (src, dst) pair is one check; a pair with no cell on either
	// side balances at 0 = 0 + 0, so only touched pairs are visited.
	a.globalChecks += int64(a.n) * int64(a.n)
	for _, pair := range a.touchedPairs() {
		s, d := int(pair>>32), int(uint32(pair))
		sent, lost := a.nodes[s].sent[d], a.nodes[s].lost[d]
		got := a.nodes[d].delivered[s]
		if got+lost > sent {
			a.globalViolation(now, CheckConservation,
				"pair %d->%d: %d delivered + %d lost exceeds %d sent", s, d, got, lost, sent)
		} else if quiescent && got+lost < sent {
			a.globalViolation(now, CheckConservation,
				"pair %d->%d: %d sent but only %d delivered + %d lost after drain", s, d, sent, got, lost)
		}
	}
	for sw := range a.hopIn {
		a.globalChecks++
		in, out, dropped := a.hopIn[sw], a.hopOut[sw], a.hopDropped[sw]
		if out+dropped > in {
			a.globalViolation(now, CheckHopConservation,
				"switch %d: %d forwarded + %d dropped exceeds %d entered", sw, out, dropped, in)
		} else if quiescent && out+dropped < in {
			a.globalViolation(now, CheckHopConservation,
				"switch %d: %d entered but only %d forwarded + %d dropped after drain", sw, in, out, dropped)
		}
	}
}

// touchedPairs returns every (src, dst) pair with a conservation cell on
// either side, packed src<<32|dst, in (src, dst) order. A pair delivered
// to but never sent on exists only in the destination's ledger, so both
// sides are collected.
func (a *Auditor) touchedPairs() []uint64 {
	var pairs []uint64
	for i := range a.nodes {
		st := &a.nodes[i]
		for d := range st.sent {
			pairs = append(pairs, uint64(i)<<32|uint64(d))
		}
		for d := range st.lost {
			pairs = append(pairs, uint64(i)<<32|uint64(d))
		}
		for s := range st.delivered {
			pairs = append(pairs, uint64(s)<<32|uint64(i))
		}
	}
	slices.Sort(pairs)
	return slices.Compact(pairs)
}

// ChecksEvaluated returns the total predicate evaluations. Deterministic
// and shard-count invariant for a deterministic run.
func (a *Auditor) ChecksEvaluated() int64 {
	if a == nil {
		return 0
	}
	total := a.globalChecks
	for i := range a.nodes {
		total += a.nodes[i].checks
	}
	return total
}

// Violations returns every retained violation in deterministic
// (time, node, check) order, plus the count dropped beyond the cap.
func (a *Auditor) Violations() ([]Violation, int) {
	if a == nil {
		return nil, 0
	}
	var all []Violation
	dropped := a.globalDropped
	all = append(all, a.globalViolations...)
	for i := range a.nodes {
		all = append(all, a.nodes[i].violations...)
		dropped += a.nodes[i].dropped
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Time != all[j].Time {
			return all[i].Time < all[j].Time
		}
		if all[i].Node != all[j].Node {
			return all[i].Node < all[j].Node
		}
		return all[i].Check < all[j].Check
	})
	return all, dropped
}

// Clean reports whether no invariant was violated.
func (a *Auditor) Clean() bool {
	if a == nil {
		return true
	}
	if len(a.globalViolations) > 0 || a.globalDropped > 0 {
		return false
	}
	for i := range a.nodes {
		if len(a.nodes[i].violations) > 0 || a.nodes[i].dropped > 0 {
			return false
		}
	}
	return true
}

// Report renders the audit{} stats line: checks evaluated, violation
// count, and the first violation when there is one.
func (a *Auditor) Report() string {
	if a == nil {
		return "audit{off}"
	}
	vs, dropped := a.Violations()
	var b strings.Builder
	fmt.Fprintf(&b, "audit{checks=%d violations=%d", a.ChecksEvaluated(), len(vs)+dropped)
	if len(vs) > 0 {
		fmt.Fprintf(&b, " first=%v %s@n%d", vs[0].Time, vs[0].Check, vs[0].Node)
	}
	b.WriteString("}")
	return b.String()
}
