package sim

import (
	"fmt"
	"strings"
)

// This file is the simulator's hang doctor. A deterministic discrete-event
// simulation cannot literally hang on a model deadlock: when every process
// is parked on an unsatisfied condition the event queue drains and Run
// returns — silently, with some ranks never having completed. The watchdog
// turns that silent quiescence into a structured diagnosis: which processes
// are parked on what (with counter progress), and — supplied by the NIC
// models — which trigger-list entries never reached their firing threshold.

// StarvedTrigger describes one trigger-list entry that never fired: the
// NIC-side half of a hang diagnosis. Registered entries report the staged
// operation's threshold; relaxed-sync placeholders (op never registered)
// report Registered=false and a zero threshold.
type StarvedTrigger struct {
	// Node is the registering node (the NIC holding the entry).
	Node      int
	Tag       uint64
	Counter   int64
	Threshold int64
	// Registered is false for a placeholder the host never backed with an
	// operation — the relaxed-sync window closed without a registration.
	Registered bool
}

func (s StarvedTrigger) String() string {
	if !s.Registered {
		return fmt.Sprintf("node %d tag %d: placeholder count %d, op never registered", s.Node, s.Tag, s.Counter)
	}
	return fmt.Sprintf("node %d tag %d: count %d/%d", s.Node, s.Tag, s.Counter, s.Threshold)
}

// BlockedWaiter describes a process parked on an unsatisfied condition at
// quiescence — the rank-side half of a hang diagnosis.
type BlockedWaiter struct {
	// Proc is the parked process's spawn name (encodes backend and rank in
	// the experiment drivers, e.g. "allreduce.GPU-TN.2").
	Proc string
	// Kind is the primitive parked on: "counter", "signal", or "resource".
	Kind string
	// Detail reports the wait's progress, e.g. "value=3 target=64".
	Detail string
}

func (w BlockedWaiter) String() string {
	return fmt.Sprintf("%s (%s %s)", w.Proc, w.Kind, w.Detail)
}

// CrashedNode names a node that crashed and never restarted — a distinct
// hang cause: its peers' waits can never be satisfied, and its own state
// (trigger entries, processes) was wiped rather than starved.
type CrashedNode struct {
	// Node is the crashed node's index.
	Node int
	// At is the simulated time of the crash.
	At Time
}

func (c CrashedNode) String() string {
	return fmt.Sprintf("node %d (down since %v)", c.Node, c.At)
}

// UnhealedPartition names a network cut that was still in force at
// quiescence and whose schedule never heals it — a hang cause distinct from
// a crash: both sides are up and their processes are parked, but no frame
// (or retransmission) can ever cross the cut. Defined here rather than in
// the fault package because sim sits below it in the import order; the
// cluster diagnosis converts from the injector's schedule.
type UnhealedPartition struct {
	// A and B are the two sides of the cut (node indices, sorted).
	A, B []int
	// At is the simulated time the cut took effect.
	At Time
	// Asymmetric is true when only A->B traffic was blackholed.
	Asymmetric bool
}

func (u UnhealedPartition) String() string {
	dir := "|"
	if u.Asymmetric {
		dir = "-x>"
	}
	return fmt.Sprintf("%v%s%v (partitioned at %v, never healed)", u.A, dir, u.B, u.At)
}

// Unrouteable names a fabric route that no longer exists: messages
// between Src and Dst found every candidate path crossing a dead switch
// or trunk, so the fabric dropped them at injection — a hang cause
// distinct from a crash or a configured partition: the endpoints are up,
// but the interconnect between them is gone. Defined here rather than in
// the network package because sim sits below it in the import order; the
// cluster diagnosis converts from the fabric's samples.
type Unrouteable struct {
	// Src and Dst are the endpoints of the first unroutable message.
	Src, Dst int
	// At is the simulated time of that message.
	At Time
	// Reason names the exhausted resource, e.g. "leaf 1 down".
	Reason string
	// Drops is the total count of unroutable messages on the fabric.
	Drops int64
}

func (u Unrouteable) String() string {
	return fmt.Sprintf("%d->%d unrouteable at %v (%s; %d messages dropped)", u.Src, u.Dst, u.At, u.Reason, u.Drops)
}

// RankProgress names the up node with the least forward progress at
// quiescence, with its progress watermark (NIC commands executed). When a
// simulation stalls with nothing starved and nothing crashed, the rank
// everyone is (transitively) waiting on is the one that moved least — the
// fail-slow suspect.
type RankProgress struct {
	Rank      int
	Watermark int64
}

func (r RankProgress) String() string {
	return fmt.Sprintf("node %d (watermark %d)", r.Rank, r.Watermark)
}

// HangError is the structured diagnosis of a simulation that went quiescent
// with unsatisfied waiters. It is the shared error type behind every
// "a rank never completed" path; callers unwrap it with errors.As to reach
// the starved trigger entries and blocked processes.
type HangError struct {
	// At is the simulated time of quiescence.
	At Time
	// Blocked lists every process parked on an unsatisfied condition.
	Blocked []BlockedWaiter
	// Starved lists every trigger-list entry that never reached threshold.
	Starved []StarvedTrigger
	// Crashed lists nodes that crashed and never restarted, the likely
	// root cause of the waits above (populated by Cluster.Diagnose).
	Crashed []CrashedNode
	// Partitions lists network cuts still in force whose schedule never
	// heals them (populated by Cluster.Diagnose from the fault injector).
	Partitions []UnhealedPartition
	// Unrouteable lists fabric routes with no surviving path — messages
	// the fat-tree dropped at injection because every candidate crossed a
	// dead switch or trunk (populated by Cluster.Diagnose).
	Unrouteable []Unrouteable
	// MinProgress, when set, names the up node with the lowest progress
	// watermark — the fail-slow suspect of a stall with no starved
	// resources (populated by Cluster.Diagnose).
	MinProgress *RankProgress
}

// diagListMax bounds how many entries an Error() string spells out.
const diagListMax = 6

func joinCapped[T fmt.Stringer](items []T) string {
	var parts []string
	for i, it := range items {
		if i == diagListMax {
			parts = append(parts, fmt.Sprintf("+%d more", len(items)-diagListMax))
			break
		}
		parts = append(parts, it.String())
	}
	return strings.Join(parts, "; ")
}

func (e *HangError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: quiescent at %v with unsatisfied waiters", e.At)
	if len(e.Crashed) > 0 {
		fmt.Fprintf(&b, "; crashed and never restarted: %s", joinCapped(e.Crashed))
	}
	if len(e.Partitions) > 0 {
		fmt.Fprintf(&b, "; unhealed partitions: %s", joinCapped(e.Partitions))
	}
	if len(e.Unrouteable) > 0 {
		fmt.Fprintf(&b, "; unrouteable: %s", joinCapped(e.Unrouteable))
	}
	if len(e.Starved) > 0 {
		fmt.Fprintf(&b, "; starved triggers: %s", joinCapped(e.Starved))
	}
	if len(e.Blocked) > 0 {
		fmt.Fprintf(&b, "; blocked: %s", joinCapped(e.Blocked))
	}
	if e.MinProgress != nil {
		fmt.Fprintf(&b, "; minimum progress: %s", e.MinProgress.String())
	}
	return b.String()
}

// waitState annotates a parked process with what it is waiting on. Only
// condition waits (counter/signal/resource) are annotated: a sleeping
// process has a pending wake event, so the engine is not quiescent, and a
// consumer parked in Queue.Pop is normal at quiescence, not deadlock
// evidence. Queue servers (GPU streams, the GHN helper) park nowhere when
// idle: a drained server holds no coroutine and waits on nothing until its
// next Push.
type waitState struct {
	kind   string
	detail func() string
	// ctr/target annotate counter waits without a per-wait closure
	// (see Counter.AwaitGE); detail takes precedence when set.
	ctr    *Counter
	target int64
}

// BlockedWaiters lists every live process currently parked on an
// unsatisfied condition wait. At quiescence (empty event queue) these are
// exactly the processes a deadlock is starving.
func (e *Engine) BlockedWaiters() []BlockedWaiter {
	var out []BlockedWaiter
	for _, p := range e.procs {
		if p.dead || p.waiting == nil {
			continue
		}
		w := BlockedWaiter{Proc: p.name, Kind: p.waiting.kind}
		if p.waiting.detail != nil {
			w.Detail = p.waiting.detail()
		} else if p.waiting.ctr != nil {
			w.Detail = fmt.Sprintf("value=%d target=%d", p.waiting.ctr.Value(), p.waiting.target)
		}
		out = append(out, w)
	}
	return out
}

// Diagnose builds a hang diagnosis from the engine's blocked waiters plus
// caller-supplied starved trigger entries (collected from the NIC models).
// It returns nil when nothing is blocked and nothing is starved — i.e. the
// simulation completed cleanly — or when live events are still queued: a
// simulation with pending work is paused, not quiescent, so a hang verdict
// would be premature. (Pending counts live events only; lazily-cancelled
// entries awaiting reclamation cannot wake anyone and do not defer the
// diagnosis.)
func (e *Engine) Diagnose(starved []StarvedTrigger) *HangError {
	return DiagnoseAll([]*Engine{e}, starved)
}

// DiagnoseAll is Diagnose across a sharded engine group. The simulation is
// quiescent only when every engine's queue is drained (a pending event on
// any shard can still wake waiters anywhere via cross-shard mail), blocked
// waiters aggregate across all engines, and the quiescence time is the
// latest engine clock (the shard coordinator aligns clocks at quiescence,
// so for a completed sharded run they agree).
func DiagnoseAll(engines []*Engine, starved []StarvedTrigger) *HangError {
	var blocked []BlockedWaiter
	var at Time
	for _, e := range engines {
		if e.Pending() > 0 {
			return nil
		}
		blocked = append(blocked, e.BlockedWaiters()...)
		if e.now > at {
			at = e.now
		}
	}
	if len(blocked) == 0 && len(starved) == 0 {
		return nil
	}
	return &HangError{At: at, Blocked: blocked, Starved: starved}
}
