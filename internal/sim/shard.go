package sim

import (
	"fmt"
	"runtime"
	"sync"
)

// Conservative parallel execution: a Sharded group runs several engines in
// bounded lockstep windows. Each window starts at T — the minimum next-event
// time across all engines — and spans [T, T+lookahead), where lookahead is
// the minimum latency any cross-shard interaction can have (for the network
// fabric: the shortest cross-node flight time). Within a window every shard
// executes independently: nothing a remote shard does during the window can
// affect events before T+lookahead, so no shard can receive an event it
// should already have executed. Cross-shard sends are not scheduled directly
// on the destination engine (that would race with its worker); they are
// appended to the sending shard's outbox and delivered at the window
// barrier, carrying the birth key assigned at send time on the source
// engine.
//
// Determinism: an event's birth key (bTime, bLane, bIdx) depends only on the
// scheduling context — the simulated time, the lane executing, and that
// lane's monotone counter on the engine where the lane lives. Partitioning
// lanes into shards does not change any of those inputs, so the same model
// produces identically-keyed events under any shard count, and every
// engine's instant queue pops its lane-partitioned subsequence of the same
// global key order. Windows only affect *wall-clock* interleaving, never
// key assignment or per-lane event order.
//
// One caveat, by construction rather than enforcement: events that cross
// shards must be born on nonzero lanes. Lane 0 is the ambient lane and its
// counter is per-engine, so two engines' lane-0 keys could collide. In the
// cluster all cross-shard traffic originates from node-owned processes
// (NIC egress), which always run on the node's nonzero lane.

// mail is one cross-shard event in flight between windows.
type mail struct {
	dst      int // destination shard
	at       Time
	bTime    Time
	bIdx     uint64
	bLane    uint32
	execLane uint32
	label    string
	fn       func()
}

// Sharded coordinates a group of engines through bounded-window execution.
// Engines are indexed by shard; engine state may only be touched by the
// worker running its window (or by the coordinator between windows).
type Sharded struct {
	engines   []*Engine
	lookahead Time

	// outbox[src] collects mail sent by shard src's worker during a window.
	// Only that worker appends to it; the coordinator drains it at the
	// barrier, so no locking is needed.
	outbox [][]mail

	// window-worker machinery, started lazily per Run so an idle Sharded
	// holds no goroutines.
	start []chan Time
	done  chan struct{}
	wg    sync.WaitGroup
}

// NewSharded groups engines for bounded-window execution. With more than
// one engine lookahead must be positive: it is the guarantee that no
// cross-shard interaction lands within its own window. A one-engine group
// has no cross-shard interaction and runs without windows.
func NewSharded(engines []*Engine, lookahead Time) *Sharded {
	if len(engines) == 0 {
		panic("sim: sharded group needs at least one engine")
	}
	if len(engines) > 1 && lookahead <= 0 {
		panic(fmt.Sprintf("sim: non-positive lookahead %v", lookahead))
	}
	for i, e := range engines {
		e.shard = i
	}
	return &Sharded{
		engines:   engines,
		lookahead: lookahead,
		outbox:    make([][]mail, len(engines)),
	}
}

// Engines returns the group's engines, indexed by shard.
func (sh *Sharded) Engines() []*Engine { return sh.engines }

// Lookahead returns the group's synchronization window span.
func (sh *Sharded) Lookahead() Time { return sh.lookahead }

// SendMail schedules fn on dst at src's now+d, crossing shards via the
// window barrier. It must be called from model code executing on src (its
// worker goroutine), and d must be at least the group lookahead — that is
// what makes barrier delivery sound. The birth key is drawn from src's
// current context exactly as a local schedule would, so the single-engine
// run and the sharded run consume identical counter sequences.
func (sh *Sharded) SendMail(src, dst *Engine, d Time, execLane uint32, label string, fn func()) {
	if d < sh.lookahead {
		panic(fmt.Sprintf("sim: cross-shard delay %v below lookahead %v", d, sh.lookahead))
	}
	bLane := src.curLane
	sh.outbox[src.shard] = append(sh.outbox[src.shard], mail{
		dst:      dst.shard,
		at:       src.now + d,
		bTime:    src.now,
		bIdx:     src.laneNext(bLane),
		bLane:    bLane,
		execLane: execLane,
		label:    label,
		fn:       fn,
	})
}

// minNext reports the earliest next-event time across the group.
func (sh *Sharded) minNext() (Time, bool) {
	var min Time
	any := false
	for _, e := range sh.engines {
		if next, ok := e.NextAt(); ok && (!any || next < min) {
			min, any = next, true
		}
	}
	return min, any
}

// deliver drains every outbox into the destination engines. Called only at
// the window barrier, when no worker is executing.
func (sh *Sharded) deliver() {
	for src, box := range sh.outbox {
		for i := range box {
			m := &box[i]
			sh.engines[m.dst].PushForeign(m.at, m.bTime, m.bLane, m.bIdx, m.execLane, m.label, m.fn)
			m.fn = nil
		}
		sh.outbox[src] = box[:0]
	}
}

// Run executes the group to quiescence: windows of [T, T+lookahead) with a
// barrier and mail delivery between them, until every queue and outbox is
// empty. At quiescence all engine clocks are aligned to the latest one (safe:
// nothing is left to execute) and executed-event counts are flushed into the
// process-wide and per-shard totals.
//
// A one-engine group runs straight through with Engine.Run: windows only
// order cross-shard mail, and there is none. With several engines and one
// scheduling thread (GOMAXPROCS=1), windows run inline on the caller — same
// window sequence, same mail traffic, no goroutines. Otherwise each engine
// gets a worker for the duration of the call.
//
// Stop on any engine ends the run early: at once on a one-engine group, at
// the next window barrier otherwise. Clocks are then left where each engine
// stopped.
func (sh *Sharded) Run() { sh.run(-1) }

// RunUntil executes the group's events with time ≤ deadline, leaving later
// events (and undelivered mail already beyond it) queued, and advances every
// clock to deadline.
func (sh *Sharded) RunUntil(deadline Time) {
	if deadline < 0 {
		panic("sim: negative deadline")
	}
	sh.run(deadline)
}

// run drives the group; deadline < 0 means run to quiescence.
func (sh *Sharded) run(deadline Time) {
	if len(sh.engines) == 1 {
		e := sh.engines[0]
		start := e.executed
		if deadline < 0 {
			e.Run()
		} else {
			e.RunUntil(deadline)
		}
		addShardExecuted(0, e.executed-start)
		return
	}
	starts := make([]uint64, len(sh.engines))
	for i, e := range sh.engines {
		starts[i] = e.executed
	}
	parallel := runtime.GOMAXPROCS(0) > 1
	if parallel {
		sh.startWorkers()
	}
	stopped := false
	for !stopped {
		T, ok := sh.minNext()
		if !ok || (deadline >= 0 && T > deadline) {
			break
		}
		end := T + sh.lookahead
		if deadline >= 0 && end > deadline+1 {
			// A shorter window than the lookahead is always safe; this one
			// stops exactly at the deadline (events at it still run).
			end = deadline + 1
		}
		if parallel {
			sh.runParallel(end)
		} else {
			for _, e := range sh.engines {
				e.RunWindow(end)
			}
		}
		sh.deliver()
		for _, e := range sh.engines {
			stopped = stopped || e.stopped
		}
	}
	if parallel {
		sh.stopWorkers()
	}
	maxNow := deadline // -1 when running to quiescence
	for _, e := range sh.engines {
		if e.now > maxNow {
			maxNow = e.now
		}
	}
	for i, e := range sh.engines {
		if !stopped {
			e.now = maxNow
		}
		e.curLane = 0
		d := e.executed - starts[i]
		totalExecuted.Add(d)
		addShardExecuted(i, d)
		e.stopIdle()
	}
}

// startWorkers spawns one window worker per engine beyond shard 0 (which the
// coordinator runs inline, so n shards use n OS-schedulable goroutines, not
// n+1 with an idle coordinator).
func (sh *Sharded) startWorkers() {
	sh.start = make([]chan Time, len(sh.engines))
	sh.done = make(chan struct{}, len(sh.engines))
	for i := 1; i < len(sh.engines); i++ {
		ch := make(chan Time)
		sh.start[i] = ch
		e := sh.engines[i]
		sh.wg.Add(1)
		go func() {
			defer sh.wg.Done()
			for end := range ch {
				e.RunWindow(end)
				sh.done <- struct{}{}
			}
		}()
	}
}

// runParallel executes one window on all engines concurrently and waits for
// the barrier. Shard 0 runs on the coordinator.
func (sh *Sharded) runParallel(end Time) {
	for i := 1; i < len(sh.engines); i++ {
		sh.start[i] <- end
	}
	sh.engines[0].RunWindow(end)
	for i := 1; i < len(sh.engines); i++ {
		<-sh.done
	}
}

func (sh *Sharded) stopWorkers() {
	for i := 1; i < len(sh.engines); i++ {
		close(sh.start[i])
	}
	sh.wg.Wait()
	sh.start = nil
	sh.done = nil
}

// Per-shard executed-event totals across every sharded run in the process,
// for the perf harness's utilization report. Guarded by a mutex rather than
// atomics: it is written once per Sharded.Run, not per event.
var (
	shardExecMu sync.Mutex
	shardExec   []uint64
)

func addShardExecuted(shard int, n uint64) {
	shardExecMu.Lock()
	defer shardExecMu.Unlock()
	if shard >= len(shardExec) {
		grown := make([]uint64, shard+1)
		copy(grown, shardExec)
		shardExec = grown
	}
	shardExec[shard] += n
}

// ShardExecuted returns a snapshot of per-shard fired-event totals summed
// over every sharded run so far in this process, indexed by shard.
func ShardExecuted() []uint64 {
	shardExecMu.Lock()
	defer shardExecMu.Unlock()
	out := make([]uint64, len(shardExec))
	copy(out, shardExec)
	return out
}
