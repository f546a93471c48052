//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated process: a body run on a coroutine (iter.Pull) whose
// execution is strictly interleaved with the event loop. The engine resumes
// it with the coroutine's next and it hands control back with yield, so at
// most one process (or event callback) runs at a time, model code needs no
// locking, and behaves deterministically.
//
// A process blocks by calling one of the park-based primitives (Sleep,
// Signal.Wait, Queue.Pop, ...). While parked it consumes no simulated time
// beyond what the wakeup condition implies.
//
// A queue server (Queue.Serve) is a process whose body drains its queue
// and returns. It then goes idle rather than dead: it keeps its place in
// the engine's process list but holds no coroutine, and the queue's next
// Push dispatches it again from the top.
//
// A stackless process (GoStep) has no body and no coroutine: a step
// function runs on the engine's goroutine at its start and at each wake,
// and waits through the Await forms of the primitives (After,
// Counter.AwaitGE, AwaitGEAfter, AwaitGEUntil, Resource.AwaitAcquire),
// which schedule exactly what their parking twins schedule and return
// instead of parking.
//
// Model code must not recover() the kill sentinel: Engine.Kill unwinds a
// parked process by panicking with it, and a process that swallowed it
// would keep running after its node crashed.
type Proc struct {
	eng  *Engine
	name string
	// fn is the process body and co the coroutine running it, assigned at
	// first dispatch. Both are dropped when the process exits so a dead
	// process retains none of its closures; an idle server keeps fn and
	// drops co.
	fn func(p *Proc)
	co *coro
	// step is a stackless process's step function (GoStep), dropped when
	// the process exits; started is set at its first call.
	step    func(p *Proc) bool
	started bool
	// server marks a queue server; idle is set while it has no coroutine
	// and no dispatch pending (its queue is drained).
	server, idle bool
	dead         bool
	// killed marks a process condemned by Engine.Kill; it exits at its
	// next resume instead of running model code.
	killed bool
	// untilSet marks a deadline wait in flight (AwaitGEUntil) whose
	// deadline event is the arena slot untilID at generation untilGen (a
	// whole Event handle would move Proc up a size class); reached
	// reports how the last deadline wait ended (Reached).
	untilSet, reached bool
	untilID           int32
	untilGen          uint32
	// panicked holds a model panic recovered at the coroutine boundary,
	// re-raised on the engine's goroutine once onExit has run.
	panicked any
	// labels holds the wake and sleep0 labels, built lazily (and only
	// while Trace is installed) so the wake fast path never concatenates
	// strings per event in untraced runs.
	labels *[2]string
	// waiting, when non-nil, records the condition wait the process is
	// parked on; the watchdog reads it to diagnose quiescent simulations.
	// It always points at waitBuf, which is reused across parks so the
	// park fast path allocates nothing.
	waiting *waitState
	waitBuf waitState
	// pend is the step a Counter.WaitGEAfter left for its wake event: the
	// event's dispatch applies the store and resumes the process only if
	// the counter has reached the target (landStore). Or it is a store
	// booked ahead (c nil), which a Kill before its time withdraws.
	pend pendingStore
	// acq is a stackless AwaitAcquire request queued for admission on
	// acqRes; the dispatch that resumes the process takes it off, and a
	// Kill returns what it holds.
	acq    *resWaiter
	acqRes *Resource
	// onExit callbacks run when the process terminates for any reason —
	// normal return, panic, or a Kill (including one that lands before the
	// body ever ran, when no coroutine exists yet). They run after the
	// body's deferred functions. Join counting uses this to stay accurate
	// across crashes.
	onExit []func()
	// lane is the execution lane every event scheduled for this process
	// runs under (and therefore the birth lane of events the process
	// schedules while running). Fixed at spawn time.
	lane uint32
}

// coro is a process coroutine. It outlives the process it runs: when a
// body returns (a process exits, or a queue server drains its queue and
// goes idle), the coroutine goes back on its engine's idle list and runs
// the next process dispatched without one. A new iter.Pull costs a
// goroutine and about a dozen allocations, and under the race detector an
// exited coroutine's detector state is never freed (Go 1.24's coroexit
// skips racegoend), so reuse keeps both costs per peak process count, not
// per spawn. Run, RunUntil and the Sharded runs stop the idle coroutines
// before returning, so none outlives a run.
type coro struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// p is the process running on the coroutine; nil once its body has
	// returned (the coroutine is then idle).
	p *Proc
}

// loop is the coroutine body: run the assigned process, then wait idle
// for the next one until stopped.
func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.p.run()
		c.p = nil
		if !yield(struct{}{}) {
			return
		}
	}
}

// procKilled is the sentinel park panics with in a killed process. It is
// recovered at the coroutine boundary (Proc.run) and never reaches the
// engine.
type procKilled struct{}

// Lane returns the process's execution lane.
func (p *Proc) Lane() uint32 { return p.lane }

// Name returns the label given at spawn time.
func (p *Proc) Name() string { return p.name }

// Dead reports whether the process has terminated or been condemned by
// Engine.Kill.
func (p *Proc) Dead() bool { return p.dead || p.killed }

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulation time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Go spawns a process. fn starts executing at the current simulation time,
// after already-queued events at this time have run. The process inherits
// the engine's current lane (the lane of the scheduling context).
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	return e.GoLane(e.curLane, name, fn)
}

// GoLane spawns a process pinned to an explicit execution lane. All events
// that resume the process, and all events it schedules while running, carry
// this lane. The process gets no coroutine until it is first dispatched.
func (e *Engine) GoLane(lane uint32, name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, fn: fn, lane: lane}
	e.addProc(p)
	startLabel := ""
	if e.Trace != nil {
		startLabel = "start:" + name
	}
	e.scheduleProc(e.now, startLabel, p)
	return p
}

// GoStep spawns a stackless process on the engine's current lane. step
// runs on the engine's goroutine at the process's start (the start event
// Go schedules) and again at each dispatch after: it reports true when it
// has begun a wait (After, or an Await form of a primitive that reported
// true), whose end runs it again, and false when the process is done.
// Nothing a step calls may park. A Kill runs step once more, at the
// kill's dispatch and with Dead reporting true, if the process has
// started, so it can release what it holds where a body's deferred
// functions would run; its result is ignored. Dispatches resume no
// coroutine, so Resumes does not count them.
func (e *Engine) GoStep(name string, step func(p *Proc) bool) *Proc {
	p := &Proc{eng: e, name: name, step: step, lane: e.curLane}
	e.addProc(p)
	startLabel := ""
	if e.Trace != nil {
		startLabel = "start:" + name
	}
	e.scheduleProc(e.now, startLabel, p)
	return p
}

// newServer registers an idle queue server in spawn order. It has no
// coroutine and schedules nothing until its queue's next Push.
func (e *Engine) newServer(lane uint32, name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, fn: fn, lane: lane, server: true, idle: true}
	e.addProc(p)
	return p
}

// addProc records p in spawn order for the watchdog. Dead processes are
// compacted out once the slice has doubled since the last compaction, so
// the table stays proportional to the live population however many
// short-lived processes a run spawns, and live processes keep their order.
func (e *Engine) addProc(p *Proc) {
	if len(e.procs) >= e.procsCompactAt {
		live := e.procs[:0]
		for _, q := range e.procs {
			if !q.dead {
				live = append(live, q)
			}
		}
		clear(e.procs[len(live):])
		e.procs = live
		e.procsCompactAt = max(64, 2*len(live))
	}
	e.procs = append(e.procs, p)
}

// run runs the process body on its coroutine and recovers at the
// coroutine boundary, discarding the kill sentinel and keeping any other
// panic for dispatch to re-raise.
func (p *Proc) run() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procKilled); !ok {
				p.panicked = r
			}
		}
	}()
	p.fn(p)
}

// wakeLbl returns the process's wake label for traced engines ("" when no
// Trace is installed, skipping the per-wake string concatenation).
func (p *Proc) wakeLbl() string {
	if p.eng.Trace == nil {
		return ""
	}
	return p.label(0, "wake:")
}

// sleep0Lbl is wakeLbl for zero-length sleeps.
func (p *Proc) sleep0Lbl() string {
	if p.eng.Trace == nil {
		return ""
	}
	return p.label(1, "sleep0:")
}

// label returns labels[i], building it from prefix and the name on first
// use.
func (p *Proc) label(i int, prefix string) string {
	if p.labels == nil {
		p.labels = new([2]string)
	}
	if p.labels[i] == "" {
		p.labels[i] = prefix + p.name
	}
	return p.labels[i]
}

// dispatch resumes p and blocks the engine until p parks or terminates.
// It must only be called from the event loop (an event callback). The
// process gets its coroutine here, at first dispatch (a server, at each
// dispatch after it went idle); a process killed before that never gets
// one and just runs its onExit callbacks. A server whose body returned
// goes idle instead of exiting.
func (e *Engine) dispatch(p *Proc) {
	if p.dead {
		return
	}
	if p.pend.w != nil && p.pend.c == nil {
		p.pend = pendingStore{} // a booked store's time has come: it stands
	}
	if p.pend.c != nil && !p.landStore() {
		return // now waiting on the counter
	}
	if p.step != nil {
		p.runStep()
		return
	}
	if p.co == nil && !p.killed {
		p.co = e.idleCoro()
		p.co.p = p
	}
	if c := p.co; c != nil {
		e.resumes++
		c.next()
		if c.p == p {
			return // parked
		}
		e.idle = append(e.idle, c)
		if p.server && !p.killed && p.panicked == nil {
			p.co, p.idle = nil, true
			return
		}
	}
	p.exit()
}

// runStep is dispatch for a stackless process: it does what a parked
// process's wait does after its park returns (clear the watchdog
// annotation, take a granted admission, cancel a met deadline), then runs
// the step, and exits the process when the step is done or it was killed.
// A model panic in the step is surfaced as a process body's is.
func (p *Proc) runStep() {
	p.waiting = nil
	p.waitBuf = waitState{}
	if w := p.acq; w != nil {
		if !w.granted && !p.killed {
			return // not admitted yet
		}
		r := p.acqRes
		p.acq, p.acqRes = nil, nil
		if p.killed {
			r.abandon(w)
		}
	}
	if p.untilSet && !p.killed {
		p.endUntil()
	}
	p.untilSet = false
	if p.killed && !p.started {
		p.exit()
		return
	}
	defer func() {
		if r := recover(); r != nil {
			p.panicked = r
			p.exit()
		}
	}()
	killed := p.killed
	p.started = true
	if p.step(p) && !killed {
		return
	}
	p.exit()
}

// idleCoro takes a coroutine off the idle list, or starts one.
func (e *Engine) idleCoro() *coro {
	if n := len(e.idle); n > 0 {
		c := e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		return c
	}
	c := &coro{}
	c.next, c.stop = iter.Pull(c.loop)
	return c
}

// stopIdle ends every idle coroutine's goroutine.
func (e *Engine) stopIdle() {
	for i, c := range e.idle {
		c.stop()
		e.idle[i] = nil
	}
	e.idle = e.idle[:0]
}

// exit marks a terminated process dead, drops its coroutine and closures,
// runs its onExit callbacks in registration order on the engine's
// goroutine, and then surfaces a model panic.
func (p *Proc) exit() {
	p.dead = true
	p.fn, p.co, p.step = nil, nil, nil
	onExit := p.onExit
	p.onExit = nil
	for _, fn := range onExit {
		fn()
	}
	if p.panicked != nil {
		panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, p.panicked))
	}
}

// park suspends the calling process until the next dispatch by yielding
// its coroutine back to the event loop. A process condemned by Engine.Kill
// panics here with the kill sentinel, which runs its deferred functions
// (join-counter bumps, cleanup) innermost first on the way out to the
// coroutine boundary, where it is recovered.
func (p *Proc) park() {
	if p.co == nil {
		panic(fmt.Sprintf("sim: stackless process %q cannot park", p.name))
	}
	p.co.yield(struct{}{})
	if p.killed {
		panic(procKilled{})
	}
}

// Kill condemns a process: at its next resume it unwinds with the kill
// sentinel (running deferred functions) instead of continuing model code.
// Kill is asynchronous — it schedules a wake at the current time — and
// idempotent; killing a dead process is a no-op. It models a node crash
// taking down the processes bound to it: any condition the process was
// waiting on is simply abandoned (primitives tolerate dead waiters).
func (e *Engine) Kill(p *Proc) {
	if p == nil || p.dead || p.killed {
		return
	}
	p.killed = true
	if s := p.pend; s.c == nil && s.w != nil && Time(s.target) >= e.now {
		// The store was booked for a time the process does not live to.
		s.w.(AheadWriter).Withdraw(s.tag, Time(s.target))
		p.pend = pendingStore{}
	}
	e.scheduleProc(e.now, "kill:"+p.name, p)
}

// OnExit registers a callback invoked when the process terminates —
// normal completion, panic, or Kill, including a Kill that lands before
// the body's first instruction. Callbacks run in registration order,
// before the engine learns of the termination.
func (p *Proc) OnExit(fn func()) { p.onExit = append(p.onExit, fn) }

// parkWaiting is park with a watchdog annotation: while parked, the process
// is reported by Engine.BlockedWaiters as blocked on the given condition.
func (p *Proc) parkWaiting(kind string, detail func() string) {
	p.waitBuf = waitState{kind: kind, detail: detail}
	p.waiting = &p.waitBuf
	p.park()
	p.waiting = nil
	p.waitBuf = waitState{}
}

// parkAwait parks p on the wait an Await form just began, then clears the
// watchdog annotation that form set.
func (p *Proc) parkAwait() {
	p.park()
	p.waiting = nil
	p.waitBuf = waitState{}
}

// wake schedules a dispatch of p at the engine's current time. It is the
// building block used by all synchronization primitives.
func (p *Proc) wake(label string) {
	p.eng.scheduleProc(p.eng.now, label, p)
}

// Sleep suspends the process for duration d of simulated time.
func (p *Proc) Sleep(d Time) {
	p.After(d)
	p.park()
}

// After is Sleep for a stackless process: it schedules the wake Sleep
// schedules and returns; the process's next step runs at it.
func (p *Proc) After(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if d == 0 {
		// Still a wake, so that a zero-length sleep is a scheduling point.
		p.wake(p.sleep0Lbl())
		return
	}
	e := p.eng
	e.scheduleProc(e.now+d, p.wakeLbl(), p)
}

// endUntil ends a deadline wait at the process's wake: the deadline event
// of a wait that was met is cancelled, as it never fires.
func (p *Proc) endUntil() {
	if p.reached {
		Event{eng: p.eng, id: p.untilID, gen: p.untilGen}.Cancel()
	}
	p.untilSet = false
}

// Reached reports how the process's last deadline wait (AwaitGEUntil, or
// WaitGEUntil) ended: true when the counter reached its target, false
// when the deadline passed first.
func (p *Proc) Reached() bool { return p.reached }

// SleepUntil suspends the process until absolute time t. If t is in the
// past it panics.
func (p *Proc) SleepUntil(t Time) {
	p.Sleep(t - p.eng.Now())
}

// Yield reschedules the process at the current time, letting other
// same-time events run first.
func (p *Proc) Yield() { p.Sleep(0) }
