package sim

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"
)

// The event core is allocation-free on the steady-state path: events live in
// a contiguous arena of slots recycled through a free list, future events
// wait in an instant queue (below), and callers hold lightweight value
// handles instead of pointers. Cancellation is lazy: a cancelled event stays
// queued until popped, and the queue compacts when cancelled events
// outnumber live ones.
//
// Ordering: every scheduled event carries a birth key — the simulated time
// of the scheduling call (bTime), the lane of the scheduling context
// (bLane), and that lane's monotone schedule counter (bIdx) — and same-time
// events fire in birth-key order. A lane is a logical event stream (the
// sharded cluster assigns one per node; lane 0 is the ambient default). For
// a single-lane engine the key order degenerates to exactly the seed
// engine's (at, seq) arrival order: bTime is nondecreasing in arrival order
// and bIdx breaks its ties in arrival order, so traces are bit-identical to
// the seed. The point of the richer key is the sharded engine (shard.go):
// it is assigned at birth from scheduler-local state only, so the same
// model run produces the same keys no matter how lanes are partitioned
// into shards — which is what makes bounded-window parallel execution
// deterministic.
//
// Instant queue: the total order (at, bTime, bLane, bIdx) splits by at, so
// future events are grouped into one record per distinct time (an instant),
// and a small binary heap orders the instants by at alone. An instant's
// events chain through eventSlot.next in push order; a push that arrives
// below the chain's tail in key order marks the instant unsorted, and the
// chain is sorted by key once, when its first event is popped. Pops then
// walk the chain. A simulated cluster runs in lockstep — a kernel's
// work-groups, or every node of a halo exchange, schedule at the same few
// instants — so thousands of queued events share a handful of times, and
// the queue orders a handful of records instead of sifting every event.
// An instant whose pushes all arrive in key order (a counter waking a
// kernel's work-groups that each sleep the same lag) is never sorted.

// eventSlot is one arena cell. A slot is either queued (its gen matches
// outstanding handles) or free (gen bumped, on the free list). Slots are
// freed before their callback runs, so self-cancellation during dispatch is
// a no-op, matching the seed engine's "cancelling a fired event does
// nothing" semantics. lane is the event's execution lane: the ambient lane
// its callback runs under (and therefore the birth lane of its children).
// next links the event's instant chain: the id+1 of the member queued
// behind this one, 0 for none (so a zero slot is a chain's tail). A future
// event's birth key (bTime, bLane, bIdx) orders it within its instant; it
// is compared in place by keyCmp, never copied. The fields a pop reads
// come first, the key last.
type eventSlot struct {
	at        Time
	fn        func()
	proc      *Proc // fast path: wake this process instead of calling a closure
	label     string
	lane      uint32
	gen       uint32
	next      int32
	bLane     uint32 // lane of the scheduling context
	bTime     Time   // simulated time of the scheduling call
	bIdx      uint64 // birth lane's monotone schedule counter
	cancelled bool
}

// instant is the record of one queued future time. Its events chain from
// head to tail in push order, or in key order once sorted; min is the
// key-minimal member (head once sorted), so a peek at the queue front sorts
// nothing unless it reclaims a cancelled min. hnext chains the records that
// share a bucket of Engine.buckets, or the free records.
type instant struct {
	at              Time
	head, tail, min int32
	hnext           int32 // record+1, 0 for none
	sorted          bool
}

// instEntry is an instant-heap entry; at rides inline so sifts never chase
// into the records.
type instEntry struct {
	at  Time
	rec int32
}

// Event is a cancellable handle to a scheduled event. It is a small value —
// copy it freely. The zero Event is inert: Cancel and Cancelled are no-ops
// on it, as they are on handles whose event has already fired or been
// reclaimed.
type Event struct {
	eng *Engine
	at  Time
	id  int32
	gen uint32
}

// At reports the time the event was scheduled for.
func (ev Event) At() Time { return ev.at }

// Cancel prevents the event from firing. Cancelling an event that has
// already fired or been cancelled is a no-op.
func (ev Event) Cancel() {
	e := ev.eng
	if e == nil {
		return
	}
	s := &e.arena[ev.id]
	if s.gen != ev.gen || s.cancelled {
		return
	}
	s.cancelled = true
	e.ncancelled++
	// Compact once cancelled entries outnumber live ones, but never bother
	// for tiny queues: the lazy pop-path drain reclaims those for free, and
	// eager reclamation would invalidate handles callers may still inspect.
	if e.ncancelled > 32 && e.ncancelled*2 > e.nfuture {
		e.compact()
	}
}

// Cancelled reports whether the event is currently cancelled and still
// queued. It is false for fired or reclaimed events.
func (ev Event) Cancelled() bool {
	e := ev.eng
	if e == nil {
		return false
	}
	s := &e.arena[ev.id]
	return s.gen == ev.gen && s.cancelled
}

// Engine is a deterministic discrete-event simulator. It is not safe for
// concurrent use; all model code runs on the engine's goroutine or in a
// process coroutine the engine has resumed and is blocked on (coroutines
// hand control back and forth, never run in parallel), so at most one
// piece of model code executes at any instant. Independent engines are
// fully isolated, so separate replicas may run on separate OS threads.
type Engine struct {
	now Time

	// curLane is the lane of the currently executing context: the executing
	// event's lane during dispatch, or whatever SetLane installed between
	// runs (0 by default). Newly scheduled events are stamped with it as
	// their birth lane and inherit it as their execution lane.
	curLane uint32
	// laneSeq holds one monotone schedule counter per lane; laneSeq[0] is
	// the seed engine's seq. Grown on demand, so single-lane engines pay
	// one slice cell.
	laneSeq []uint64
	// shard is this engine's index within a Sharded group (0 standalone).
	shard int

	arena []eventSlot
	free  []int32

	// The instant queue: records, recycled through the list freeInst
	// heads (record+1, chained through instant.hnext); the binary min-heap
	// iheap ordering them by at; and buckets, a hash table from a time to
	// its record (record+1 chained through instant.hnext; its length is a
	// power of two, 1<<(64-bucketShift)). The first table is bucket0,
	// inside the Engine. sortBuf is the scratch space of sortInstant.
	insts       []instant
	freeInst    int32
	iheap       []instEntry
	buckets     []int32
	bucket0     [16]int32
	bucketShift uint8
	sortBuf     []int32

	nfuture    int // events queued in instants, cancelled ones included
	ncancelled int
	executed   uint64
	resumes    uint64

	// nowq is the same-time fast path: events scheduled at the current
	// instant in a FIFO ring, bypassing the instant queue. This is sound
	// because birth-key ordering degenerates to FIFO for at == now (all
	// such events share bTime == now and counters grow in arrival order),
	// and no queued instant at the current time can hold an event younger
	// than a nowq entry — once the clock reaches T, scheduling at T lands
	// in nowq, never in T's instant, so the instant's events (bTime < T)
	// always predate (and outrank) every nowq entry. Process wakes — the
	// dominant event class — are exactly this shape.
	nowq     []int32
	nowqHead int

	// procs lists spawned processes in spawn order for the watchdog; dead
	// ones are compacted out when len reaches procsCompactAt (addProc).
	procs          []*Proc
	procsCompactAt int
	// idle holds coroutines whose process has returned, ready for the
	// next spawn (see coro).
	idle    []*coro
	stopped bool
	// gangs pools the records of Counter.Add's gang wakes.
	gangs []*gang

	// born is the birth time of the executing event (the simulated time
	// it was scheduled at), or the clock between runs. inStep is set while
	// an event's callback runs, and atEnd holds the AtEnd callbacks it
	// registered.
	born   Time
	inStep bool
	atEnd  []func()

	// Trace, when non-nil, receives a line per executed labeled event. Used
	// by determinism tests.
	Trace func(t Time, label string)
}

// reference forces the per-event reference forms of the closed forms the
// engine and the models take: one wake event per satisfied counter waiter
// instead of a gang, no store issued ahead of its time, and the NIC's
// per-write trigger pipeline. Only tests set it (export_test.go), to run a
// model both ways and compare every result.
var reference bool

// Reference reports whether the per-event reference forms are forced.
func Reference() bool { return reference }

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of live (non-cancelled) events in the queue.
func (e *Engine) Pending() int {
	return e.nfuture + (len(e.nowq) - e.nowqHead) - e.ncancelled
}

// Born reports the birth time of the executing event: the simulated time
// of the call that scheduled it. Between runs it is the clock. A model
// that keeps part of its state in closed form compares it with the birth
// times of the events it would have scheduled, to order them against the
// executing event as the engine would have (same time, earlier birth
// first).
func (e *Engine) Born() Time { return e.born }

// AtEnd runs fn once the executing event's callback (or process step) has
// returned, before the next event; outside an event it runs fn at once. A
// model that takes many updates in one event uses it to settle them once.
func (e *Engine) AtEnd(fn func()) {
	if !e.inStep {
		fn()
		return
	}
	e.atEnd = append(e.atEnd, fn)
}

// ScheduleBorn schedules fn at absolute time at on lane, as if the call
// that scheduled it had run at time born on that lane: among the events
// of its instant it takes the place such an event would. A model uses it
// for the one event that stands in for a chain of events it no longer
// schedules (born may then be later than the clock). An event at the
// current time joins the same-time FIFO like any other.
func (e *Engine) ScheduleBorn(at, born Time, lane uint32, fn func()) Event {
	if at <= e.now {
		return e.scheduleLane(at, "", fn, nil, lane)
	}
	id := e.allocSlot(at, "", fn, nil, lane)
	e.push(id, at, born, lane, e.laneNext(lane))
	return Event{eng: e, at: at, id: id, gen: e.arena[id].gen}
}

// Executed reports how many events this engine has fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Resumes reports how many times this engine has switched to a process
// coroutine: a process's start, each wake, and a killed process's unwind.
// Events that call plain callbacks resume nothing.
func (e *Engine) Resumes() uint64 { return e.resumes }

// totalExecuted aggregates fired-event counts across all engines in the
// process; Run flushes each engine's local count into it so the perf
// harness can compute fleet-wide events/sec without a per-event atomic.
// totalResumes does the same for coroutine resumes.
var totalExecuted, totalResumes atomic.Uint64

// TotalExecuted reports the number of events fired across every engine in
// this process (flushed when Run/RunUntil returns).
func TotalExecuted() uint64 { return totalExecuted.Load() }

// TotalResumes reports the number of coroutine resumes across every engine
// in this process (flushed when Run/RunUntil returns).
func TotalResumes() uint64 { return totalResumes.Load() }

// flushTotals adds what the engine fired and resumed since the given
// counts to the process-wide totals.
func (e *Engine) flushTotals(executed, resumes uint64) {
	totalExecuted.Add(e.executed - executed)
	totalResumes.Add(e.resumes - resumes)
}

// Schedule runs fn at absolute time at. Scheduling in the past panics:
// causality violations are always model bugs.
func (e *Engine) Schedule(at Time, fn func()) Event {
	return e.schedule(at, "", fn, nil)
}

// After runs fn after delay d from the current time.
func (e *Engine) After(d Time, fn func()) Event {
	return e.schedule(e.now+d, "", fn, nil)
}

// ScheduleNamed is Schedule with a label surfaced to Trace.
func (e *Engine) ScheduleNamed(at Time, label string, fn func()) Event {
	return e.schedule(at, label, fn, nil)
}

// AfterLane is After with an explicit execution lane for the scheduled
// event; the birth key still comes from the current context. The fabric
// uses it to re-lane a cross-node flight to its destination, so the
// delivery's downstream event chain is attributed to the receiving node.
func (e *Engine) AfterLane(d Time, execLane uint32, fn func()) Event {
	return e.scheduleLane(e.now+d, "", fn, nil, execLane)
}

// scheduleProc schedules a dispatch of p — the wake fast path. It stores
// the process on the event slot instead of allocating a closure, which
// keeps Sleep/wake allocation-free.
func (e *Engine) scheduleProc(at Time, label string, p *Proc) Event {
	return e.schedule(at, label, nil, p)
}

func (e *Engine) schedule(at Time, label string, fn func(), proc *Proc) Event {
	lane := e.curLane
	if proc != nil {
		// A process dispatch executes as that process, whatever scheduled it.
		lane = proc.lane
	}
	return e.scheduleLane(at, label, fn, proc, lane)
}

// scheduleLane is schedule with an explicit execution lane: the event's
// callback will run under execLane, while the birth key still comes from
// the scheduling context. The fabric uses it to re-lane cross-node flight
// events to their destination, so a delivery's downstream event chain is
// attributed to the receiving node's lane.
func (e *Engine) scheduleLane(at Time, label string, fn func(), proc *Proc, execLane uint32) Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	if fn == nil && proc == nil {
		panic("sim: scheduling nil event function")
	}
	bLane := e.curLane
	bIdx := e.laneNext(bLane)
	id := e.allocSlot(at, label, fn, proc, execLane)
	if at == e.now {
		e.nowq = append(e.nowq, id)
	} else {
		e.push(id, at, e.now, bLane, bIdx)
	}
	return Event{eng: e, at: at, id: id, gen: e.arena[id].gen}
}

// allocSlot takes a slot off the free list, or grows the arena, and fills
// it in.
func (e *Engine) allocSlot(at Time, label string, fn func(), proc *Proc, execLane uint32) int32 {
	var id int32
	if n := len(e.free); n > 0 {
		id = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.arena = append(e.arena, eventSlot{})
		id = int32(len(e.arena) - 1)
	}
	s := &e.arena[id]
	s.at, s.fn, s.proc, s.label, s.lane, s.cancelled, s.next = at, fn, proc, label, execLane, false, 0
	s.bTime = e.now // push overwrites it for a future event
	return id
}

// laneNext advances and returns the lane's schedule counter, growing the
// counter table on first use of a new lane. Growth goes through append so
// a cluster that opens its lanes one by one costs amortized O(1) per lane.
func (e *Engine) laneNext(lane uint32) uint64 {
	if n := int(lane) + 1; n > len(e.laneSeq) {
		e.laneSeq = append(e.laneSeq, make([]uint64, n-len(e.laneSeq))...)
	}
	e.laneSeq[lane]++
	return e.laneSeq[lane]
}

// SetLane installs the ambient lane for scheduling and spawning done outside
// any event context (model construction, setup between runs). The sharded
// cluster brackets each node's construction with it so the node's service
// processes and setup events are attributed to the node's lane.
func (e *Engine) SetLane(lane uint32) { e.curLane = lane }

// Lane reports the lane of the currently executing context.
func (e *Engine) Lane() uint32 { return e.curLane }

// PushForeign inserts an event born on another engine of the same sharded
// group, carrying its original birth key so same-time ordering matches the
// single-engine run. Only the shard coordinator calls it, between windows,
// when no engine is executing. The event must be in this engine's strict
// future (the lookahead window guarantees it).
func (e *Engine) PushForeign(at, bTime Time, bLane uint32, bIdx uint64, execLane uint32, label string, fn func()) {
	if at <= e.now {
		panic(fmt.Sprintf("sim: foreign event at %v not beyond now %v (lookahead violated)", at, e.now))
	}
	e.push(e.allocSlot(at, label, fn, nil, execLane), at, bTime, bLane, bIdx)
}

// freeSlot reclaims a slot: outstanding handles become stale (gen bump) and
// retained references are dropped.
func (e *Engine) freeSlot(id int32) {
	s := &e.arena[id]
	s.gen++
	s.fn = nil
	s.proc = nil
	s.label = ""
	e.free = append(e.free, id)
}

// drainCancelled pops cancelled entries off the fronts of both queues. It
// is the single place lazily-cancelled events are discarded on the pop
// path; both step and RunUntil peek through it. The front instant's min
// names its front event without sorting the instant.
func (e *Engine) drainCancelled() {
	if e.ncancelled == 0 {
		return
	}
	for len(e.iheap) > 0 && e.arena[e.insts[e.iheap[0].rec].min].cancelled {
		e.ncancelled--
		e.freeSlot(e.popFront())
	}
	for e.nowqHead < len(e.nowq) && e.arena[e.nowq[e.nowqHead]].cancelled {
		e.ncancelled--
		e.freeSlot(e.nowq[e.nowqHead])
		e.nowqAdvance()
	}
}

// nowqAdvance consumes the front nowq entry, resetting the ring when it
// empties so its capacity is reused.
func (e *Engine) nowqAdvance() {
	e.nowqHead++
	if e.nowqHead == len(e.nowq) {
		e.nowq = e.nowq[:0]
		e.nowqHead = 0
	}
}

// popNext removes and returns the slot of the next live event, assuming
// drainCancelled has run. An instant at the current time always wins over
// the nowq front (its events are necessarily older — see the nowq
// invariant); the nowq front wins over any later instant.
func (e *Engine) popNext() (int32, bool) {
	if len(e.iheap) > 0 && (e.iheap[0].at == e.now || e.nowqHead == len(e.nowq)) {
		return e.popFront(), true
	}
	if e.nowqHead < len(e.nowq) {
		id := e.nowq[e.nowqHead]
		e.nowqAdvance()
		return id, true
	}
	return 0, false
}

// step executes the next live event. It reports false when no live events
// remain.
func (e *Engine) step() bool {
	e.drainCancelled()
	id, ok := e.popNext()
	if !ok {
		return false
	}
	s := &e.arena[id]
	at, fn, proc, label := s.at, s.fn, s.proc, s.label
	lane, born := s.lane, s.bTime
	e.freeSlot(id)
	e.now, e.born = at, born
	e.curLane = lane
	e.executed++
	if e.Trace != nil && label != "" {
		e.Trace(e.now, label)
	}
	e.inStep = true
	if proc != nil {
		e.dispatch(proc)
	} else {
		fn()
	}
	e.inStep = false
	if len(e.atEnd) > 0 {
		e.runAtEnd()
	}
	return true
}

// runAtEnd runs the executing event's AtEnd callbacks in registration
// order; ones they register run in the same pass.
func (e *Engine) runAtEnd() {
	for i := 0; i < len(e.atEnd); i++ {
		fn := e.atEnd[i]
		e.atEnd[i] = nil
		fn()
	}
	e.atEnd = e.atEnd[:0]
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	start, resumed := e.executed, e.resumes
	for !e.stopped && e.step() {
	}
	e.curLane, e.born = 0, e.now
	e.flushTotals(start, resumed)
	e.stopIdle()
}

// RunWindow executes events with time strictly before end, leaving later
// events queued. Unlike RunUntil it does not advance the clock to end —
// window bookkeeping belongs to the sharded coordinator, and the next
// window's start is recomputed from the queues. The executed-event and
// resume flush into the process-wide totals is also the coordinator's job.
func (e *Engine) RunWindow(end Time) {
	e.stopped = false
	for !e.stopped {
		e.drainCancelled()
		next, ok := e.nextAt()
		if !ok || next >= end {
			return
		}
		e.step()
	}
}

// NextAt reports the time of the next live event; ok is false when the
// queue is empty.
func (e *Engine) NextAt() (Time, bool) {
	e.drainCancelled()
	return e.nextAt()
}

// RunUntil executes events with time ≤ deadline, leaving later events
// queued, and advances the clock to deadline if the simulation outlived it
// (unless Stop ended the run first).
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	start, resumed := e.executed, e.resumes
	for !e.stopped {
		e.drainCancelled()
		next, ok := e.nextAt()
		if !ok || next > deadline {
			break
		}
		e.step()
	}
	e.curLane = 0
	e.flushTotals(start, resumed)
	e.stopIdle()
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	e.born = e.now
}

// Stop makes Run/RunUntil return after the current event completes, with
// the clock left at that event.
func (e *Engine) Stop() { e.stopped = true }

// nextAt reports the time of the next live event, assuming drainCancelled
// has run. Any nowq entry is at the current time.
func (e *Engine) nextAt() (Time, bool) {
	if e.nowqHead < len(e.nowq) {
		return e.now, true
	}
	if len(e.iheap) > 0 {
		return e.iheap[0].at, true
	}
	return 0, false
}

// compact removes every lazily-cancelled event from both queues in one pass
// and re-establishes the heap invariant. Triggered when cancelled events
// outnumber live ones; ordering is unaffected because the birth key is a
// total order independent of queue layout, an instant's survivors keep
// their chain order, and the nowq filter preserves FIFO.
func (e *Engine) compact() {
	keep := e.iheap[:0]
	for _, h := range e.iheap {
		in := &e.insts[h.rec]
		// Re-link the survivors; link points at the field that names the
		// next survivor (first for the head).
		first := int32(0)
		link := &first
		for id := in.head + 1; id != 0; {
			s := &e.arena[id-1]
			next := s.next
			if s.cancelled {
				e.ncancelled--
				e.nfuture--
				e.freeSlot(id - 1)
			} else {
				if first == 0 || e.keyCmp(id-1, in.min) < 0 {
					in.min = id - 1
				}
				*link = id
				link = &s.next
				in.tail = id - 1
			}
			id = next
		}
		*link = 0
		if first == 0 {
			e.retire(h.rec)
			continue
		}
		in.head = first - 1
		keep = append(keep, h)
	}
	e.iheap = keep
	for i := len(e.iheap)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
	if e.nowqHead < len(e.nowq) {
		live := e.nowq[:0]
		for _, id := range e.nowq[e.nowqHead:] {
			if e.arena[id].cancelled {
				e.ncancelled--
				e.freeSlot(id)
			} else {
				live = append(live, id)
			}
		}
		e.nowq = live
		e.nowqHead = 0
	} else {
		e.nowq = e.nowq[:0]
		e.nowqHead = 0
	}
}

// push queues future event id under its birth key, appending it to the
// chain of its instant or opening a new instant.
func (e *Engine) push(id int32, at, bTime Time, bLane uint32, bIdx uint64) {
	s := &e.arena[id]
	s.bTime, s.bIdx, s.bLane = bTime, bIdx, bLane
	e.nfuture++
	if len(e.buckets) == 0 {
		// Sized for the few instants a cluster keeps queued, so a small
		// engine's queue allocates twice, not at every doubling.
		e.insts = make([]instant, 0, len(e.bucket0))
		e.iheap = make([]instEntry, 0, len(e.bucket0))
		e.rehash(e.bucket0[:])
	}
	b := e.bucket(at)
	r := *b
	for r != 0 && e.insts[r-1].at != at {
		r = e.insts[r-1].hnext
	}
	if r != 0 {
		in := &e.insts[r-1]
		e.arena[in.tail].next = id + 1
		if e.keyCmp(id, in.tail) < 0 {
			in.sorted = false
			if e.keyCmp(id, in.min) < 0 {
				in.min = id
			}
		}
		in.tail = id
		return
	}
	var rec int32
	if e.freeInst != 0 {
		rec = e.freeInst - 1
		e.freeInst = e.insts[rec].hnext
	} else {
		e.insts = append(e.insts, instant{})
		rec = int32(len(e.insts) - 1)
	}
	e.insts[rec] = instant{at: at, head: id, tail: id, min: id, hnext: *b, sorted: true}
	*b = rec + 1
	e.iheap = append(e.iheap, instEntry{at: at, rec: rec})
	for i := len(e.iheap) - 1; i > 0; {
		parent := (i - 1) / 2
		if e.iheap[parent].at <= at {
			break
		}
		e.iheap[i], e.iheap[parent] = e.iheap[parent], e.iheap[i]
		i = parent
	}
	if len(e.iheap) > len(e.buckets) {
		e.rehash(make([]int32, 2*len(e.buckets)))
	}
}

// popFront removes and returns the key-minimal event of the earliest
// instant, sorting the instant first if a push arrived out of key order.
// Popping its last event retires the instant.
func (e *Engine) popFront() int32 {
	rec := e.iheap[0].rec
	in := &e.insts[rec]
	if !in.sorted {
		e.sortInstant(in)
	}
	id := in.head
	e.nfuture--
	if next := e.arena[id].next; next != 0 {
		in.head, in.min = next-1, next-1
		return id
	}
	e.retire(rec)
	n := len(e.iheap) - 1
	e.iheap[0] = e.iheap[n]
	e.iheap = e.iheap[:n]
	e.siftDown(0)
	return id
}

// sortInstant puts an instant's chain in birth-key order.
func (e *Engine) sortInstant(in *instant) {
	buf := e.sortBuf[:0]
	for id := in.head + 1; id != 0; id = e.arena[id-1].next {
		buf = append(buf, id-1)
	}
	slices.SortFunc(buf, e.keyCmp)
	for i, id := range buf[1:] {
		e.arena[buf[i]].next = id + 1
	}
	in.head, in.tail, in.min, in.sorted = buf[0], buf[len(buf)-1], buf[0], true
	e.arena[in.tail].next = 0
	e.sortBuf = buf
}

// keyCmp compares the birth keys of queued slots a and b.
func (e *Engine) keyCmp(a, b int32) int {
	ka, kb := &e.arena[a], &e.arena[b]
	if ka.bTime != kb.bTime {
		return cmp.Compare(ka.bTime, kb.bTime)
	}
	if ka.bLane != kb.bLane {
		return cmp.Compare(ka.bLane, kb.bLane)
	}
	return cmp.Compare(ka.bIdx, kb.bIdx)
}

// retire unhooks an emptied instant's record from its bucket and frees it;
// the caller removes its heap entry.
func (e *Engine) retire(rec int32) {
	link := e.bucket(e.insts[rec].at)
	for *link != rec+1 {
		link = &e.insts[*link-1].hnext
	}
	*link = e.insts[rec].hnext
	e.insts[rec].hnext = e.freeInst
	e.freeInst = rec + 1
}

// bucket returns the head of the record chain that time at hashes to.
// Fibonacci hashing takes the product's top bits, so times that are
// multiples of a round unit still spread.
func (e *Engine) bucket(at Time) *int32 {
	return &e.buckets[uint64(at)*0x9E3779B97F4A7C15>>e.bucketShift]
}

// rehash moves the queued instants onto the empty table b, whose length is
// a power of two; push doubles the table once instants outnumber buckets.
func (e *Engine) rehash(b []int32) {
	e.buckets = b
	e.bucketShift = uint8(64 - bits.TrailingZeros(uint(len(b))))
	for _, h := range e.iheap {
		head := e.bucket(h.at)
		e.insts[h.rec].hnext = *head
		*head = h.rec + 1
	}
}

func (e *Engine) siftDown(i int) {
	h := e.iheap
	n := len(h)
	for {
		min := 2*i + 1
		if min >= n {
			return
		}
		if c := min + 1; c < n && h[c].at < h[min].at {
			min = c
		}
		if h[i].at <= h[min].at {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}
