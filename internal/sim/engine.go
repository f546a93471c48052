package sim

import (
	"fmt"
	"sync/atomic"
)

// The event core is allocation-free on the steady-state path: events live in
// a contiguous arena of slots recycled through a free list, the ready queue
// is a 4-ary min-heap of inline key entries, and callers hold lightweight
// value handles instead of pointers. Cancellation is lazy: a cancelled event
// stays queued until popped, and the queue compacts when cancelled events
// outnumber live ones.
//
// Ordering: every scheduled event carries a birth key — the simulated time
// of the scheduling call (bTime), the lane of the scheduling context
// (bLane), and that lane's monotone schedule counter (bIdx) — and the heap
// orders same-time events by it. A lane is a logical event stream (the
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
// Same-birth runs: consecutive heap pushes that share (at, bTime, bLane) —
// a counter waking a kernel's work-groups that each sleep the same lag, or
// each posting an MMIO flight of the same latency — ride one heap entry.
// Such events are one contiguous range of the birth-key order, ordered by
// push order inside it, so the later ones chain behind the first through
// eventSlot.next and skip the heap. Popping a run's head promotes the next
// member into heap[0] without a sift: it is the new global minimum.

// eventSlot is one arena cell. A slot is either queued (its gen matches
// outstanding handles) or free (gen bumped, on the free list). Slots are
// freed before their callback runs, so self-cancellation during dispatch is
// a no-op, matching the seed engine's "cancelling a fired event does
// nothing" semantics. lane is the event's execution lane: the ambient lane
// its callback runs under (and therefore the birth lane of its children).
// next links a same-birth run: the id+1 of the member queued behind this
// one, 0 for none (so a zero slot is a run's tail).
type eventSlot struct {
	at        Time
	fn        func()
	proc      *Proc // fast path: wake this process instead of calling a closure
	label     string
	lane      uint32
	gen       uint32
	cancelled bool
	next      int32
}

// heapEntry carries the ordering key inline so sift comparisons never chase
// into the arena. For a same-birth run, id is the run's front member while
// bIdx stays the run head's counter: every member of the run sorts between
// the same neighbours as its head, so the head's key orders all of them.
type heapEntry struct {
	at    Time
	bTime Time   // simulated time of the scheduling call
	bIdx  uint64 // birth lane's monotone schedule counter
	bLane uint32 // lane of the scheduling context
	id    int32
}

func (a heapEntry) less(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.bTime != b.bTime {
		return a.bTime < b.bTime
	}
	if a.bLane != b.bLane {
		return a.bLane < b.bLane
	}
	return a.bIdx < b.bIdx
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
	if e.ncancelled > 32 && e.ncancelled*2 > e.nheap {
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

	arena      []eventSlot
	free       []int32
	heap       []heapEntry
	nheap      int // events queued through the heap, run members included
	ncancelled int
	executed   uint64

	// run is the open same-birth run: the last heap push's key and its
	// slot (id+1, 0 for none) with the generation it was queued under, so
	// a tail reclaimed since (cancelled and drained) is never joined.
	run struct {
		at, bTime Time
		lane      uint32
		tail      int32
		gen       uint32
	}

	// nowq is the same-time fast path: events scheduled at the current
	// instant in a FIFO ring, bypassing the heap. This is sound because
	// birth-key ordering degenerates to FIFO for at == now (all such events
	// share bTime == now and counters grow in arrival order), and no heap
	// entry at the current time can be younger than a nowq entry — once the
	// clock reaches T, scheduling at T lands in nowq, never the heap, so
	// heap entries at T (bTime < T) always predate (and outrank) every nowq
	// entry. Process wakes — the dominant event class — are exactly this
	// shape.
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

	// Trace, when non-nil, receives a line per executed labeled event. Used
	// by determinism tests.
	Trace func(t Time, label string)
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of live (non-cancelled) events in the queue.
func (e *Engine) Pending() int {
	return e.nheap + (len(e.nowq) - e.nowqHead) - e.ncancelled
}

// Executed reports how many events this engine has fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// totalExecuted aggregates fired-event counts across all engines in the
// process; Run flushes each engine's local count into it so the perf
// harness can compute fleet-wide events/sec without a per-event atomic.
var totalExecuted atomic.Uint64

// TotalExecuted reports the number of events fired across every engine in
// this process (flushed when Run/RunUntil returns).
func TotalExecuted() uint64 { return totalExecuted.Load() }

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
	if at == e.now {
		e.nowq = append(e.nowq, id)
		return Event{eng: e, at: at, id: id, gen: s.gen}
	}
	e.nheap++
	r := &e.run
	if r.tail != 0 && r.at == at && r.bTime == e.now && r.lane == bLane && e.arena[r.tail-1].gen == r.gen {
		e.arena[r.tail-1].next = id + 1
	} else {
		r.at, r.bTime, r.lane = at, e.now, bLane
		e.heapPush(heapEntry{at: at, bTime: e.now, bIdx: bIdx, bLane: bLane, id: id})
	}
	r.tail, r.gen = id+1, s.gen
	return Event{eng: e, at: at, id: id, gen: s.gen}
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
// future (the lookahead window guarantees it). It never joins a same-birth
// run and closes the open one: its birth lane belongs to another engine,
// so it can share no local run's key.
func (e *Engine) PushForeign(at, bTime Time, bLane uint32, bIdx uint64, execLane uint32, label string, fn func()) {
	if at <= e.now {
		panic(fmt.Sprintf("sim: foreign event at %v not beyond now %v (lookahead violated)", at, e.now))
	}
	var id int32
	if n := len(e.free); n > 0 {
		id = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.arena = append(e.arena, eventSlot{})
		id = int32(len(e.arena) - 1)
	}
	s := &e.arena[id]
	s.at, s.fn, s.proc, s.label, s.lane, s.cancelled, s.next = at, fn, nil, label, execLane, false, 0
	e.nheap++
	e.run.tail = 0
	e.heapPush(heapEntry{at: at, bTime: bTime, bIdx: bIdx, bLane: bLane, id: id})
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
// path; both step and RunUntil peek through it.
func (e *Engine) drainCancelled() {
	for len(e.heap) > 0 && e.arena[e.heap[0].id].cancelled {
		e.ncancelled--
		e.freeSlot(e.heapPop())
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
// drainCancelled has run. A heap entry at the current time always wins over
// the nowq front (it is necessarily older — see the nowq invariant); the
// nowq front wins over any later-time heap entry.
func (e *Engine) popNext() (int32, bool) {
	if len(e.heap) > 0 && (e.heap[0].at == e.now || e.nowqHead == len(e.nowq)) {
		return e.heapPop(), true
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
	lane := s.lane
	e.freeSlot(id)
	e.now = at
	e.curLane = lane
	e.executed++
	if e.Trace != nil && label != "" {
		e.Trace(e.now, label)
	}
	if proc != nil {
		e.dispatch(proc)
	} else {
		fn()
	}
	return true
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	start := e.executed
	for !e.stopped && e.step() {
	}
	e.curLane = 0
	totalExecuted.Add(e.executed - start)
	e.stopIdle()
}

// RunWindow executes events with time strictly before end, leaving later
// events queued. Unlike RunUntil it does not advance the clock to end —
// window bookkeeping belongs to the sharded coordinator, and the next
// window's start is recomputed from the queues. The executed-event flush
// into the process-wide total is also the coordinator's job.
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
	start := e.executed
	for !e.stopped {
		e.drainCancelled()
		next, ok := e.nextAt()
		if !ok || next > deadline {
			break
		}
		e.step()
	}
	e.curLane = 0
	totalExecuted.Add(e.executed - start)
	e.stopIdle()
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
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
	if len(e.heap) > 0 {
		return e.heap[0].at, true
	}
	return 0, false
}

// compact removes every lazily-cancelled event from both queues in one pass
// and re-establishes the heap invariant. Triggered when cancelled events
// outnumber live ones; ordering is unaffected because the birth key is a
// total order independent of heap layout, a run's survivors keep their
// chain order, and the nowq filter preserves FIFO.
func (e *Engine) compact() {
	keep := e.heap[:0]
	for _, h := range e.heap {
		// Re-link the run's survivors; link points at the field that
		// names the next survivor (the entry's id+1 for the first).
		first := int32(0)
		link := &first
		for id := h.id + 1; id != 0; {
			s := &e.arena[id-1]
			next := s.next
			if s.cancelled {
				e.ncancelled--
				e.nheap--
				e.freeSlot(id - 1)
			} else {
				*link = id
				link = &s.next
			}
			id = next
		}
		*link = 0
		if first != 0 {
			h.id = first - 1
			keep = append(keep, h)
		}
	}
	e.heap = keep
	for i := (len(e.heap) - 2) / 4; i >= 0; i-- {
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

// The ready queue is a 4-ary min-heap: shallower than a binary heap (fewer
// cache-missing levels per sift) at the cost of up to three extra
// comparisons per level, a good trade for the sim's push/pop mix.

func (e *Engine) heapPush(h heapEntry) {
	e.heap = append(e.heap, h)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.heap[i].less(e.heap[parent]) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

// heapPop removes and returns the slot id of the minimum event. A run's
// next member takes the head's place without a sift: it shares the head's
// key, so it is the new minimum.
func (e *Engine) heapPop() int32 {
	id := e.heap[0].id
	e.nheap--
	if next := e.arena[id].next; next != 0 {
		e.heap[0].id = next - 1
		return id
	}
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	if n > 1 {
		e.siftDown(0)
	}
	return id
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].less(h[min]) {
				min = c
			}
		}
		if !h[min].less(h[i]) {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}
