package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// This file checks the arena event queue against an ordering oracle: the
// seed engine's queue, a container/heap binary min-heap of per-event
// allocations ordered by (at, seq). Both queues see the same operation
// stream — schedules (including same-time schedules that exercise the nowq
// fast path), cancellations, and pops — and must fire events in exactly
// the same order. Any divergence, even among same-time events, is a
// regression against the seed engine's total order.

// refEvent mirrors the seed engine's *Event: one heap node per schedule.
type refEvent struct {
	at        Time
	seq       uint64
	id        int
	cancelled bool
	index     int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// refQueue is the reference scheduler: push assigns sequence numbers in
// arrival order exactly like Engine.schedule does.
type refQueue struct {
	h   refHeap
	seq uint64
}

func (q *refQueue) push(at Time, id int) *refEvent {
	q.seq++
	ev := &refEvent{at: at, seq: q.seq, id: id}
	heap.Push(&q.h, ev)
	return ev
}

// pop removes the next live event, skipping lazily-cancelled ones the way
// the seed engine's step did.
func (q *refQueue) pop() (*refEvent, bool) {
	for q.h.Len() > 0 {
		ev := heap.Pop(&q.h).(*refEvent)
		if ev.cancelled {
			continue
		}
		return ev, true
	}
	return nil, false
}

// TestDifferentialQueueOrder drives 10k random schedule/cancel/pop
// operations (20 seeds x 500 ops) through the arena engine and the
// reference heap in lockstep and requires identical fire order.
func TestDifferentialQueueOrder(t *testing.T) {
	const (
		trials      = 20
		opsPerTrial = 500
	)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		e := NewEngine()
		ref := &refQueue{}

		var got, want []int
		handles := make(map[int]Event)
		refEvs := make(map[int]*refEvent)
		var outstanding []int
		nextID := 0

		schedule := func(at Time) {
			id := nextID
			nextID++
			handles[id] = e.Schedule(at, func() { got = append(got, id) })
			refEvs[id] = ref.push(at, id)
			outstanding = append(outstanding, id)
		}
		pop := func() {
			fired := e.step()
			rev, ok := ref.pop()
			if fired != ok {
				t.Fatalf("trial %d: engine fired=%v but reference fired=%v", trial, fired, ok)
			}
			if ok {
				want = append(want, rev.id)
			}
		}

		for op := 0; op < opsPerTrial; op++ {
			switch r := rng.Intn(10); {
			case r < 5:
				// Schedule; a quarter land exactly at the current time to
				// exercise the nowq fast path against the heap.
				at := e.Now()
				if rng.Intn(4) != 0 {
					at += Time(rng.Intn(200))
				}
				schedule(at)
			case r < 7:
				// Cancel a random previously scheduled event. Cancelling an
				// already-fired event must be a no-op on both sides: the
				// engine's handle is stale (generation bumped), and the
				// reference event has already left the heap.
				if len(outstanding) > 0 {
					k := rng.Intn(len(outstanding))
					id := outstanding[k]
					outstanding[k] = outstanding[len(outstanding)-1]
					outstanding = outstanding[:len(outstanding)-1]
					handles[id].Cancel()
					refEvs[id].cancelled = true
				}
			default:
				pop()
			}
		}
		// Drain both queues to the end.
		for e.step() {
			rev, ok := ref.pop()
			if !ok {
				t.Fatalf("trial %d: engine fired an event the reference queue does not have", trial)
			}
			want = append(want, rev.id)
		}
		if _, ok := ref.pop(); ok {
			t.Fatalf("trial %d: reference queue still has live events after engine drained", trial)
		}

		if len(got) != len(want) {
			t.Fatalf("trial %d: fired %d events, reference fired %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: fire order diverges at position %d: engine fired event %d, reference fired event %d",
					trial, i, got[i], want[i])
			}
		}
	}
}

// The birth-order oracle below extends the check to everything the
// single-lane reference above never exercises: events scheduled from
// callbacks on several lanes, 64-wide same-delay fan-outs (the work-group
// shape, which lands in one instant in key order), cancels of a fan-out's
// head, middle and tail, compaction of a part-cancelled instant, foreign
// events pushed with another engine's birth keys, and peeks (NextAt) at
// the queue front, each followed by a push into the peeked instant from
// another engine or from several lanes in descending lane order, a push at
// an earlier time, or cancels among the peeked instant's events. The oracle
// models the engine's documented semantics with no instants: a set of
// future events ordered by the full birth key (at, bTime, bLane, bIdx), a
// FIFO of same-instant events, lazy reclamation of cancelled events at the
// queue fronts, and compaction once cancelled events outnumber the live
// future events. After every operation the engine's pop order, Pending()
// and every handle's Cancelled() must match it.

// oEvent is one oracle event.
type oEvent struct {
	id              int
	at, bTime       Time
	bLane, execLane uint32
	bIdx            uint64
	cancelled       bool
	gone            bool // reclaimed: fired, drained or compacted away
}

func (a *oEvent) before(b *oEvent) bool {
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

// birthOracle is the reference queue. heap is unordered; pops scan it for
// the minimum birth key.
type birthOracle struct {
	now        Time
	lane       uint32
	laneSeq    map[uint32]uint64
	heap       []*oEvent
	nowq       []*oEvent
	ncancelled int
}

func (o *birthOracle) schedule(id int, at Time, execLane uint32) *oEvent {
	o.laneSeq[o.lane]++
	ev := &oEvent{id: id, at: at, bTime: o.now, bLane: o.lane, execLane: execLane, bIdx: o.laneSeq[o.lane]}
	if at == o.now {
		o.nowq = append(o.nowq, ev)
	} else {
		o.heap = append(o.heap, ev)
	}
	return ev
}

func (o *birthOracle) pushForeign(id int, at, bTime Time, bLane, execLane uint32, bIdx uint64) *oEvent {
	ev := &oEvent{id: id, at: at, bTime: bTime, bLane: bLane, execLane: execLane, bIdx: bIdx}
	o.heap = append(o.heap, ev)
	return ev
}

func (o *birthOracle) heapMin() int {
	min := -1
	for i, ev := range o.heap {
		if min < 0 || ev.before(o.heap[min]) {
			min = i
		}
	}
	return min
}

func (o *birthOracle) removeHeap(i int) *oEvent {
	ev := o.heap[i]
	o.heap[i] = o.heap[len(o.heap)-1]
	o.heap = o.heap[:len(o.heap)-1]
	return ev
}

// cancel reports whether the cancel compacted the queues.
func (o *birthOracle) cancel(ev *oEvent) bool {
	if ev.gone || ev.cancelled {
		return false
	}
	ev.cancelled = true
	o.ncancelled++
	if o.ncancelled > 32 && o.ncancelled*2 > len(o.heap) {
		o.heap = o.dropCancelled(o.heap)
		o.nowq = o.dropCancelled(o.nowq)
		return true
	}
	return false
}

func (o *birthOracle) dropCancelled(evs []*oEvent) []*oEvent {
	var keep []*oEvent
	for _, ev := range evs {
		if ev.cancelled {
			o.ncancelled--
			ev.gone = true
		} else {
			keep = append(keep, ev)
		}
	}
	return keep
}

// drain reclaims cancelled events at both fronts.
func (o *birthOracle) drain() {
	for {
		i := o.heapMin()
		if i < 0 || !o.heap[i].cancelled {
			break
		}
		o.removeHeap(i).gone = true
		o.ncancelled--
	}
	for len(o.nowq) > 0 && o.nowq[0].cancelled {
		o.nowq[0].gone = true
		o.nowq = o.nowq[1:]
		o.ncancelled--
	}
}

// peek is NextAt: it drains the fronts and reports the next event's time.
func (o *birthOracle) peek() (Time, bool) {
	o.drain()
	if len(o.nowq) > 0 {
		return o.now, true
	}
	if i := o.heapMin(); i >= 0 {
		return o.heap[i].at, true
	}
	return 0, false
}

// step drains the fronts, then pops the next event: a heap event due now
// beats the FIFO, the FIFO beats any later heap event.
func (o *birthOracle) step() *oEvent {
	o.drain()
	var ev *oEvent
	if i := o.heapMin(); i >= 0 && (o.heap[i].at == o.now || len(o.nowq) == 0) {
		ev = o.removeHeap(i)
	} else if len(o.nowq) > 0 {
		ev, o.nowq = o.nowq[0], o.nowq[1:]
	} else {
		return nil
	}
	ev.gone = true
	o.now, o.lane = ev.at, ev.execLane
	return ev
}

func (o *birthOracle) pending() int {
	return len(o.heap) + len(o.nowq) - o.ncancelled
}

// lockstep runs one op stream through an engine and the oracle in
// lockstep. Ops after a pop run inside the fired event's callback, on its
// lane and at its time, up to the next pop, lane switch, foreign push or
// peek; those four only run between steps, where the shard coordinator
// calls PushForeign and NextAt.
type lockstep struct {
	tb  testing.TB
	ops []byte
	pc  int

	e       *Engine
	o       *birthOracle
	handles []Event
	evs     []*oEvent
	live    []int // ids the oracle still queues
	fanout  []int // ids of the last fan-out, in push order
	foreign map[uint32]uint64
	// maxQueue caps fan-outs at singletons while the queue is longer.
	maxQueue int

	// Coverage counters: checks and compactions made while an instant
	// holding two or more events was queued, and peeks at such an instant.
	fired, compactions, instantChecks, peeks int
}

const (
	opSchedule = iota // 0-3
	opFanout   = 4    // 4-5
	opCancel   = 6    // 6-7
	opThin     = 8    // cancel many members of the last fan-out
	opForeign  = 9
	opSetLane  = 10
	opPeek     = 11
	opPop      = 12 // 12-15
)

func (d *lockstep) arg() int {
	if d.pc >= len(d.ops) {
		return 0
	}
	d.pc++
	return int(d.ops[d.pc-1])
}

func (d *lockstep) kind() int {
	k := int(d.ops[d.pc] % 16)
	switch {
	case k < opFanout:
		return opSchedule
	case k < opCancel:
		return opFanout
	case k < opThin:
		return opCancel
	case k > opPop:
		return opPop
	}
	return k
}

func (d *lockstep) schedule(delay Time, execLane uint32) {
	id := len(d.evs)
	at := d.e.Now() + delay
	d.handles = append(d.handles, d.e.AfterLane(delay, execLane, func() { d.fire(id) }))
	d.evs = append(d.evs, d.o.schedule(id, at, execLane))
	d.live = append(d.live, id)
}

// cancel cancels a scheduled event; foreign events have no handle.
func (d *lockstep) cancel(id int) {
	if d.handles[id].eng == nil {
		return
	}
	multi := d.multiInstant()
	d.handles[id].Cancel()
	if d.o.cancel(d.evs[id]) && multi {
		d.compactions++
	}
}

// multiInstant reports whether the engine queues an instant holding two or
// more events.
func (d *lockstep) multiInstant() bool {
	for _, h := range d.e.iheap {
		if in := &d.e.insts[h.rec]; in.head != in.tail {
			return true
		}
	}
	return false
}

// foreignPush pushes an event born on another engine's lane (8-11),
// executing on one of ours.
func (d *lockstep) foreignPush(at, bTime Time, lane, execLane uint32) {
	d.foreign[lane]++
	id := len(d.evs)
	d.e.PushForeign(at, bTime, lane, d.foreign[lane], execLane, "", func() { d.fire(id) })
	d.handles = append(d.handles, Event{})
	d.evs = append(d.evs, d.o.pushForeign(id, at, bTime, lane, execLane, d.foreign[lane]))
	d.live = append(d.live, id)
}

// peek compares NextAt with the oracle, optionally cancelling the front
// event first so the peek must reclaim it, then acts on the earliest
// instant after now: the peeked one, unless events are still due now.
func (d *lockstep) peek(a, b int) {
	if b%3 == 0 {
		if i := d.o.heapMin(); i >= 0 {
			d.cancel(d.o.heap[i].id)
		}
	}
	got, gotOK := d.e.NextAt()
	want, wantOK := d.o.peek()
	if got != want || gotOK != wantOK {
		d.tb.Fatalf("op %d: NextAt() = %v, %v; oracle says %v, %v", d.pc, got, gotOK, want, wantOK)
	}
	now, at := d.e.Now(), Time(-1)
	for _, ev := range d.o.heap {
		if ev.at > now && (at < 0 || ev.at < at) {
			at = ev.at
		}
	}
	if at < 0 {
		return
	}
	if d.multiInstant() {
		d.peeks++
	}
	switch a % 4 {
	case 0: // a foreign push into the peeked instant
		bTime := now - Time(b%3)
		if bTime < 0 {
			bTime = 0
		}
		d.foreignPush(at, bTime, uint32(8+b/3%4), uint32(b%4))
	case 1: // a push at an earlier time, when there is one
		delay := at - now
		if delay > 1 {
			delay = 1 + Time(b)%(delay-1)
		}
		d.schedule(delay, uint32(b%4))
	case 2: // same-bTime pushes into the peeked instant, lanes descending
		for lane := 3; lane >= 0; lane-- {
			d.e.SetLane(uint32(lane))
			d.o.lane = uint32(lane)
			d.schedule(at-now, uint32(b%4))
		}
	case 3: // cancel every, or every other, event of the peeked instant
		for _, id := range d.live {
			if ev := d.evs[id]; ev.at == at && (b%2 == 0 || id%2 == 0) {
				d.cancel(id)
			}
		}
	}
}

// runOps executes ops until the stream ends or, inside a callback, until
// an op that belongs between steps.
func (d *lockstep) runOps(inCallback bool) {
	for d.pc < len(d.ops) {
		k := d.kind()
		if k == opPop || (inCallback && (k == opForeign || k == opSetLane || k == opPeek)) {
			return
		}
		d.pc++
		a, b := d.arg(), d.arg()
		switch k {
		case opSchedule:
			// Delay 0 lands in the same-instant FIFO; small delays collide.
			d.schedule(Time(a%6), uint32(b%4))
		case opFanout:
			// Mostly the 64-wide work-group shape; members keep one birth
			// (the scheduling context), whatever lanes they execute on.
			// A queue past maxQueue only slows the per-op checks.
			n := 64
			if a%4 == 0 || len(d.o.heap)+len(d.o.nowq) > d.maxQueue {
				n = 1 + a%16
			}
			d.fanout = d.fanout[:0]
			for i := 0; i < n; i++ {
				lane := uint32(b / 16 % 4)
				if b%2 == 1 {
					lane = uint32(i % 4)
				}
				d.fanout = append(d.fanout, len(d.evs))
				d.schedule(Time(1+b%5), lane)
			}
		case opCancel:
			switch n := len(d.fanout); {
			case a%4 == 3 || n == 0:
				if len(d.live) > 0 {
					d.cancel(d.live[b%len(d.live)])
				}
			default:
				d.cancel(d.fanout[[]int{0, n / 2, n - 1}[a%4]]) // head, middle, tail
			}
		case opThin:
			// Every other member, or every member but the head and tail.
			step, from, to := 2, a%2, len(d.fanout)
			if a%3 == 2 {
				step, from, to = 1, 1, len(d.fanout)-1
			}
			for i := from; i < to; i += step {
				d.cancel(d.fanout[i])
			}
		case opForeign:
			bTime := d.e.Now() - Time(b%3)
			if bTime < 0 {
				bTime = 0
			}
			d.foreignPush(d.e.Now()+Time(1+b/4%5), bTime, uint32(8+a%4), uint32(a/4%4))
		case opSetLane:
			d.e.SetLane(uint32(a % 4))
			d.o.lane = uint32(a % 4)
		case opPeek:
			d.peek(a, b)
		}
		d.check()
	}
}

// fire is every event's callback: the oracle pops at the same instant the
// engine does, then the following ops run inside the callback.
func (d *lockstep) fire(id int) {
	d.fired++
	want := d.o.step()
	if want == nil {
		d.tb.Fatalf("op %d: engine fired event %d, oracle queue is empty", d.pc, id)
	}
	if want.id != id {
		d.tb.Fatalf("op %d: engine fired event %d %+v, oracle fires event %d %+v", d.pc, id, *d.evs[id], want.id, *want)
	}
	if d.e.Now() != want.at || d.e.Lane() != want.execLane {
		d.tb.Fatalf("op %d: event %d fired at %v on lane %d, oracle says %v on lane %d",
			d.pc, id, d.e.Now(), d.e.Lane(), want.at, want.execLane)
	}
	d.check()
	d.runOps(true)
}

// check compares Pending() and every still-tracked handle's Cancelled()
// with the oracle. An id leaves tracking once the oracle no longer queues
// it; its handle is stale from then on and must read not-cancelled.
func (d *lockstep) check() {
	if got, want := d.e.Pending(), d.o.pending(); got != want {
		d.tb.Fatalf("op %d: Pending() = %d, oracle has %d live events", d.pc, got, want)
	}
	if d.multiInstant() {
		d.instantChecks++
	}
	keep := d.live[:0]
	for _, id := range d.live {
		ev := d.evs[id]
		want := !ev.gone && ev.cancelled
		if h := d.handles[id]; h.eng != nil && h.Cancelled() != want {
			d.tb.Fatalf("op %d: event %d Cancelled() = %v, oracle says %v", d.pc, id, !want, want)
		}
		if !ev.gone {
			keep = append(keep, id)
		}
	}
	d.live = keep
}

// runOrderOps drives ops to the end, then drains both queues.
func runOrderOps(tb testing.TB, ops []byte, maxQueue int) *lockstep {
	d := &lockstep{tb: tb, ops: ops, e: NewEngine(), o: &birthOracle{laneSeq: map[uint32]uint64{}},
		foreign: map[uint32]uint64{}, maxQueue: maxQueue}
	d.runOps(false)
	for d.pc < len(d.ops) {
		d.pc += 3 // the pop and its two unused argument bytes
		before := d.fired
		d.e.step()
		if d.fired == before {
			if ev := d.o.step(); ev != nil {
				tb.Fatalf("op %d: engine fired nothing, oracle fires event %d", d.pc, ev.id)
			}
		}
		d.runOps(false)
	}
	d.ops, d.pc = nil, 0
	for d.e.step() {
	}
	if ev := d.o.step(); ev != nil {
		tb.Fatalf("engine drained, oracle still fires event %d", ev.id)
	}
	if p := d.e.Pending(); p != 0 {
		tb.Fatalf("Pending() = %d after drain", p)
	}
	return d
}

// orderOps draws an op stream weighted toward the work-group shape: fan-outs
// followed by pops and cancels, with enough thinning to compact a
// part-cancelled instant.
func orderOps(rng *rand.Rand, n int) []byte {
	ops := make([]byte, 0, 3*n)
	weights := []struct{ op, w int }{
		{opSchedule, 16}, {opFanout, 6}, {opCancel, 13}, {opThin, 5},
		{opForeign, 5}, {opSetLane, 4}, {opPeek, 5}, {opPop, 46},
	}
	for i := 0; i < n; i++ {
		r := rng.Intn(100)
		op := opPop
		for _, w := range weights {
			if r < w.w {
				op = w.op
				break
			}
			r -= w.w
		}
		ops = append(ops, byte(op+16*rng.Intn(16)), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return ops
}

// TestBirthOrderOracle drives 20 seeded op streams of 600 ops through the
// engine and the birth-key oracle, and requires that the streams really
// exercised instants of several events: checks and compactions with one
// queued, and peeks at one.
func TestBirthOrderOracle(t *testing.T) {
	var fired, compactions, instantChecks, peeks int
	for trial := 0; trial < 20; trial++ {
		var d *lockstep
		t.Run(fmt.Sprint("seed", 9100+trial), func(t *testing.T) {
			d = runOrderOps(t, orderOps(rand.New(rand.NewSource(int64(9100+trial))), 600), 1024)
		})
		if d == nil {
			return
		}
		fired += d.fired
		compactions += d.compactions
		instantChecks += d.instantChecks
		peeks += d.peeks
	}
	if compactions == 0 || instantChecks == 0 || peeks == 0 {
		t.Fatalf("op streams too tame: %d compactions and %d checks with a multi-event instant queued, %d peeks at one (%d events fired)",
			compactions, instantChecks, peeks, fired)
	}
	t.Logf("%d events fired; with a multi-event instant queued: %d compactions, %d checks, %d peeks", fired, compactions, instantChecks, peeks)
}

// FuzzEngineOrder feeds arbitrary op streams (3 bytes an op, see runOps)
// to the same engine-vs-oracle lockstep, kept small so that each exec, and
// the fuzzer's minimization of each new input, stays fast.
func FuzzEngineOrder(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(orderOps(rand.New(rand.NewSource(seed)), 200))
	}
	f.Add([]byte{opFanout, 1, 3, opPop, 0, 0, opCancel, 0, 0, opCancel, 2, 0, opThin, 1, 0, opPop, 0, 0})
	// A fan-out, then peeks that cancel the front first and push into the
	// peeked instant from another engine, from descending lanes, and earlier.
	f.Add([]byte{opFanout, 1, 3, opPeek, 0, 0, opPeek, 2, 0, opPeek, 1, 3, opPeek, 3, 0, opPop, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*200 {
			ops = ops[:3*200]
		}
		runOrderOps(t, ops, 256)
	})
}
