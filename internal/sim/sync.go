package sim

import "fmt"

// Signal is a broadcast condition variable. Wait parks the calling process
// until the next Broadcast. There is no lost-wakeup hazard: because model
// code is single-threaded, a process is either parked on the signal or it
// is not; Broadcast wakes exactly the set of currently parked waiters.
type Signal struct {
	eng     *Engine
	waiters []*Proc
	fires   uint64
}

// NewSignal creates a Signal bound to e.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// Wait parks p until the next Broadcast.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.parkWaiting("signal", nil)
}

// Broadcast wakes every currently waiting process. Waiters resume in the
// order they called Wait.
func (s *Signal) Broadcast() {
	s.fires++
	ws := s.waiters
	s.waiters = nil
	for _, w := range ws {
		w.wake("signal")
	}
}

// Waiters reports how many processes are parked on the signal.
func (s *Signal) Waiters() int { return len(s.waiters) }

// Fires reports how many times Broadcast has been called.
func (s *Signal) Fires() uint64 { return s.fires }

// Counter is a monotonic event counter with threshold waits, modeled on
// Portals-4 counting events. Processes can park until the counter reaches
// a target value.
type Counter struct {
	eng     *Engine
	value   int64
	waiters []ctWaiter
}

type ctWaiter struct {
	p      *Proc
	target int64
	// done, when non-nil, is set true before the wake when the wait is
	// satisfied — deadline waits use it to tell satisfaction from timeout.
	done *bool
	// floor is the earliest time the waiter may wake: the issue time of a
	// store it handed its writer ahead (AwaitGEAfter), 0 for none.
	floor Time
}

// NewCounter creates a Counter bound to e.
func NewCounter(e *Engine) *Counter { return &Counter{eng: e} }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.value }

// Add increments the counter by n (n ≥ 0) and wakes any waiter whose
// target is now satisfied. The waiters it wakes at the current time run in
// one event, a gang, in the order their own wake events would have run;
// one waiting out a floor (a store issued ahead, AwaitGEAfter) wakes at
// it, with the others of the same floor.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("sim: Counter.Add with negative increment")
	}
	c.value += n
	if n == 0 {
		return
	}
	e := c.eng
	// first is the one waiter woken now until a second makes a gang: a
	// lone waiter takes its plain wake.
	var first *Proc
	var now, later *gang
	rest := c.waiters[:0]
	for _, w := range c.waiters {
		if c.value < w.target {
			rest = append(rest, w)
			continue
		}
		if w.done != nil {
			*w.done = true
		}
		switch {
		case reference:
			w.p.wake("ctwait")
		case w.floor > e.now:
			if later == nil || later.at != w.floor {
				later = e.newGang(w.floor)
			}
			later.add(w.p)
		case first == nil:
			first = w.p
		default:
			if now == nil {
				now = e.newGang(e.now)
				now.add(first)
			}
			now.add(w.p)
		}
	}
	if first != nil && now == nil {
		first.wake("ctwait")
	}
	clear(c.waiters[len(rest):])
	c.waiters = rest
}

// gang is one event that dispatches a group of processes in order, each
// as its own wake event would: under its lane, traced with the wake's
// label. Counter.Add wakes its satisfied waiters in gangs; records are
// pooled per engine.
type gang struct {
	eng *Engine
	at  Time
	ps  []*Proc
	fn  func()
}

// newGang starts an empty gang that is to run at time at.
func (e *Engine) newGang(at Time) *gang {
	var g *gang
	if k := len(e.gangs); k > 0 {
		g = e.gangs[k-1]
		e.gangs = e.gangs[:k-1]
	} else {
		g = &gang{eng: e}
		g.fn = g.run
	}
	g.at = at
	return g
}

// add appends p to the gang, scheduling the gang's event with the first
// member, under that member's lane.
func (g *gang) add(p *Proc) {
	g.ps = append(g.ps, p)
	if len(g.ps) == 1 {
		g.eng.scheduleLane(g.at, "", g.fn, nil, p.lane)
	}
}

// run dispatches the gang's processes and returns the record to the pool.
func (g *gang) run() {
	e := g.eng
	for i, p := range g.ps {
		g.ps[i] = nil
		e.curLane = p.lane
		if e.Trace != nil {
			e.Trace(e.now, "ctwait")
		}
		e.dispatch(p)
	}
	g.ps = g.ps[:0]
	e.gangs = append(e.gangs, g)
}

// WaitGE parks p until the counter value is ≥ target. Returns immediately
// if already satisfied.
func (c *Counter) WaitGE(p *Proc, target int64) {
	if c.AwaitGE(p, target) {
		p.parkAwait()
	}
}

// AwaitGE is WaitGE for a stackless process: it reports false when the
// counter is already ≥ target, and otherwise makes p a waiter and reports
// true; p's next step runs once the target is reached.
func (c *Counter) AwaitGE(p *Proc, target int64) bool {
	if c.value >= target {
		return false
	}
	c.waiters = append(c.waiters, ctWaiter{p: p, target: target})
	p.waitBuf = waitState{kind: "counter", ctr: c, target: target}
	p.waiting = &p.waitBuf
	return true
}

// A TagWriter takes a tagged store, such as a GPU work-group's write of a
// tag to its NIC's trigger address.
type TagWriter interface{ Write(tag uint64) }

// An AheadWriter is a TagWriter that can take a store before its time.
// WriteAhead(tag, at) books the store that Write(tag) would make at time
// at (≥ now), and reports false when the writer cannot (the caller then
// stores at time at itself); Withdraw(tag, at) takes back a booked store
// that has not happened, as a process killed before at never makes it.
type AheadWriter interface {
	TagWriter
	WriteAhead(tag uint64, at Time) bool
	Withdraw(tag uint64, at Time)
}

// pendingStore is a WaitGEAfter step: the store to apply and the counter
// wait to start when the process's wake event fires. With c nil it is
// instead a store AwaitGEAfter booked with w, an AheadWriter, for time
// Time(target), kept until then so a Kill can withdraw it (sharing the
// record keeps Proc in its allocation size class).
type pendingStore struct {
	w      TagWriter
	tag    uint64
	c      *Counter
	target int64
}

// WaitGEAfter is Sleep(d), then w.Write(tag), then WaitGE(p, target), with
// one coroutine resume instead of two. The wake is Sleep's event, with its
// label and birth key; its dispatch applies the store on the engine and
// resumes p only if the counter has already reached target, and otherwise
// makes p a waiter exactly as WaitGE would. A Kill that lands before the
// wake drops the store, as it would have dropped the code after Sleep. A
// nil w stores nothing: the wait is then Sleep(d) and WaitGE.
func (c *Counter) WaitGEAfter(p *Proc, d Time, w TagWriter, tag uint64, target int64) {
	if c.AwaitGEAfter(p, d, w, tag, target) {
		p.parkAwait()
	}
}

// AwaitGEAfter is WaitGEAfter for a stackless process: it reports whether
// p waits (its next step then runs once the store has landed and the
// counter reached target), or whether, with no delay, the store landed
// and the counter was already at target (false).
//
// A writer that can take the store ahead (AheadWriter) gets it now, for
// time now+d, and p waits on the counter at once with now+d as the floor
// of its wake: the wake is the one event left of the sleep, the store and
// the poll. A Kill before now+d withdraws the store.
func (c *Counter) AwaitGEAfter(p *Proc, d Time, w TagWriter, tag uint64, target int64) bool {
	if d <= 0 {
		if w != nil {
			w.Write(tag)
		}
		return c.AwaitGE(p, target)
	}
	e := c.eng
	at := e.now + d
	if aw, ok := w.(AheadWriter); ok && !reference && aw.WriteAhead(tag, at) {
		p.pend = pendingStore{w: aw, tag: tag, target: int64(at)}
		if c.value >= target {
			e.scheduleProc(at, p.wakeLbl(), p)
			return true
		}
		c.waiters = append(c.waiters, ctWaiter{p: p, target: target, floor: at})
		p.waitBuf = waitState{kind: "counter", ctr: c, target: target}
		p.waiting = &p.waitBuf
		return true
	}
	p.pend = pendingStore{w: w, tag: tag, c: c, target: target}
	e.scheduleProc(at, p.wakeLbl(), p)
	return true
}

// landStore runs p's pending WaitGEAfter step in its wake event and
// reports whether p is to be resumed: when it was killed, or when the
// store left the counter at its target. Otherwise p now waits on it.
func (p *Proc) landStore() bool {
	s := p.pend
	p.pend = pendingStore{}
	if p.killed {
		return true
	}
	if s.w != nil {
		s.w.Write(s.tag)
	}
	return !s.c.AwaitGE(p, s.target)
}

// WaitGEUntil parks p until the counter value is ≥ target or the absolute
// deadline passes, whichever comes first. It reports whether the target
// was reached (false = timed out). A deadline at or before now fails
// immediately unless the target is already satisfied.
func (c *Counter) WaitGEUntil(p *Proc, target int64, deadline Time) bool {
	if c.AwaitGEUntil(p, target, deadline) {
		p.parkAwait()
		p.endUntil()
	}
	return p.reached
}

// AwaitGEUntil is WaitGEUntil for a stackless process. It reports false
// when the wait ends at once, and otherwise makes p a waiter, schedules
// the deadline event and reports true; p's next step runs when the target
// is reached or the deadline passes (the dispatch cancels the deadline
// event of a wait that was met). Either way Reached then tells which.
func (c *Counter) AwaitGEUntil(p *Proc, target int64, deadline Time) bool {
	p.reached = c.value >= target
	if p.reached || deadline <= c.eng.Now() {
		return false
	}
	done := &p.reached
	c.waiters = append(c.waiters, ctWaiter{p: p, target: target, done: done})
	ev := c.eng.ScheduleNamed(deadline, "ctwait.deadline", func() {
		if *done {
			return
		}
		for i := range c.waiters {
			if c.waiters[i].done == done {
				c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
				break
			}
		}
		p.wake("ctwait.timeout")
	})
	p.untilSet, p.untilID, p.untilGen = true, ev.id, ev.gen
	p.waitBuf = waitState{kind: "counter", detail: func() string {
		return fmt.Sprintf("value=%d target=%d deadline=%v", c.value, target, deadline)
	}}
	p.waiting = &p.waitBuf
	return true
}

// Queue is an unbounded FIFO connecting producers and consumers.
// Push never blocks. A queue is consumed either by processes calling Pop,
// which parks while the queue is empty, or by one server process (Serve)
// that runs only while items are queued.
type Queue[T any] struct {
	eng *Engine
	// buf is a ring holding the n queued items from buf[head] on, so a
	// steady producer/consumer pair reuses one backing array instead of
	// allocating as a sliding slice would.
	buf     []T
	head, n int
	waiters []*Proc
	// srv is the queue's server (nil on a Pop-consumed queue). Its body is
	// bound once, so re-arming the server allocates nothing.
	srv *Proc
}

// NewQueue creates a Queue bound to e.
func NewQueue[T any](e *Engine) *Queue[T] { return &Queue[T]{eng: e} }

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return q.n }

// Serve gives the queue one server process, which calls fn for each item
// in FIFO order. The server is registered now, in spawn order and on the
// engine's current lane, but it has no coroutine and schedules nothing:
// a Push to an idle server schedules its dispatch at the current time (the
// same single event that wakes a consumer parked in Pop), and the server
// runs until the queue is empty, then goes idle again. fn may park. A
// served queue has no other consumer: Pop panics on it.
func (q *Queue[T]) Serve(name string, fn func(p *Proc, v T)) {
	if q.srv != nil || len(q.waiters) > 0 {
		panic("sim: Queue.Serve on a queue that already has a consumer")
	}
	q.srv = q.eng.newServer(q.eng.curLane, name, func(p *Proc) {
		for q.n > 0 {
			fn(p, q.take())
		}
	})
	if q.n > 0 {
		q.arm()
	}
}

// arm dispatches an idle server.
func (q *Queue[T]) arm() {
	if s := q.srv; s.idle {
		s.idle = false
		s.wake("queue")
	}
}

// Push appends v and starts the queue's server if it is idle, or else wakes
// one consumer parked in Pop, if any. Pop consumers killed while parked (a
// crashed node's processes) are skipped and discarded — waking one would
// consume the wakeup without consuming the item, leaving live consumers
// parked forever behind a dead one.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		grown := make([]T, max(1, 2*len(q.buf)))
		k := copy(grown, q.buf[q.head:])
		copy(grown[k:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
	if q.srv != nil {
		q.arm()
		return
	}
	for len(q.waiters) > 0 {
		w := q.waiters[0]
		k := copy(q.waiters, q.waiters[1:])
		q.waiters[k] = nil
		q.waiters = q.waiters[:k]
		if w.Dead() {
			continue
		}
		w.wake("queue")
		break
	}
}

// Pop removes and returns the head item, parking p while the queue is
// empty. Consumers are served FIFO.
func (q *Queue[T]) Pop(p *Proc) T {
	if q.srv != nil {
		panic("sim: Queue.Pop on a served queue")
	}
	for q.n == 0 {
		q.waiters = append(q.waiters, p)
		p.park()
	}
	return q.take()
}

// TryPop removes the head item without blocking. ok is false when empty.
func (q *Queue[T]) TryPop() (v T, ok bool) {
	if q.n == 0 {
		return v, false
	}
	return q.take(), true
}

// take removes the head item, clearing its slot so the ring does not
// retain it.
func (q *Queue[T]) take() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v
}

// Resource is a counting semaphore with FIFO admission, used to model
// contended hardware resources (DMA engines, switch ports, CPU cores).
type Resource struct {
	eng      *Engine
	capacity int64
	inUse    int64
	waiters  []*resWaiter
}

type resWaiter struct {
	p *Proc
	// fn, for a request that is not a process's (AcquireFunc, p nil), is
	// called at admission in place of a wake.
	fn      func()
	n       int64
	granted bool
	parked  bool
}

// NewResource creates a Resource with the given capacity.
func NewResource(e *Engine, capacity int64) *Resource {
	if capacity <= 0 {
		panic("sim: Resource capacity must be positive")
	}
	return &Resource{eng: e, capacity: capacity}
}

// Capacity returns the total capacity.
func (r *Resource) Capacity() int64 { return r.capacity }

// InUse returns the currently acquired amount.
func (r *Resource) InUse() int64 { return r.inUse }

// Available returns the capacity not currently acquired.
func (r *Resource) Available() int64 { return r.capacity - r.inUse }

// Acquire parks p until n units are available, then takes them.
// Admission is strictly FIFO to avoid starvation and preserve determinism.
func (r *Resource) Acquire(p *Proc, n int64) {
	if n <= 0 || n > r.capacity {
		panic("sim: Resource.Acquire with invalid amount")
	}
	// Uncontended fast path: no queue and enough capacity means admit()
	// would grant immediately — take the units without a waiter record.
	if len(r.waiters) == 0 && r.capacity-r.inUse >= n {
		r.inUse += n
		return
	}
	w := &resWaiter{p: p, n: n}
	r.waiters = append(r.waiters, w)
	r.admit()
	if w.granted {
		return
	}
	// A process killed while parked here unwinds with the kill sentinel
	// panic, which runs this frame's defers: units granted in the same
	// instant as the kill are returned, an ungranted request is withdrawn.
	// Without this, a crashed node's work-groups would pin semaphore
	// capacity forever.
	defer func() {
		if p.killed {
			r.abandon(w)
		}
	}()
	for !w.granted {
		w.parked = true
		p.parkWaiting("resource", func() string {
			return fmt.Sprintf("need=%d available=%d", n, r.capacity-r.inUse)
		})
		w.parked = false
	}
}

// AwaitAcquire is Acquire for a stackless process: it takes the n units
// and reports false when they are free and nothing is queued, and
// otherwise queues p in the same FIFO and reports true; p's next step runs
// once the units are its. A Kill before then withdraws the request, or
// returns the units if they were granted in the meantime, as Acquire's
// deferred cleanup does.
func (r *Resource) AwaitAcquire(p *Proc, n int64) bool {
	if n <= 0 || n > r.capacity {
		panic("sim: Resource.AwaitAcquire with invalid amount")
	}
	if len(r.waiters) == 0 && r.capacity-r.inUse >= n {
		r.inUse += n
		return false
	}
	w := &resWaiter{p: p, n: n}
	r.waiters = append(r.waiters, w)
	r.admit()
	if w.granted {
		return false
	}
	w.parked = true
	p.acq, p.acqRes = w, r
	p.waitBuf = waitState{kind: "resource", detail: func() string {
		return fmt.Sprintf("need=%d available=%d", n, r.capacity-r.inUse)
	}}
	p.waiting = &p.waitBuf
	return true
}

// abandon cleans up after a process killed while waiting for admission:
// units granted meanwhile are returned, an ungranted request is
// withdrawn.
func (r *Resource) abandon(w *resWaiter) {
	if w.granted {
		r.inUse -= w.n
		r.admit()
		return
	}
	for i, x := range r.waiters {
		if x == w {
			r.waiters = append(r.waiters[:i], r.waiters[i+1:]...)
			break
		}
	}
}

// AcquireFunc takes n units for a caller that is not a process. When they
// are free and nothing is queued it takes them and reports true. Otherwise
// it queues the request in the same FIFO as the processes' and reports
// false; the Release that admits it takes the units and calls fn, which
// must not use the resource (it typically schedules the caller's next
// step).
func (r *Resource) AcquireFunc(n int64, fn func()) bool {
	if n <= 0 || n > r.capacity || fn == nil {
		panic("sim: Resource.AcquireFunc with invalid amount or nil fn")
	}
	if len(r.waiters) == 0 && r.capacity-r.inUse >= n {
		r.inUse += n
		return true
	}
	w := &resWaiter{fn: fn, n: n}
	r.waiters = append(r.waiters, w)
	r.admit()
	if w.granted {
		return true
	}
	w.parked = true
	return false
}

// DropFuncs withdraws every queued AcquireFunc request (their functions
// are never called) and admits the waiters they held up.
func (r *Resource) DropFuncs() {
	keep := r.waiters[:0]
	for _, w := range r.waiters {
		if w.p != nil {
			keep = append(keep, w)
		}
	}
	clear(r.waiters[len(keep):])
	r.waiters = keep
	r.admit()
}

// Release returns n units and admits queued waiters in FIFO order.
func (r *Resource) Release(n int64) {
	if n <= 0 || n > r.inUse {
		panic("sim: Resource.Release with invalid amount")
	}
	r.inUse -= n
	r.admit()
}

// admit grants units to waiters from the head of the queue while capacity
// allows, preserving FIFO order: a large request at the head blocks later
// small requests (no barging), which keeps timing deterministic. Waiters
// killed while parked are dropped, not granted — their Acquire frame will
// never run again to consume (or release) the grant.
func (r *Resource) admit() {
	for len(r.waiters) > 0 {
		w := r.waiters[0]
		if w.p != nil && w.p.Dead() {
			r.waiters = r.waiters[1:]
			continue
		}
		if r.capacity-r.inUse < w.n {
			return
		}
		r.waiters = r.waiters[1:]
		r.inUse += w.n
		w.granted = true
		switch {
		case !w.parked:
		case w.p == nil:
			w.fn()
		default:
			w.p.wake("resource")
		}
	}
}
