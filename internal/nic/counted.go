package nic

import (
	"slices"

	"repro/internal/sim"
)

// Counted trigger writes.
//
// The per-write trigger pipeline (landTrigger, trigStart, trigDone) spends
// an MMIO landing event and a match event on every tag write. Under
// kernel-level granularity every work-group of a kernel stores the same
// tag each round, and most of those events change nothing anyone can see:
// they count towards a threshold. The counted pipeline keeps the writes it
// has not matched yet as runs of identical writes that land at one
// instant, in landing order, and evaluates the pipeline's recurrence
//
//	start_i = max(land_i, done_{i-1}),  done_i = start_i + match latency
//
// instead of scheduling it. It schedules one event, armed at the first
// match that does something a reader can see, a fire or a relaxed-sync
// placeholder allocation, or, when no pending write does, at the last
// landing or match, so a run ends when the per-write one would. Every
// reader of the trigger list first catches up: it applies the landings and
// matches the per-write path would have run before it. At the reader's own
// instant, a landing or a match counts as before the reader when it was
// born no later than the reader's event, as the engine orders same-time
// events (a landing is born at its store, a match at its start). The armed
// event is scheduled with the birth of the match it stands for, so it
// takes that match's place in its instant.
//
// The per-write path stays where a write's fate is not arithmetic: a fault
// injector that drops or delays trigger writes, a bounded trigger FIFO, a
// lookup whose latency depends on the match position (LinkedListLookup),
// and a zero match latency. sim.Reference forces it everywhere.

// trigRun is count identical trigger writes stored by incarnation ep that
// land in the trigger FIFO at time land, one MMIO flight after their
// store (which is the landing's birth). landed is set once a catch-up has
// applied the landing (the crash fence and the FIFO high-water mark).
type trigRun struct {
	w      DynamicWrite
	land   sim.Time
	count  int64
	ep     int64
	landed bool
}

// simCount is nextObservable's scratch tally of pending writes per entry.
type simCount struct {
	e   *triggerEntry
	add int64
}

// counted reports whether trigger writes take the counted pipeline.
func (n *NIC) counted() bool {
	return !sim.Reference() && !n.trigFaults && n.cfg.TriggerFIFODepth == 0 && n.matchLat() > 0
}

// matchLat is the match latency of a lookup that does not price the match
// position, and 0 for one that does.
func (n *NIC) matchLat() sim.Time {
	switch l := n.lookup.(type) {
	case AssociativeLookup:
		return l.Latency
	case HashLookup:
		return l.Latency
	}
	return 0
}

// TriggerWriteAhead books the trigger write TriggerWriteDynamic(w) would
// make at time at (≥ now), for a store whose time is known before it comes
// (a work-group's store followed by its poll). It reports false when the
// NIC takes writes one at a time (the per-write path, or a down NIC); the
// caller then makes the write at its time.
func (n *NIC) TriggerWriteAhead(w DynamicWrite, at sim.Time) bool {
	if n.down || !n.counted() {
		return false
	}
	n.bookWrite(w, at)
	return true
}

// WithdrawTriggerWrite takes back a write booked by TriggerWriteAhead for
// time at that has not been made: the storing work-group was killed first.
func (n *NIC) WithdrawTriggerWrite(w DynamicWrite, at sim.Time) {
	land := at + n.trigLatency()
	for i := len(n.runs) - 1; i >= 0; i-- {
		r := &n.runs[i]
		if r.land == land && r.w == w && !r.landed {
			n.stats.TriggerWrites--
			if r.count--; r.count == 0 {
				n.runs = slices.Delete(n.runs, i, i+1)
			}
			n.markArm()
			return
		}
	}
}

// trigLatency is a trigger write's MMIO flight time, store to FIFO.
func (n *NIC) trigLatency() sim.Time { return n.cfg.DoorbellLatency + n.ioBusLatency }

// bookWrite adds a write stored at time issue (≥ now) to the runs, behind
// every write landing no later.
func (n *NIC) bookWrite(w DynamicWrite, issue sim.Time) {
	n.stats.TriggerWrites++
	land := issue + n.trigLatency()
	i := len(n.runs)
	for i > 0 && n.runs[i-1].land > land {
		i--
	}
	if i > 0 {
		if r := &n.runs[i-1]; r.land == land && r.w == w && r.ep == n.inc && !r.landed {
			r.count++
			n.markArm()
			return
		}
	}
	n.runs = slices.Insert(n.runs, i, trigRun{w: w, land: land, count: 1, ep: n.inc})
	n.markArm()
}

// markArm queues a rearm for the end of the executing event, so the many
// writes one event books (a kernel's work-groups woken together) re-derive
// the armed event once.
func (n *NIC) markArm() {
	if !n.armDirty && (len(n.runs) > 0 || n.armEv != (sim.Event{})) {
		n.armDirty = true
		n.eng.AtEnd(n.rearmFn)
	}
}

// rearm arms the event at the next observable step of the runs. An
// armed event no later than that step stays: firing early only catches
// up and arms again, while moving it later with each write of a burst
// would cancel an event per write.
func (n *NIC) rearm() {
	n.armDirty = false
	at, born, ok := n.nextObservable()
	if n.armEv != (sim.Event{}) {
		if ok && before(n.armEv.At(), n.armBorn, at, born) {
			return
		}
		n.armEv.Cancel()
		n.armEv = sim.Event{}
	}
	if ok {
		n.armEv, n.armBorn = n.eng.ScheduleBorn(at, born, n.lane, n.armFireFn), born
	}
}

// armFire is the armed event: it catches up, which applies the match it
// stands for, and arms the next.
func (n *NIC) armFire() {
	n.armEv = sim.Event{}
	n.catchUp()
	n.rearm()
}

// nextObservable finds the time and birth of the first pending match that
// fires an entry or allocates a placeholder, or else of the last pending
// landing or match; ok is false with no runs.
func (n *NIC) nextObservable() (at, born sim.Time, ok bool) {
	m := n.matchLat()
	free := n.pipeFree
	var buf [4]simCount
	sims := buf[:0]
	last := func(t, b sim.Time) {
		if !ok || t > at || t == at && b > born {
			at, born, ok = t, b, true
		}
	}
	for i := range n.runs {
		r := &n.runs[i]
		if r.count == 0 {
			continue
		}
		if !r.landed && n.fenced(r.ep) {
			last(r.land, r.land-n.trigLatency()) // it lands fenced, off the pipeline
			continue
		}
		s := max(r.land, free)
		e := n.findEntry(r.w.Tag)
		if e == nil {
			return s + m, s, true
		}
		if e.hasOp && !e.fired {
			k := -1
			for j := range sims {
				if sims[j].e == e {
					k = j
				}
			}
			if k < 0 {
				sims = append(sims, simCount{e: e})
				k = len(sims) - 1
			}
			if q := max(e.threshold-e.counter-sims[k].add, 1); q <= r.count {
				return s + sim.Time(q)*m, s + sim.Time(q-1)*m, true
			}
			sims[k].add += r.count
		}
		free = s + sim.Time(r.count)*m
		last(free, free-m)
	}
	return at, born, ok
}

// before reports whether a landing or match at time t, born at b, runs
// before an event at now born at bnow.
func before(t, b, now, bnow sim.Time) bool { return t < now || t == now && b <= bnow }

// catchUp applies every landing and match the per-write path would have
// run before the executing event.
func (n *NIC) catchUp() {
	if len(n.runs) > 0 {
		n.advance(n.eng.Now(), n.eng.Born())
	}
}

// advance applies the landings and then the matches that precede an event
// at now born at bnow. Landings go first: the FIFO high-water mark of a
// landing counts the writes still buffered behind it.
func (n *NIC) advance(now, bnow sim.Time) {
	lat := n.trigLatency()
	for i := range n.runs {
		r := &n.runs[i]
		if r.landed {
			continue
		}
		if !before(r.land, r.land-lat, now, bnow) {
			break
		}
		r.landed = true
		if n.fenced(r.ep) {
			// The node crashed while the stores were in flight.
			n.stats.FencedTriggers += r.count
			r.count = 0
			continue
		}
		n.noteFIFOWater(i)
	}
	m := n.matchLat()
	for i := range n.runs {
		r := &n.runs[i]
		if r.count == 0 {
			continue
		}
		if !r.landed {
			break
		}
		s := max(r.land, n.pipeFree)
		c := matchedBy(s, r.count, m, now, bnow)
		if c > 0 {
			r.count -= c
			n.pipeFree = s + sim.Time(c)*m
			n.applyWrites(r.w, c)
		}
		if r.count > 0 {
			break
		}
	}
	n.dropEmptyRuns()
}

// matchedBy counts the writes of a run of k, whose first match starts at
// s, that are matched before an event at now born at bnow: write j ends
// at s + j·m and was born at its start.
func matchedBy(s sim.Time, k int64, m, now, bnow sim.Time) int64 {
	if s >= now {
		return 0
	}
	c := int64((now - s) / m)
	if c > k {
		return k
	}
	if end := s + sim.Time(c)*m; c > 0 && end == now && end-m > bnow {
		c--
	}
	return c
}

// poppedBy counts the writes of a run of k landing at land, whose first
// match starts at s, that the pipeline took from the FIFO before an event
// at t born at b. A write is popped at its start: the first write of an
// idle pipeline by an event born at its landing, every other one by the
// previous write's match end, born at that match's start.
func poppedBy(s sim.Time, k int64, land, m, t, b sim.Time) int64 {
	if s > t {
		return 0
	}
	if s == t {
		born := s - m
		if s == land {
			born = land
		}
		if born <= b {
			return 1
		}
		return 0
	}
	c := int64((t - s + m - 1) / m) // starts before t
	if c < k && s+sim.Time(c)*m == t && t-m <= b {
		c++
	}
	return min(c, k)
}

// noteFIFOWater raises the FIFO high-water mark to the occupancy right
// after run i landed: the writes landed so far that the pipeline had not
// popped.
func (n *NIC) noteFIFOWater(i int) {
	land := n.runs[i].land
	born := land - n.trigLatency()
	m := n.matchLat()
	free := n.pipeFree
	var occ int64
	for q := 0; q <= i; q++ {
		r := &n.runs[q]
		if r.count == 0 || !r.landed {
			continue
		}
		s := max(r.land, free)
		occ += r.count - poppedBy(s, r.count, r.land, m, land, born)
		free = s + sim.Time(r.count)*m
	}
	if occ > n.stats.TrigFIFOHighWater {
		n.stats.TrigFIFOHighWater = occ
	}
}

// applyWrites matches c writes of w: they count against w's entry, firing
// it at its threshold, or allocate a relaxed-sync placeholder that the rest
// count into.
func (n *NIC) applyWrites(w DynamicWrite, c int64) {
	for c > 0 {
		e := n.findEntry(w.Tag)
		if e == nil {
			if !n.newPlaceholder(w) {
				n.stats.DroppedTriggers += c
				return
			}
			c--
			continue
		}
		q := c
		if d := e.threshold - e.counter; e.hasOp && !e.fired && d < q {
			q = max(d, 1)
		}
		e.counter += q
		e.mergeOverrides(w)
		c -= q
		if e.hasOp && !e.fired && e.counter >= e.threshold {
			n.fire(e)
		}
	}
}

// crashRuns applies a crash at the current instant to the runs, after
// catchUp: the write being matched is fenced (its match still holds the
// pipeline until it ends), writes buffered in the FIFO are lost with it,
// and writes still in flight land fenced later.
func (n *NIC) crashRuns() {
	now, bnow := n.eng.Now(), n.eng.Born()
	for i := range n.runs {
		r := &n.runs[i]
		if !r.landed {
			break
		}
		if r.count == 0 {
			continue
		}
		m := n.matchLat()
		if s := max(r.land, n.pipeFree); poppedBy(s, 1, r.land, m, now, bnow) == 1 {
			n.stats.FencedTriggers++
			n.pipeFree = s + m
		}
		break
	}
	for i := range n.runs {
		if n.runs[i].landed {
			n.runs[i].count = 0
		}
	}
	n.dropEmptyRuns()
}

// dropEmptyRuns removes the runs left with no writes, keeping the slice's
// array for the next ones.
func (n *NIC) dropEmptyRuns() {
	n.runs = slices.DeleteFunc(n.runs, func(r trigRun) bool { return r.count == 0 })
}
