package sim

import (
	"fmt"
	"slices"
	"testing"
)

// stepOp is one wait of a scripted process, run either parked (a body) or
// stackless (GoStep) by runScript.
type stepOp struct {
	kind    int
	d       Time  // sleep, store delay, or deadline offset
	target  int64 // counter target
	noStore bool  // waitAfter with a nil TagWriter
}

const (
	opSleep     = iota // Sleep / After
	opWait             // WaitGE / AwaitGE
	opWaitAfter        // WaitGEAfter / AwaitGEAfter, storing tag 7
	opWaitUntil        // WaitGEUntil / AwaitGEUntil at now+d
	opAcquire          // Acquire / AwaitAcquire of one unit
	opRelease          // Release of one unit
)

// stepRun is what one run of a script exposes.
type stepRun struct {
	trace    []string
	ends     []string // each op's end time, and a deadline wait's outcome
	stores   []Time
	blocked  []string // BlockedWaiters at the checkpoint
	exited   Time     // OnExit's time, -1 if it never ran
	inUse    int64
	executed uint64
	resumes  uint64
}

// stepScenario is a script and the world around it.
type stepScenario struct {
	name string
	ops  []stepOp
	// setup schedules the counter's bumps and the resource's other users
	// (plain events only, so a stackless run resumes nothing).
	setup func(e *Engine, c *Counter, r *Resource)
	// killAt, when non-negative, kills the process at that time, from an
	// event born after setup's; killNow kills it right after the spawn.
	killAt  Time
	killNow bool
	// check is the time BlockedWaiters is read at.
	check Time
}

// runScript runs sc's process parked or stackless and records everything
// an observer can see. A parked store-then-wait is the Sleep, Write and
// WaitGE that WaitGEAfter stands for, so the stackless form is compared
// with those, not with code it shares.
func runScript(sc stepScenario, stackless bool) stepRun {
	e := NewEngine()
	var run stepRun
	e.Trace = func(at Time, label string) { run.trace = append(run.trace, at.String()+" "+label) }
	c := NewCounter(e)
	r := NewResource(e, 1)
	log := &tagLog{e: e}
	if sc.setup != nil {
		sc.setup(e, c, r)
	}
	held := int64(0)
	end := func(p *Proc, op stepOp, ok bool) {
		s := p.Now().String()
		if op.kind == opWaitUntil {
			s += fmt.Sprint(" ", ok)
		}
		run.ends = append(run.ends, s)
		switch op.kind {
		case opAcquire:
			held++
		case opRelease:
			held--
		}
	}
	writer := func(op stepOp) TagWriter {
		if op.noStore {
			return nil
		}
		return log
	}
	var p *Proc
	if stackless {
		i, begun := 0, false
		p = e.GoStep("w", func(p *Proc) bool {
			if p.Dead() {
				run.ends = append(run.ends, "cleanup")
				if held > 0 {
					r.Release(held)
				}
				return false
			}
			for ; i < len(sc.ops); i++ {
				op := sc.ops[i]
				if !begun {
					begun = true
					wait := false
					switch op.kind {
					case opSleep:
						p.After(op.d)
						wait = true
					case opWait:
						wait = c.AwaitGE(p, op.target)
					case opWaitAfter:
						wait = c.AwaitGEAfter(p, op.d, writer(op), 7, op.target)
					case opWaitUntil:
						wait = c.AwaitGEUntil(p, op.target, p.Now()+op.d)
					case opAcquire:
						wait = r.AwaitAcquire(p, 1)
					case opRelease:
						r.Release(1)
					}
					if wait {
						return true
					}
				}
				begun = false
				end(p, op, p.Reached())
			}
			return false
		})
	} else {
		p = e.Go("w", func(p *Proc) {
			defer func() {
				if !p.Dead() {
					return
				}
				run.ends = append(run.ends, "cleanup")
				if held > 0 {
					r.Release(held)
				}
			}()
			for _, op := range sc.ops {
				ok := false
				switch op.kind {
				case opSleep:
					p.Sleep(op.d)
				case opWait:
					c.WaitGE(p, op.target)
				case opWaitAfter:
					// The sequence WaitGEAfter stands for.
					if op.d > 0 {
						p.Sleep(op.d)
					}
					if w := writer(op); w != nil {
						w.Write(7)
					}
					c.WaitGE(p, op.target)
				case opWaitUntil:
					ok = c.WaitGEUntil(p, op.target, p.Now()+op.d)
				case opAcquire:
					r.Acquire(p, 1)
				case opRelease:
					r.Release(1)
				}
				end(p, op, ok)
			}
		})
	}
	run.exited = -1
	p.OnExit(func() { run.exited = e.Now() })
	if sc.killNow {
		e.Kill(p)
	}
	if sc.killAt >= 0 {
		e.ScheduleNamed(sc.killAt, "killer", func() { e.Kill(p) })
	}
	e.RunUntil(sc.check)
	for _, w := range e.BlockedWaiters() {
		run.blocked = append(run.blocked, w.String())
	}
	e.Run()
	run.stores, run.inUse = log.at, r.InUse()
	run.executed, run.resumes = e.Executed(), e.Resumes()
	return run
}

// bumps schedules one counter increment at each time.
func bumps(ts ...Time) func(e *Engine, c *Counter, r *Resource) {
	return func(e *Engine, c *Counter, _ *Resource) {
		for _, t := range ts {
			e.ScheduleNamed(t, "bump", func() { c.Add(1) })
		}
	}
}

// heldUntil has an event-driven user hold the resource's one unit from 0
// to t.
func heldUntil(t Time) func(e *Engine, c *Counter, r *Resource) {
	return func(e *Engine, _ *Counter, r *Resource) {
		r.AcquireFunc(1, func() {})
		e.ScheduleNamed(t, "release", func() { r.Release(1) })
	}
}

// A stackless process makes exactly the events of the parking process it
// stands for — the same trace labels at the same times, in the same order
// and number — for every wait and every way a Kill can find it, while
// resuming no coroutine; and a stackless waiter is a blocked waiter like
// a parked one.
func TestGoStepMatchesParkingProcess(t *testing.T) {
	ns := Nanosecond
	sleep := func(d Time) stepOp { return stepOp{kind: opSleep, d: d} }
	wait := func(target int64) stepOp { return stepOp{kind: opWait, target: target} }
	after := func(d Time, target int64) stepOp { return stepOp{kind: opWaitAfter, d: d, target: target} }
	until := func(d Time, target int64) stepOp { return stepOp{kind: opWaitUntil, d: d, target: target} }
	acquire, release := stepOp{kind: opAcquire}, stepOp{kind: opRelease}
	never := Time(-1)
	for _, sc := range []stepScenario{
		{name: "sleeps", ops: []stepOp{sleep(5 * ns), sleep(0), sleep(3 * ns)}, killAt: never, check: 6 * ns},
		{name: "counter waits", ops: []stepOp{wait(1), wait(1), sleep(5 * ns), wait(2)},
			setup: bumps(10*ns, 20*ns), killAt: never, check: 12 * ns},
		{name: "store, counter reached before it", ops: []stepOp{after(10*ns, 2)},
			setup: bumps(2*ns, 4*ns), killAt: never, check: 5 * ns},
		{name: "store, counter reached at its time", ops: []stepOp{after(10*ns, 2), sleep(ns)},
			setup: bumps(5*ns, 10*ns), killAt: never, check: 10 * ns},
		{name: "store, counter reached later", ops: []stepOp{after(10*ns, 2), sleep(ns)},
			setup: bumps(3*ns, 25*ns), killAt: never, check: 15 * ns},
		{name: "store without delay", ops: []stepOp{after(0, 1), after(0, 1)},
			setup: bumps(7 * ns), killAt: never, check: 3 * ns},
		{name: "delay without store", ops: []stepOp{{kind: opWaitAfter, d: 4 * ns, target: 1, noStore: true}},
			setup: bumps(9 * ns), killAt: never, check: 6 * ns},
		{name: "deadline wait met", ops: []stepOp{until(100*ns, 1), sleep(200 * ns)},
			setup: bumps(3 * ns), killAt: never, check: 2 * ns},
		{name: "counter waits, then blocked", ops: []stepOp{wait(1), sleep(5 * ns), wait(2)},
			setup: bumps(10*ns, 20*ns), killAt: never, check: 18 * ns},
		{name: "deadline wait timed out, then retried", ops: []stepOp{until(5*ns, 1), until(50*ns, 1)},
			setup: bumps(20 * ns), killAt: never, check: 4 * ns},
		{name: "deadline wait already met or already past", ops: []stepOp{sleep(ns), until(5*ns, 1), until(0, 2)},
			setup: bumps(0), killAt: never, check: 0},
		{name: "admission queued", ops: []stepOp{acquire, sleep(5 * ns), release},
			setup: heldUntil(10 * ns), killAt: never, check: 5 * ns},
		{name: "admission at once", ops: []stepOp{acquire, sleep(5 * ns), release, acquire}, killAt: never, check: 2 * ns},
		{name: "kill before start", ops: []stepOp{sleep(5 * ns)}, killNow: true, killAt: never, check: 0},
		{name: "kill while sleeping", ops: []stepOp{sleep(10 * ns)}, killAt: 5 * ns, check: 2 * ns},
		{name: "kill while waiting on the counter", ops: []stepOp{wait(1)},
			setup: bumps(20 * ns), killAt: 5 * ns, check: 2 * ns},
		{name: "kill with a store pending", ops: []stepOp{after(10*ns, 1)},
			setup: bumps(20 * ns), killAt: 5 * ns, check: 2 * ns},
		{name: "kill in the store's instant", ops: []stepOp{after(10*ns, 1)},
			setup: bumps(20 * ns), killAt: 10 * ns, check: 2 * ns},
		{name: "kill after the store, waiting on the counter", ops: []stepOp{after(10*ns, 1)},
			setup: bumps(20 * ns), killAt: 15 * ns, check: 12 * ns},
		{name: "kill in a deadline wait", ops: []stepOp{until(100*ns, 1)},
			setup: bumps(200 * ns), killAt: 5 * ns, check: 2 * ns},
		{name: "kill while queued for admission", ops: []stepOp{acquire},
			setup: heldUntil(10 * ns), killAt: 5 * ns, check: 2 * ns},
		{name: "kill in the admission's instant", ops: []stepOp{acquire, release},
			setup: heldUntil(10 * ns), killAt: 10 * ns, check: 2 * ns},
		{name: "kill holding the unit", ops: []stepOp{acquire, sleep(10 * ns), release},
			killAt: 5 * ns, check: 2 * ns},
	} {
		t.Run(sc.name, func(t *testing.T) {
			want := runScript(sc, false)
			got := runScript(sc, true)
			if !slices.Equal(got.trace, want.trace) {
				t.Errorf("trace\n%q\nwant\n%q", got.trace, want.trace)
			}
			if got.executed != want.executed {
				t.Errorf("executed %d events, want %d", got.executed, want.executed)
			}
			if !slices.Equal(got.ends, want.ends) || !slices.Equal(got.stores, want.stores) {
				t.Errorf("ops ended %q, stores at %v; want %q, %v", got.ends, got.stores, want.ends, want.stores)
			}
			if !slices.Equal(got.blocked, want.blocked) {
				t.Errorf("blocked waiters at %v: %q, want %q", sc.check, got.blocked, want.blocked)
			}
			if got.exited != want.exited || got.inUse != want.inUse {
				t.Errorf("exited at %v with %d units in use, want %v and %d", got.exited, got.inUse, want.exited, want.inUse)
			}
			if got.resumes != 0 {
				t.Errorf("stackless run resumed %d coroutines", got.resumes)
			}
		})
	}
}

// A stackless step that tries to park panics, naming the process, and a
// model panic in a step surfaces as a body's does, after OnExit.
func TestGoStepPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		step func(p *Proc) bool
		want string
	}{
		{"park", func(p *Proc) bool { p.Sleep(Nanosecond); return false }, `sim: process "s" panicked: sim: stackless process "s" cannot park`},
		{"model panic", func(p *Proc) bool { panic("boom") }, `sim: process "s" panicked: boom`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			exited := false
			e.GoStep("s", tc.step).OnExit(func() { exited = true })
			defer func() {
				r := recover()
				if fmt.Sprint(r) != tc.want {
					t.Errorf("panic %v, want %q", r, tc.want)
				}
				if tc.name == "model panic" && !exited {
					t.Error("OnExit did not run before the panic surfaced")
				}
			}()
			e.Run()
		})
	}
}
