package sim

import "testing"

// A Push must never hand its wakeup to a killed consumer: the dead waiter
// is skipped and a live consumer behind it gets the item. (The original
// bug: the wakeup was consumed by the corpse while the item stayed queued,
// parking live consumers forever.)
func TestQueuePushSkipsKilledWaiters(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	gotA, gotB := -1, -1
	var a *Proc
	a = e.Go("a", func(p *Proc) { gotA = q.Pop(p) })
	e.Go("b", func(p *Proc) { gotB = q.Pop(p) })
	e.Go("driver", func(p *Proc) {
		p.Sleep(1 * Microsecond) // both consumers are parked, a at the head
		e.Kill(a)
		q.Push(42)
	})
	e.Run()
	if gotA != -1 {
		t.Fatalf("killed consumer popped %d", gotA)
	}
	if gotB != 42 {
		t.Fatalf("live consumer got %d, want 42", gotB)
	}
	if q.Len() != 0 {
		t.Fatalf("item still queued (len %d) — wakeup was lost", q.Len())
	}
}

// Killing every parked consumer must leave the queue usable: the items stay
// queued and a consumer spawned later drains them.
func TestQueueSurvivesAllConsumersKilled(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var a, b *Proc
	a = e.Go("a", func(p *Proc) { q.Pop(p); t.Error("dead consumer ran") })
	b = e.Go("b", func(p *Proc) { q.Pop(p); t.Error("dead consumer ran") })
	var got []int
	e.Go("driver", func(p *Proc) {
		p.Sleep(1 * Microsecond)
		e.Kill(a)
		e.Kill(b)
		q.Push(1)
		q.Push(2)
		e.Go("late", func(p *Proc) {
			got = append(got, q.Pop(p), q.Pop(p))
		})
	})
	e.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("late consumer drained %v, want [1 2]", got)
	}
}

// A waiter killed while parked on Acquire must not receive a grant it can
// never consume: admission skips the corpse and the freed capacity goes to
// the next live waiter.
func TestResourceAdmitSkipsKilledWaiters(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var b *Proc
	gotC := false
	e.Go("a", func(p *Proc) {
		r.Acquire(p, 1)
		p.Sleep(2 * Microsecond)
		r.Release(1)
	})
	e.Go("spawn", func(p *Proc) {
		p.Sleep(1 * Microsecond) // a holds the unit; b then c queue behind it
		b = e.Go("b", func(p *Proc) { r.Acquire(p, 1); t.Error("dead waiter acquired") })
		e.Go("c", func(p *Proc) {
			r.Acquire(p, 1)
			gotC = true
			r.Release(1)
		})
		p.Sleep(500 * Nanosecond)
		e.Kill(b)
	})
	e.Run()
	if !gotC {
		t.Fatal("live waiter behind the killed one never acquired")
	}
	if r.InUse() != 0 {
		t.Fatalf("capacity leaked: inUse=%d", r.InUse())
	}
}

// A waiter granted units and killed in the same instant — before its wake
// dispatches — must roll the grant back when it unwinds, so the capacity
// returns to the pool instead of leaking with the corpse.
func TestResourceKilledMidAcquireRollsBack(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	var victim *Proc
	e.Go("holder", func(p *Proc) {
		r.Acquire(p, 2)
		p.Sleep(1 * Microsecond)
		r.Release(2) // grants the parked victim in this instant...
	})
	e.Go("spawn", func(p *Proc) {
		p.Sleep(500 * Nanosecond)
		victim = e.Go("victim", func(p *Proc) {
			r.Acquire(p, 2)
			t.Error("victim resumed with the grant")
		})
	})
	ok := false
	e.Go("driver", func(p *Proc) {
		p.Sleep(1 * Microsecond) // ...and the kill lands before the victim's wake
		e.Kill(victim)
		e.Go("next", func(p *Proc) {
			r.Acquire(p, 2)
			ok = true
			r.Release(2)
		})
	})
	e.Run()
	if !ok {
		t.Fatal("capacity granted to the killed process was never reclaimed")
	}
	if r.InUse() != 0 {
		t.Fatalf("capacity leaked: inUse=%d", r.InUse())
	}
}

// OnExit callbacks run on every termination path — normal return and a
// Kill that lands before the body's first instruction.
func TestOnExitRunsOnKillBeforeFirstDispatch(t *testing.T) {
	e := NewEngine()
	order := []string{}
	p1 := e.Go("early-kill", func(*Proc) { t.Error("body ran after pre-dispatch kill") })
	p1.OnExit(func() { order = append(order, "early") })
	e.Kill(p1)
	p2 := e.Go("normal", func(p *Proc) { p.Sleep(1 * Microsecond) })
	p2.OnExit(func() { order = append(order, "normal") })
	e.Run()
	if len(order) != 2 || order[0] != "early" || order[1] != "normal" {
		t.Fatalf("exit callbacks = %v, want [early normal]", order)
	}
	if !p1.Dead() || !p2.Dead() {
		t.Fatal("procs not marked dead")
	}
}

// Kill is idempotent and a killed process counts as Dead immediately, even
// before it unwinds.
func TestKillIdempotentAndImmediatelyDead(t *testing.T) {
	e := NewEngine()
	p := e.Go("victim", func(p *Proc) { p.Sleep(10 * Microsecond) })
	e.Go("driver", func(q *Proc) {
		q.Sleep(1 * Microsecond)
		e.Kill(p)
		if !p.Dead() {
			t.Error("killed proc not Dead() before unwinding")
		}
		e.Kill(p) // no-op
	})
	e.Run()
}
