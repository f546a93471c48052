package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// Spawning a process starts nothing until its first dispatch, and Run
// stops the coroutines its returned processes leave idle: a cluster's
// worth of short-lived processes leaves the goroutine count where it was.
// (Goroutines left over from earlier tests may still be exiting, so only
// growth counts.)
func TestProcsLeaveNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	for i := 0; i < 1000; i++ {
		e.Go("short", func(p *Proc) { p.Sleep(Time(i%7) * Nanosecond) })
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("spawning 1000 procs grew goroutines %d -> %d before any ran", before, got)
	}
	e.Run()
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("1000 returned procs grew goroutines %d -> %d", before, got)
	}
}

// A returned process's coroutine runs the next process spawned on the
// engine, so a run of sequential short-lived processes starts one
// coroutine, not one per process.
func TestIdleCoroutineRunsNextProc(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Go("spawner", func(p *Proc) {
		for i := 0; i < 100; i++ {
			e.Go("short", func(*Proc) { ran++ })
			p.Sleep(Nanosecond)
			if len(e.idle) != 1 {
				t.Errorf("after spawn %d: %d idle coroutines, want 1", i, len(e.idle))
				return
			}
		}
	})
	e.Run()
	if ran != 100 {
		t.Fatalf("ran %d short procs, want 100", ran)
	}
	if len(e.idle) != 0 {
		t.Fatalf("Run left %d idle coroutines", len(e.idle))
	}
}

// Engine.procs must not grow with every process ever spawned: dead ones
// are compacted out, and the survivors keep spawn order, so the watchdog
// still lists blocked waiters in the order they were spawned.
func TestProcTableStaysBounded(t *testing.T) {
	e := NewEngine()
	never := NewSignal(e)
	e.Go("stuck-first", func(p *Proc) { never.Wait(p) })
	peak := 0
	e.Go("spawner", func(p *Proc) {
		for i := 0; i < 10000; i++ {
			e.Go("short", func(q *Proc) { q.Sleep(Nanosecond) })
			p.Sleep(Nanosecond)
			peak = max(peak, len(e.procs))
		}
		e.Go("stuck-last", func(p *Proc) { never.Wait(p) })
	})
	e.Run()
	if peak > 128 {
		t.Fatalf("proc table peaked at %d entries over 10k short-lived procs, want ≤ 128", peak)
	}
	var names []string
	for _, w := range e.BlockedWaiters() {
		names = append(names, w.Proc)
	}
	if got := strings.Join(names, ","); got != "stuck-first,stuck-last" {
		t.Fatalf("blocked waiters = %s, want stuck-first,stuck-last", got)
	}
}

// A kill unwinds a process parked deep inside nested calls like a panic:
// every pending defer runs, innermost first, and only then do the onExit
// callbacks run. No model code after the park executes.
func TestKillRunsNestedDefersThenOnExit(t *testing.T) {
	e := NewEngine()
	var order []string
	var nest func(p *Proc, depth int)
	nest = func(p *Proc, depth int) {
		defer func() { order = append(order, fmt.Sprintf("defer%d", depth)) }()
		if depth == 3 {
			p.Sleep(10 * Microsecond)
			t.Error("killed proc resumed model code")
			return
		}
		nest(p, depth+1)
	}
	victim := e.Go("victim", func(p *Proc) { nest(p, 1) })
	victim.OnExit(func() { order = append(order, "exit1") })
	victim.OnExit(func() { order = append(order, "exit2") })
	e.Go("killer", func(p *Proc) {
		p.Sleep(Microsecond)
		e.Kill(victim)
	})
	e.Run()
	if got := strings.Join(order, ","); got != "defer3,defer2,defer1,exit1,exit2" {
		t.Fatalf("unwind order = %s, want defer3,defer2,defer1,exit1,exit2", got)
	}
}

// A model panic surfaces on the engine's goroutine with the process name,
// after the process's onExit callbacks have run.
func TestProcPanicNamesProcessAfterOnExit(t *testing.T) {
	e := NewEngine()
	exited := false
	p := e.Go("bad", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("boom")
	})
	p.OnExit(func() { exited = true })
	defer func() {
		r := recover()
		if r != `sim: process "bad" panicked: boom` {
			t.Fatalf("recovered %v", r)
		}
		if !exited {
			t.Fatal("onExit did not run before the panic surfaced")
		}
		if !p.Dead() {
			t.Fatal("panicked proc not Dead")
		}
	}()
	e.Run()
}

// Resumes counts coroutine switches only: a start, each wake and a kill's
// unwind, but no plain event and no dispatch of a process killed before it
// ever ran.
func TestResumesCountsCoroutineSwitches(t *testing.T) {
	e := NewEngine()
	e.Go("sleeper", func(p *Proc) { // start + 2 wakes
		p.Sleep(Nanosecond)
		p.Sleep(0)
	})
	victim := e.Go("victim", func(p *Proc) { p.Sleep(Second) }) // start + unwind
	e.Kill(e.Go("stillborn", func(*Proc) { t.Error("killed process ran") }))
	e.After(Nanosecond, func() { e.Kill(victim) })
	e.After(2*Nanosecond, func() {})
	e.Run()
	if got := e.Resumes(); got != 5 {
		t.Fatalf("Resumes = %d, want 5", got)
	}
}
