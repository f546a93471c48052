package sim

import (
	"strings"
	"testing"
)

func TestBlockedWaitersReportsCounterWait(t *testing.T) {
	eng := NewEngine()
	ct := NewCounter(eng)
	eng.Go("stuck", func(p *Proc) { ct.WaitGE(p, 5) })
	eng.Go("fine", func(p *Proc) { p.Sleep(Microsecond) })
	eng.Run()

	blocked := eng.BlockedWaiters()
	if len(blocked) != 1 {
		t.Fatalf("blocked = %+v, want exactly the stuck proc", blocked)
	}
	w := blocked[0]
	if w.Proc != "stuck" || w.Kind != "counter" {
		t.Fatalf("waiter = %+v", w)
	}
	if !strings.Contains(w.Detail, "value=0") || !strings.Contains(w.Detail, "target=5") {
		t.Fatalf("detail = %q, want counter progress", w.Detail)
	}
}

func TestBlockedWaitersClearedOnWake(t *testing.T) {
	eng := NewEngine()
	ct := NewCounter(eng)
	eng.Go("waiter", func(p *Proc) { ct.WaitGE(p, 1) })
	eng.Go("producer", func(p *Proc) {
		p.Sleep(Microsecond)
		ct.Add(1)
	})
	eng.Run()
	if blocked := eng.BlockedWaiters(); len(blocked) != 0 {
		t.Fatalf("blocked = %+v after satisfied wait", blocked)
	}
	if diag := eng.Diagnose(nil); diag != nil {
		t.Fatalf("clean run diagnosed as hang: %v", diag)
	}
}

// A consumer parked in Pop on an empty queue is normal at quiescence and
// must not pollute a diagnosis (idle queue servers: serve_test.go).
func TestBlockedWaitersIgnoresQueueConsumers(t *testing.T) {
	eng := NewEngine()
	q := NewQueue[int](eng)
	eng.Go("server", func(p *Proc) {
		for {
			q.Pop(p)
		}
	})
	eng.Run()
	if blocked := eng.BlockedWaiters(); len(blocked) != 0 {
		t.Fatalf("idle queue consumer reported as blocked: %+v", blocked)
	}
}

func TestBlockedWaitersSignalAndResource(t *testing.T) {
	eng := NewEngine()
	sig := NewSignal(eng)
	res := NewResource(eng, 1)
	eng.Go("sigwait", func(p *Proc) { sig.Wait(p) })
	eng.Go("hog", func(p *Proc) { res.Acquire(p, 1) }) // acquires and exits without release
	eng.Go("reswait", func(p *Proc) {
		p.Sleep(Nanosecond) // let the hog win the FIFO slot
		res.Acquire(p, 1)
	})
	eng.Run()

	kinds := map[string]string{}
	for _, w := range eng.BlockedWaiters() {
		kinds[w.Proc] = w.Kind
	}
	if kinds["sigwait"] != "signal" {
		t.Errorf("sigwait reported as %q", kinds["sigwait"])
	}
	if kinds["reswait"] != "resource" {
		t.Errorf("reswait reported as %q", kinds["reswait"])
	}
	if len(kinds) != 2 {
		t.Errorf("waiters = %+v, want exactly two", kinds)
	}
}

func TestHangErrorMessage(t *testing.T) {
	eng := NewEngine()
	ct := NewCounter(eng)
	ct.Add(3)
	eng.Go("rank2", func(p *Proc) { ct.WaitGE(p, 64) })
	eng.Run()

	starved := []StarvedTrigger{
		{Node: 1, Tag: 7, Counter: 3, Threshold: 64, Registered: true},
		{Node: 2, Tag: 9, Counter: 2, Registered: false},
	}
	diag := eng.Diagnose(starved)
	if diag == nil {
		t.Fatal("expected a diagnosis")
	}
	msg := diag.Error()
	for _, want := range []string{
		"node 1 tag 7", "3/64",
		"node 2 tag 9", "op never registered",
		"rank2", "counter",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnosis missing %q:\n%s", want, msg)
		}
	}
}

func TestHangErrorCapsLongLists(t *testing.T) {
	var starved []StarvedTrigger
	for i := 0; i < 20; i++ {
		starved = append(starved, StarvedTrigger{Node: i, Tag: uint64(i), Threshold: 1, Registered: true})
	}
	e := &HangError{Starved: starved}
	msg := e.Error()
	if !strings.Contains(msg, "+14 more") {
		t.Fatalf("long list not capped: %s", msg)
	}
}
