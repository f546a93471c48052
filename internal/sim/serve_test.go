package sim

import (
	"reflect"
	"testing"
)

// A server drains its queue and goes idle; the next Push restarts it from
// the top, both later in the same run and after Run has returned (when the
// engine has stopped its idle coroutines).
func TestServeRestartsAfterDrain(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	type served struct {
		v  int
		at Time
	}
	var got []served
	q.Serve("srv", func(p *Proc, v int) {
		p.Sleep(5)
		got = append(got, served{v, p.Now()})
	})
	e.Go("producer", func(p *Proc) {
		q.Push(1)
		q.Push(2)
		p.Sleep(100) // the server drains both and goes idle
		q.Push(3)
	})
	e.Run()
	want := []served{{1, 5}, {2, 10}, {3, 105}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("served %v, want %v", got, want)
	}
	if q.srv.Dead() || !q.srv.idle {
		t.Fatalf("drained server: dead=%v idle=%v, want an idle live server", q.srv.Dead(), q.srv.idle)
	}

	q.Push(4)
	e.Run()
	want = append(want, served{4, 110})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after a second Run served %v, want %v", got, want)
	}
}

// Registering a server schedules nothing, and a drained server leaves no
// coroutine behind: Run stops the pool its coroutine went back to.
func TestServeIdleCostsNothing(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	q.Serve("srv", func(p *Proc, v int) { p.Sleep(1) })
	if n := e.Pending(); n != 0 {
		t.Fatalf("Serve scheduled %d events, want 0", n)
	}
	q.Push(1)
	e.Run()
	if n := len(e.idle); n != 0 {
		t.Fatalf("%d idle coroutines after Run, want 0", n)
	}
	if e.Executed() != 2 {
		t.Fatalf("executed %d events, want 2 (dispatch and sleep)", e.Executed())
	}
}

// Re-arming a drained server inside one run allocates nothing: its wake
// is the engine's allocation-free process event and its coroutine comes
// from the idle pool.
func TestServeRearmAllocatesNothing(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	sum := 0
	q.Serve("srv", func(p *Proc, v int) {
		p.Sleep(1)
		sum += v
	})
	var allocs float64
	e.Go("producer", func(p *Proc) {
		allocs = testing.AllocsPerRun(100, func() {
			q.Push(1)
			p.Sleep(10)
		})
	})
	e.Run()
	if allocs != 0 {
		t.Fatalf("re-arming a server allocates %.1f times, want 0", allocs)
	}
	if sum != 101 {
		t.Fatalf("served %d items, want 101", sum)
	}
}

// An idle server waits on nothing and is never reported as blocked.
func TestServeIdleServerNotBlocked(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	q.Serve("srv", func(p *Proc, v int) { p.Sleep(1) })
	e.Go("producer", func(p *Proc) { q.Push(1) })
	e.Run()
	if blocked := e.BlockedWaiters(); len(blocked) != 0 {
		t.Fatalf("idle server reported as blocked: %+v", blocked)
	}
	if diag := e.Diagnose(nil); diag != nil {
		t.Fatalf("drained run diagnosed as hang: %v", diag)
	}
}

// A server parked on a counter is listed where Serve registered it, not
// where it first ran: a hang diagnosis keeps spawn order.
func TestServeBlockedServerListedInSpawnOrder(t *testing.T) {
	e := NewEngine()
	c := NewCounter(e)
	q := NewQueue[int](e)
	e.Go("first", func(p *Proc) { c.WaitGE(p, 1) })
	q.Serve("srv", func(p *Proc, v int) { c.WaitGE(p, 2) })
	e.Go("last", func(p *Proc) {
		c.WaitGE(p, 3)
	})
	e.Go("producer", func(p *Proc) {
		p.Sleep(10) // the server first runs after every other process
		q.Push(1)
	})
	e.Run()
	var names []string
	for _, w := range e.BlockedWaiters() {
		names = append(names, w.Proc)
	}
	if want := []string{"first", "srv", "last"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("blocked %v, want %v", names, want)
	}
}

// A model panic in a server body surfaces from Run like any process's.
func TestServePanicSurfaces(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	q.Serve("srv", func(p *Proc, v int) { panic("boom") })
	q.Push(1)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("server panic was swallowed")
		}
	}()
	e.Run()
}

func TestServeExcludesPop(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	q.Serve("srv", func(p *Proc, v int) {})
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on a served queue did not panic")
		}
	}()
	q.Pop(nil)
}
