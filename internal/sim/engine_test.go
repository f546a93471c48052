package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Nanosecond != 1000*Picosecond {
		t.Fatalf("Nanosecond = %d", Nanosecond)
	}
	if Microsecond != 1000*Nanosecond || Millisecond != 1000*Microsecond || Second != 1000*Millisecond {
		t.Fatal("unit ladder broken")
	}
}

func TestNanosecondsConversion(t *testing.T) {
	cases := []struct {
		ns   float64
		want Time
	}{
		{0, 0},
		{1, 1000},
		{0.5, 500},
		{1.5, 1500},
		{100, 100000},
		{-2, -2000},
	}
	for _, c := range cases {
		if got := Nanoseconds(c.ns); got != c.want {
			t.Errorf("Nanoseconds(%v) = %v, want %v", c.ns, got, c.want)
		}
	}
}

func TestMicroseconds(t *testing.T) {
	if got := Microseconds(1.5); got != 1500*Nanosecond {
		t.Fatalf("Microseconds(1.5) = %v", got)
	}
}

func TestTimeAccessors(t *testing.T) {
	x := 2500 * Nanosecond
	if x.Ns() != 2500 {
		t.Errorf("Ns() = %v", x.Ns())
	}
	if x.Us() != 2.5 {
		t.Errorf("Us() = %v", x.Us())
	}
	if (2500 * Microsecond).Ms() != 2.5 {
		t.Errorf("Ms() wrong")
	}
	if (2 * Second).Seconds() != 2 {
		t.Errorf("Seconds() wrong")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{3 * Nanosecond, "3ns"},
		{1500 * Nanosecond, "1.5us"},
		{2 * Millisecond, "2ms"},
		{3 * Second, "3s"},
		{MaxTime, "+inf"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestBytesAtGbps(t *testing.T) {
	// 64 bytes at 100 Gb/s: 512 bits / 100e9 b/s = 5.12 ns = 5120 ps.
	if got := BytesAtGbps(64, 100); got != 5120*Picosecond {
		t.Fatalf("BytesAtGbps(64,100) = %v ps, want 5120", int64(got))
	}
	// 1 byte at 100 Gb/s = 80 ps exactly.
	if got := BytesAtGbps(1, 100); got != 80*Picosecond {
		t.Fatalf("BytesAtGbps(1,100) = %v ps, want 80", int64(got))
	}
	if BytesAtGbps(0, 100) != 0 || BytesAtGbps(-5, 100) != 0 {
		t.Fatal("non-positive byte counts must serialize in zero time")
	}
	// Rounds up: 1 byte at 3 Gb/s = 2666.67 ps -> 2667.
	if got := BytesAtGbps(1, 3); got != 2667 {
		t.Fatalf("BytesAtGbps(1,3) = %v, want 2667", int64(got))
	}
}

func TestBytesAtGbpsMonotonic(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return BytesAtGbps(x, 100) <= BytesAtGbps(y, 100)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run()
	if !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("order = %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		e.Schedule(100, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of insertion order: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Schedule(10, func() {
		got = append(got, "a")
		e.After(5, func() { got = append(got, "c") })
		e.After(0, func() { got = append(got, "b") })
	})
	e.Run()
	if !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("got %v", got)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past must panic")
			}
		}()
		e.Schedule(50, func() {})
	})
	e.Run()
}

func TestScheduleNilPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("nil fn must panic")
		}
	}()
	e.Schedule(0, nil)
}

func TestEventCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	ev.Cancel()
	if !ev.Cancelled() {
		t.Fatal("Cancelled() should be true")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(12)
	if !reflect.DeepEqual(fired, []Time{5, 10}) {
		t.Fatalf("fired = %v", fired)
	}
	if e.Now() != 12 {
		t.Fatalf("Now = %v, want 12", e.Now())
	}
	e.Run()
	if !reflect.DeepEqual(fired, []Time{5, 10, 15, 20}) {
		t.Fatalf("fired after Run = %v", fired)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(1000)
	if e.Now() != 1000 {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(1, func() { count++; e.Stop() })
	e.Schedule(2, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("count = %d", count)
	}
	e.Run() // resumes
	if count != 2 {
		t.Fatalf("count after resume = %d", count)
	}
}

// Property: events always fire in non-decreasing time order, and events at
// equal times fire in schedule order, for random schedules including events
// scheduled from within events.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		seq := 0
		var add func(base Time, depth int)
		add = func(base Time, depth int) {
			n := rng.Intn(6)
			for i := 0; i < n; i++ {
				at := base + Time(rng.Intn(50))
				mySeq := seq
				seq++
				e.Schedule(at, func() {
					fired = append(fired, rec{at, mySeq})
					if depth < 3 && rng.Intn(2) == 0 {
						add(e.Now(), depth+1)
					}
				})
			}
		}
		add(0, 0)
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the engine is deterministic — the same schedule produces the
// same event trace on every run.
func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var trace []string
		e.Trace = func(tm Time, label string) {
			trace = append(trace, fmt.Sprintf("%d:%s", tm, label))
		}
		for i := 0; i < 20; i++ {
			at := Time(rng.Intn(100))
			name := fmt.Sprintf("p%d", i)
			e.Go(name, func(p *Proc) {
				p.Sleep(at)
				p.Sleep(Time(rng.Intn(10)))
			})
		}
		e.Run()
		return trace
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical seeds produced different traces")
	}
}

func TestProcBasics(t *testing.T) {
	e := NewEngine()
	var log []string
	e.Go("worker", func(p *Proc) {
		log = append(log, fmt.Sprintf("start@%d", p.Now()))
		p.Sleep(100)
		log = append(log, fmt.Sprintf("mid@%d", p.Now()))
		p.Sleep(50)
		log = append(log, fmt.Sprintf("end@%d", p.Now()))
	})
	e.Run()
	want := []string{"start@0", "mid@100", "end@150"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("log = %v", log)
	}
}

func TestProcName(t *testing.T) {
	e := NewEngine()
	e.Go("abc", func(p *Proc) {
		if p.Name() != "abc" {
			t.Errorf("Name = %q", p.Name())
		}
		if p.Engine() != e {
			t.Error("Engine mismatch")
		}
	})
	e.Run()
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine()
	var log []string
	e.Go("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			log = append(log, fmt.Sprintf("a%d", p.Now()))
		}
	})
	e.Go("b", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(15)
			log = append(log, fmt.Sprintf("b%d", p.Now()))
		}
	})
	e.Run()
	// At t=30 both wake; b's wake event was scheduled at t=15 (before a's
	// at t=20), so b fires first — same-time order is schedule order.
	want := []string{"a10", "b15", "a20", "b30", "a30", "b45"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("log = %v", log)
	}
}

func TestProcSleepUntilAndYield(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Go("p", func(p *Proc) {
		p.SleepUntil(500)
		p.Yield()
		at = p.Now()
	})
	e.Run()
	if at != 500 {
		t.Fatalf("at = %v", at)
	}
}

func TestProcNegativeSleepPanics(t *testing.T) {
	e := NewEngine()
	e.Go("p", func(p *Proc) { p.Sleep(-1) })
	defer func() {
		if recover() == nil {
			t.Error("negative sleep must panic (propagated via engine)")
		}
	}()
	e.Run()
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Go("bad", func(p *Proc) { panic("boom") })
	defer func() {
		if recover() == nil {
			t.Error("process panic must propagate to Run")
		}
	}()
	e.Run()
}

func TestSignalBroadcast(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	var woke []string
	for _, n := range []string{"a", "b", "c"} {
		n := n
		e.Go(n, func(p *Proc) {
			s.Wait(p)
			woke = append(woke, n)
		})
	}
	e.Go("firer", func(p *Proc) {
		p.Sleep(100)
		if s.Waiters() != 3 {
			t.Errorf("Waiters = %d", s.Waiters())
		}
		s.Broadcast()
	})
	e.Run()
	if !reflect.DeepEqual(woke, []string{"a", "b", "c"}) {
		t.Fatalf("woke = %v", woke)
	}
	if s.Fires() != 1 {
		t.Fatalf("Fires = %d", s.Fires())
	}
}

func TestSignalNoLostWakeupAcrossBroadcasts(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	count := 0
	e.Go("w", func(p *Proc) {
		for i := 0; i < 3; i++ {
			s.Wait(p)
			count++
		}
	})
	e.Go("f", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			s.Broadcast()
		}
	})
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d", count)
	}
}

func TestCounterWaitGE(t *testing.T) {
	e := NewEngine()
	c := NewCounter(e)
	var wokeAt Time
	e.Go("waiter", func(p *Proc) {
		c.WaitGE(p, 3)
		wokeAt = p.Now()
	})
	e.Go("adder", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10)
			c.Add(1)
		}
	})
	e.Run()
	if wokeAt != 30 {
		t.Fatalf("wokeAt = %v, want 30", wokeAt)
	}
	if c.Value() != 5 {
		t.Fatalf("Value = %d", c.Value())
	}
}

func TestCounterWaitAlreadySatisfied(t *testing.T) {
	e := NewEngine()
	c := NewCounter(e)
	c.Add(10)
	ok := false
	e.Go("w", func(p *Proc) {
		c.WaitGE(p, 5) // returns immediately
		ok = true
	})
	e.Run()
	if !ok {
		t.Fatal("waiter never ran")
	}
}

func TestCounterNegativeAddPanics(t *testing.T) {
	e := NewEngine()
	c := NewCounter(e)
	defer func() {
		if recover() == nil {
			t.Error("negative Add must panic")
		}
	}()
	c.Add(-1)
}

func TestCounterMultipleThresholds(t *testing.T) {
	e := NewEngine()
	c := NewCounter(e)
	woke := map[int64]Time{}
	for _, th := range []int64{2, 4, 6} {
		th := th
		e.Go(fmt.Sprint(th), func(p *Proc) {
			c.WaitGE(p, th)
			woke[th] = p.Now()
		})
	}
	e.Go("adder", func(p *Proc) {
		for i := 0; i < 6; i++ {
			p.Sleep(10)
			c.Add(1)
		}
	})
	e.Run()
	want := map[int64]Time{2: 20, 4: 40, 6: 60}
	if !reflect.DeepEqual(woke, want) {
		t.Fatalf("woke = %v", woke)
	}
}

func TestQueueFIFO(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var got []int
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Pop(p))
		}
	})
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10)
			q.Push(i)
		}
	})
	e.Run()
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("got %v", got)
	}
}

func TestQueueTryPop(t *testing.T) {
	e := NewEngine()
	q := NewQueue[string](e)
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue returned ok")
	}
	q.Push("x")
	if q.Len() != 1 {
		t.Fatalf("Len = %d", q.Len())
	}
	v, ok := q.TryPop()
	if !ok || v != "x" {
		t.Fatalf("TryPop = %q, %v", v, ok)
	}
}

// TestQueueRingWrapsAndGrows drives the ring through wrap-around and
// growth with a backlog that rises and falls, checking FIFO order against
// a plain slice.
func TestQueueRingWrapsAndGrows(t *testing.T) {
	q := NewQueue[int](NewEngine())
	var want []int
	next := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < round%13+1; i++ {
			q.Push(next)
			want = append(want, next)
			next++
		}
		for i := 0; i < round%11; i++ {
			v, ok := q.TryPop()
			if len(want) == 0 {
				if ok {
					t.Fatalf("round %d: TryPop = %d on empty queue", round, v)
				}
				continue
			}
			if !ok || v != want[0] {
				t.Fatalf("round %d: TryPop = %d, %v; want %d", round, v, ok, want[0])
			}
			want = want[1:]
		}
		if q.Len() != len(want) {
			t.Fatalf("round %d: Len = %d, want %d", round, q.Len(), len(want))
		}
	}
}

func TestQueueMultipleConsumersFIFO(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var got []string
	for _, n := range []string{"c1", "c2"} {
		n := n
		e.Go(n, func(p *Proc) {
			v := q.Pop(p)
			got = append(got, fmt.Sprintf("%s=%d", n, v))
		})
	}
	e.Go("producer", func(p *Proc) {
		p.Sleep(5)
		q.Push(100)
		p.Sleep(5)
		q.Push(200)
	})
	e.Run()
	sort.Strings(got)
	if !reflect.DeepEqual(got, []string{"c1=100", "c2=200"}) {
		t.Fatalf("got %v", got)
	}
}

func TestResourceSemaphore(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	var log []string
	for i := 0; i < 4; i++ {
		i := i
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			r.Acquire(p, 1)
			log = append(log, fmt.Sprintf("acq%d@%d", i, p.Now()))
			p.Sleep(100)
			r.Release(1)
		})
	}
	e.Run()
	want := []string{"acq0@0", "acq1@0", "acq2@100", "acq3@100"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("log = %v", log)
	}
	if r.InUse() != 0 {
		t.Fatalf("InUse = %d after drain", r.InUse())
	}
}

func TestResourceFIFONoBarging(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 3)
	var order []string
	// big (3 units) arrives before small (1 unit); small must not barge.
	e.Go("hold", func(p *Proc) {
		r.Acquire(p, 2)
		p.Sleep(100)
		r.Release(2)
	})
	e.Go("big", func(p *Proc) {
		p.Sleep(10)
		r.Acquire(p, 3)
		order = append(order, fmt.Sprintf("big@%d", p.Now()))
		r.Release(3)
	})
	e.Go("small", func(p *Proc) {
		p.Sleep(20)
		r.Acquire(p, 1)
		order = append(order, fmt.Sprintf("small@%d", p.Now()))
		r.Release(1)
	})
	e.Run()
	want := []string{"big@100", "small@100"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v", order)
	}
}

func TestResourceInvalidOps(t *testing.T) {
	e := NewEngine()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero capacity", func() { NewResource(e, 0) })
	r := NewResource(e, 2)
	mustPanic("release without acquire", func() { r.Release(1) })
	e.Go("p", func(p *Proc) {
		mustPanic("acquire too much", func() { r.Acquire(p, 3) })
		mustPanic("acquire zero", func() { r.Acquire(p, 0) })
	})
	e.Run()
	if r.Available() != 2 {
		t.Fatalf("Available = %d", r.Available())
	}
}

// Property: a Resource never exceeds capacity and always drains to zero,
// under random acquire/hold/release workloads.
func TestResourceConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		cap := int64(rng.Intn(4) + 1)
		r := NewResource(e, cap)
		violated := false
		for i := 0; i < 10; i++ {
			n := int64(rng.Intn(int(cap)) + 1)
			hold := Time(rng.Intn(50) + 1)
			start := Time(rng.Intn(100))
			e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
				p.Sleep(start)
				r.Acquire(p, n)
				if r.InUse() > r.Capacity() {
					violated = true
				}
				p.Sleep(hold)
				r.Release(n)
			})
		}
		e.Run()
		return !violated && r.InUse() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
