package sim

import "testing"

// BenchmarkSchedule measures the steady-state schedule+fire path: one
// future push and one pop per iteration against a warmed arena. The
// acceptance bar is 0 allocs/op — the free list and the instant queue's
// capacity must absorb the churn entirely.
func BenchmarkSchedule(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.Schedule(Time(i+1), fn)
	}
	for e.step() {
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.now+Time(i%64+1), fn)
		e.step()
	}
}

// BenchmarkScheduleNow measures the same-time fast path: schedules at the
// current instant bypass the instant queue through the nowq FIFO ring.
func BenchmarkScheduleNow(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.Schedule(Time(i+1), fn)
	}
	for e.step() {
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.now, fn)
		e.step()
	}
}

// BenchmarkScheduleCancel measures the schedule+cancel path: the cancelled
// event is lazily reclaimed by the next pop-side drain.
func BenchmarkScheduleCancel(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.Schedule(Time(i+1), fn)
	}
	for e.step() {
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.Schedule(e.now+1, fn)
		ev.Cancel()
		e.step()
	}
}

// BenchmarkProcSwitch measures one process switch round trip: a Sleep(1)
// parks the process, the engine pops its wake and resumes it.
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEngine()
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcSpawn measures a short-lived process's whole life on a
// running engine: spawn, first dispatch, and return.
func BenchmarkProcSpawn(b *testing.B) {
	e := NewEngine()
	fn := func(*Proc) {}
	e.Go("spawner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			e.Go("short", fn)
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkFanOutSleep measures the work-group fan-out shape: one Counter
// wakes 64 processes, each sleeps the same lag and then schedules an event
// at the same offset, like a kernel's work-groups each posting a trigger
// write. Each burst shares one birth, so it lands in one instant in key
// order and is never sorted. A standing backlog of 512 far-future events
// gives the queue the depth of a 16-node ring Allreduce (485 future events
// queued on average). One op is one round of the fan-out; ns/event divides
// by every event fired.
func BenchmarkFanOutSleep(b *testing.B) {
	const width = 64
	e := NewEngine()
	ct := NewCounter(e)
	fn := func() {}
	for i := 0; i < 512; i++ {
		e.Schedule(Time(1<<40+i), fn)
	}
	rounds := b.N + 1 // the first round warms the coroutines and slices
	for i := 0; i < width; i++ {
		e.Go("wg", func(p *Proc) {
			for r := 1; r <= rounds; r++ {
				ct.WaitGE(p, int64(r))
				p.Sleep(10)
				e.After(5, fn)
			}
		})
	}
	e.Go("counter", func(p *Proc) {
		for r := 0; r < rounds; r++ {
			ct.Add(1)
			p.Sleep(100)
		}
		e.Stop()
	})
	e.RunUntil(99)
	warm := e.Executed()
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.Executed()-warm), "ns/event")
}

// BenchmarkLockstepLanes measures the halo exchange's lockstep shape: 1024
// lanes, one per node, fire at the same instants and each schedule the same
// few future offsets, so thousands of queued events share four times. Per
// lane and round, a tick schedules an echo, the next tick and a leaf; the
// echo schedules a pong due with the next tick, and the pong schedules a
// leaf too. Ticks and pongs fire at one time with different births, so the
// leaves they push arrive lane 0..1023 twice over: out of key order, as
// halo-fattree's do. One op is one round (five events a lane); ns/event
// divides by every event fired.
func BenchmarkLockstepLanes(b *testing.B) {
	const lanes, period = 1024, 10
	e := NewEngine()
	leaf := func() {}
	var tick, echo, pong func()
	tick = func() {
		e.After(period/2, echo)
		e.After(period, tick)
		e.After(3, leaf)
	}
	echo = func() { e.After(period/2, pong) }
	pong = func() { e.After(3, leaf) }
	for lane := uint32(1); lane <= lanes; lane++ {
		e.SetLane(lane)
		e.After(period, tick)
	}
	e.SetLane(0)
	e.RunUntil(2 * period) // the first round warms the arena and queue
	warm := e.Executed()
	b.ReportAllocs()
	b.ResetTimer()
	e.RunUntil(Time(2+b.N) * period)
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.Executed()-warm), "ns/event")
}
