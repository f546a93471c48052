package sim

import "testing"

// BenchmarkSchedule measures the steady-state schedule+fire path: one heap
// push and one pop per iteration against a warmed arena. The acceptance
// bar is 0 allocs/op — the free list and heap capacity must absorb the
// churn entirely.
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
// current instant bypass the heap through the nowq FIFO ring.
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
