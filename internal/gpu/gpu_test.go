package gpu

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/memsys"
	"repro/internal/sim"
)

func newGPU(t testing.TB) (*sim.Engine, *GPU) {
	t.Helper()
	cfg := config.Default()
	eng := sim.NewEngine()
	mem := memsys.FromGPU(cfg.GPU, cfg.CPU)
	return eng, New(eng, cfg.GPU, mem)
}

func TestEmptyKernelCostsLaunchPlusTeardown(t *testing.T) {
	eng, g := newGPU(t)
	var done sim.Time
	eng.Go("host", func(p *sim.Proc) {
		g.LaunchSync(p, &Kernel{Name: "empty", WorkGroups: 1})
		done = p.Now()
	})
	eng.Run()
	// Table 2 calibration: 1.5us launch + 1.5us teardown = 3us.
	if done != 3*sim.Microsecond {
		t.Fatalf("empty kernel took %v, want 3us", done)
	}
}

func TestKernelBodyRunsPerWorkGroup(t *testing.T) {
	eng, g := newGPU(t)
	ran := map[int]bool{}
	groups := 0
	eng.Go("host", func(p *sim.Proc) {
		g.LaunchSync(p, &Kernel{
			Name: "k", WorkGroups: 10, WGSize: 64,
			Body: func(wg *WGCtx) {
				ran[wg.Group] = true
				groups = wg.NumGroups
				wg.Compute(100 * sim.Nanosecond)
			},
		})
	})
	eng.Run()
	if len(ran) != 10 || groups != 10 {
		t.Fatalf("ran %d groups (NumGroups=%d)", len(ran), groups)
	}
}

func TestWorkGroupsRunConcurrentlyUpToOccupancy(t *testing.T) {
	cfg := config.Default()
	cfg.GPU.ComputeUnits = 2
	cfg.GPU.MaxWGPerCU = 1 // only 2 slots
	eng := sim.NewEngine()
	g := New(eng, cfg.GPU, memsys.FromGPU(cfg.GPU, cfg.CPU))
	var done sim.Time
	eng.Go("host", func(p *sim.Proc) {
		g.LaunchSync(p, &Kernel{
			Name: "k", WorkGroups: 4,
			Body: func(wg *WGCtx) { wg.Compute(1 * sim.Microsecond) },
		})
		done = p.Now()
	})
	eng.Run()
	// 4 WGs on 2 slots = 2 waves of 1us + 3us overhead.
	want := 3*sim.Microsecond + 2*sim.Microsecond
	if done != want {
		t.Fatalf("done = %v, want %v", done, want)
	}
}

func TestKernelsFIFOOnQueue(t *testing.T) {
	eng, g := newGPU(t)
	var order []string
	eng.Go("host", func(p *sim.Proc) {
		k1 := &Kernel{Name: "k1", WorkGroups: 1, Body: func(wg *WGCtx) { order = append(order, "k1") }}
		k2 := &Kernel{Name: "k2", WorkGroups: 1, Body: func(wg *WGCtx) { order = append(order, "k2") }}
		g.Launch(k1)
		g.Launch(k2)
		k2.Wait(p)
	})
	eng.Run()
	if len(order) != 2 || order[0] != "k1" || order[1] != "k2" {
		t.Fatalf("order = %v", order)
	}
	if g.KernelsLaunched() != 2 {
		t.Fatalf("KernelsLaunched = %d", g.KernelsLaunched())
	}
}

func TestLaunchValidation(t *testing.T) {
	for _, k := range []*Kernel{
		{Name: "no work-groups", WorkGroups: 0},
		{Name: "negative WGTime", WorkGroups: 1, WGTime: -1},
		{Name: "WGTime and a body", WorkGroups: 1, WGTime: 1, Body: func(*WGCtx) {}},
		{Name: "WGTime and a step", WorkGroups: 1, WGTime: 1, Step: func(*WGCtx) bool { return false }},
		{Name: "a body and a step", WorkGroups: 1, Body: func(*WGCtx) {}, Step: func(*WGCtx) bool { return false }},
	} {
		t.Run(k.Name, func(t *testing.T) {
			_, g := newGPU(t)
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			g.Launch(k)
		})
	}
}

func TestWaitBeforeLaunchPanics(t *testing.T) {
	eng, _ := newGPU(t)
	k := &Kernel{Name: "k", WorkGroups: 1}
	eng.Go("host", func(p *sim.Proc) { k.Wait(p) })
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	eng.Run()
}

func TestLaunchModelSeesQueueDepth(t *testing.T) {
	eng, g := newGPU(t)
	var depths []int
	g.SetLaunchModel(func(queued int) sim.Time {
		depths = append(depths, queued)
		return 1 * sim.Microsecond
	})
	eng.Go("host", func(p *sim.Proc) {
		var last *Kernel
		for i := 0; i < 4; i++ {
			last = &Kernel{Name: "e", WorkGroups: 1}
			g.Launch(last)
		}
		last.Wait(p)
	})
	eng.Run()
	// All 4 enqueued at once: scheduler sees depth 4, then 3, 2, 1.
	want := []int{4, 3, 2, 1}
	for i, d := range depths {
		if d != want[i] {
			t.Fatalf("depths = %v, want %v", depths, want)
		}
	}
}

func TestScopedMemoryOpsCost(t *testing.T) {
	eng, g := newGPU(t)
	cfg := g.Config()
	var fenceDur, storeDur, barrierDur sim.Time
	stored := false
	eng.Go("host", func(p *sim.Proc) {
		g.LaunchSync(p, &Kernel{
			Name: "k", WorkGroups: 1,
			Body: func(wg *WGCtx) {
				t0 := wg.Now()
				wg.FenceSystem()
				fenceDur = wg.Now() - t0
				t0 = wg.Now()
				wg.AtomicStoreSystem(func() { stored = true })
				storeDur = wg.Now() - t0
				t0 = wg.Now()
				wg.Barrier()
				barrierDur = wg.Now() - t0
			},
		})
	})
	eng.Run()
	if fenceDur != cfg.FenceSystemScope {
		t.Errorf("fence = %v", fenceDur)
	}
	if storeDur != cfg.AtomicSystemStore || !stored {
		t.Errorf("store = %v stored=%v", storeDur, stored)
	}
	if barrierDur != cfg.BarrierWorkGroup {
		t.Errorf("barrier = %v", barrierDur)
	}
}

func TestPollUntil(t *testing.T) {
	eng, g := newGPU(t)
	flag := sim.NewCounter(eng)
	var sawAt sim.Time
	eng.Go("host", func(p *sim.Proc) {
		g.LaunchSync(p, &Kernel{
			Name: "poller", WorkGroups: 1,
			Body: func(wg *WGCtx) {
				wg.PollUntil(flag, 1)
				sawAt = wg.Now()
			},
		})
	})
	eng.Go("nic", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		flag.Add(1)
	})
	eng.Run()
	if sawAt != 10*sim.Microsecond {
		t.Fatalf("sawAt = %v", sawAt)
	}
}

func TestPollUntilForTimesOutAndRecovers(t *testing.T) {
	eng, g := newGPU(t)
	flag := sim.NewCounter(eng)
	var timedOut, satisfied, forever bool
	eng.Go("host", func(p *sim.Proc) {
		g.LaunchSync(p, &Kernel{
			Name: "poller", WorkGroups: 1,
			Body: func(wg *WGCtx) {
				// Deadline expires with the flag untouched.
				timedOut = !wg.PollUntilFor(flag, 1, 2*sim.Microsecond)
				// The flag lands before the second deadline.
				satisfied = wg.PollUntilFor(flag, 1, 100*sim.Microsecond)
				// Zero timeout = block without a deadline.
				forever = wg.PollUntilFor(flag, 2, 0)
			},
		})
	})
	eng.Go("nic", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		flag.Add(1)
		p.Sleep(10 * sim.Microsecond)
		flag.Add(1)
	})
	eng.Run()
	if !timedOut {
		t.Fatal("first poll should have timed out")
	}
	if !satisfied {
		t.Fatal("second poll should have succeeded")
	}
	if !forever {
		t.Fatal("zero-timeout poll should have blocked until satisfied")
	}
}

func TestOnComplete(t *testing.T) {
	eng, g := newGPU(t)
	var completeAt sim.Time
	eng.Go("host", func(p *sim.Proc) {
		k := &Kernel{Name: "k", WorkGroups: 1, OnComplete: func() { completeAt = eng.Now() }}
		g.LaunchSync(p, k)
	})
	eng.Run()
	if completeAt != 3*sim.Microsecond {
		t.Fatalf("completeAt = %v", completeAt)
	}
}

func TestComputeTime(t *testing.T) {
	_, g := newGPU(t)
	// 64 ops on 64 lanes at 1 GHz = 1 cycle = 1ns.
	if got := g.ComputeTime(64, 64); got != 1*sim.Nanosecond {
		t.Errorf("ComputeTime(64,64) = %v", got)
	}
	if g.ComputeTime(0, 64) != 0 {
		t.Error("zero ops should be free")
	}
	// Default wg size kicks in for wgSize <= 0.
	if g.ComputeTime(64, 0) != 1*sim.Nanosecond {
		t.Error("default wg size not applied")
	}
}

func TestMemoryTimeScalesWithWorkingSet(t *testing.T) {
	_, g := newGPU(t)
	small := g.MemoryTime(4096, 1<<10)
	big := g.MemoryTime(4096, 1<<30)
	if small >= big {
		t.Fatalf("cache-resident (%v) should beat DRAM-resident (%v)", small, big)
	}
	if g.MemoryTime(0, 1<<20) != 0 {
		t.Error("zero bytes should be free")
	}
}

func TestDefaultWGSizeApplied(t *testing.T) {
	eng, g := newGPU(t)
	var size int
	eng.Go("host", func(p *sim.Proc) {
		g.LaunchSync(p, &Kernel{Name: "k", WorkGroups: 1, Body: func(wg *WGCtx) { size = wg.WGSize }})
	})
	eng.Run()
	if size != 64 {
		t.Fatalf("WGSize = %d, want wavefront default 64", size)
	}
}

// --- Stream (GDS substrate) tests ---

func TestStreamOrdering(t *testing.T) {
	eng, g := newGPU(t)
	var log []string
	s := g.NewStream("s0")
	eng.Go("host", func(p *sim.Proc) {
		s.EnqueueKernel(&Kernel{Name: "k1", WorkGroups: 1, Body: func(wg *WGCtx) { log = append(log, "k1") }})
		s.EnqueueDoorbell(func() { log = append(log, "bell") })
		s.EnqueueKernel(&Kernel{Name: "k2", WorkGroups: 1, Body: func(wg *WGCtx) { log = append(log, "k2") }})
		s.Sync(p)
		log = append(log, "sync")
	})
	eng.Run()
	want := []string{"k1", "bell", "k2", "sync"}
	for i := range want {
		if i >= len(log) || log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestStreamDoorbellFiresAfterKernelTeardown(t *testing.T) {
	// GDS semantics: the network initiation point runs only after the
	// preceding kernel has fully completed (including teardown).
	eng, g := newGPU(t)
	var bellAt sim.Time
	s := g.NewStream("s0")
	eng.Go("host", func(p *sim.Proc) {
		s.EnqueueKernel(&Kernel{Name: "k", WorkGroups: 1})
		s.EnqueueDoorbell(func() { bellAt = eng.Now() })
		s.Sync(p)
	})
	eng.Run()
	if bellAt < 3*sim.Microsecond {
		t.Fatalf("doorbell at %v, before kernel completion", bellAt)
	}
}

func TestStreamWaitOp(t *testing.T) {
	eng, g := newGPU(t)
	flag := sim.NewCounter(eng)
	var k2At sim.Time
	s := g.NewStream("s0")
	eng.Go("host", func(p *sim.Proc) {
		s.EnqueueWait(flag, 1)
		s.EnqueueKernel(&Kernel{Name: "k2", WorkGroups: 1, Body: func(wg *WGCtx) { k2At = wg.Now() }})
		s.Sync(p)
	})
	eng.Go("peer", func(p *sim.Proc) {
		p.Sleep(5 * sim.Microsecond)
		flag.Add(1)
	})
	eng.Run()
	if k2At < 5*sim.Microsecond {
		t.Fatalf("k2 ran at %v before wait satisfied", k2At)
	}
}

func TestTwoStreamsProgressIndependently(t *testing.T) {
	eng, g := newGPU(t)
	flag := sim.NewCounter(eng)
	ranB := false
	sa := g.NewStream("a")
	sb := g.NewStream("b")
	eng.Go("host", func(p *sim.Proc) {
		sa.EnqueueWait(flag, 1) // stream a blocked
		sb.EnqueueKernel(&Kernel{Name: "kb", WorkGroups: 1, Body: func(wg *WGCtx) { ranB = true }})
		sb.Sync(p)
		if !ranB {
			t.Error("stream b blocked by stream a")
		}
		flag.Add(1)
		sa.Sync(p)
	})
	eng.Run()
}

func TestFigure1StudyShape(t *testing.T) {
	// Drive the GPU with each Figure 1 preset and confirm the measured
	// per-kernel launch latency matches the preset's curve.
	for _, preset := range config.Figure1Presets() {
		preset := preset
		for _, depth := range []int{1, 16, 256} {
			eng, g := newGPU(t)
			g.SetLaunchModel(preset.LaunchLatency)
			var total sim.Time
			eng.Go("host", func(p *sim.Proc) {
				start := p.Now()
				var last *Kernel
				for i := 0; i < depth; i++ {
					last = &Kernel{Name: "e", WorkGroups: 1}
					g.Launch(last)
				}
				last.Wait(p)
				total = p.Now() - start
			})
			eng.Run()
			perKernel := total / sim.Time(depth)
			// Every measured point must stay within the paper's 3-20us
			// range (plus teardown, which the empty-kernel study in the
			// paper folds into its measurement).
			if perKernel < 3*sim.Microsecond {
				t.Errorf("%s depth %d: per-kernel %v below 3us", preset.Name, depth, perKernel)
			}
			if perKernel > 25*sim.Microsecond {
				t.Errorf("%s depth %d: per-kernel %v above plausible ceiling", preset.Name, depth, perKernel)
			}
		}
	}
}

// newGPUSlots is newGPU with n work-group slots.
func newGPUSlots(t testing.TB, n int) (*sim.Engine, *GPU) {
	t.Helper()
	cfg := config.Default()
	cfg.GPU.ComputeUnits, cfg.GPU.MaxWGPerCU = 1, n
	eng := sim.NewEngine()
	return eng, New(eng, cfg.GPU, memsys.FromGPU(cfg.GPU, cfg.CPU))
}

// A Reset loses the kernel in flight wherever it is — still queued, in its
// launch latency, running its work-groups or in teardown: it never
// completes and never runs OnComplete. A kernel launched after the reset
// finishes exactly when it would on a fresh GPU, with the CU pool whole.
// That holds for a body's work-groups (processes), a Step kernel's
// (stackless processes) and a WGTime kernel's (events), and for kernels
// whose second work-group queues for the only slot: a reset while it
// queues, or between its admission and its start, returns the slot too.
func TestResetLosesKernelInFlight(t *testing.T) {
	const wg = 2 * sim.Microsecond
	body := func(wg *WGCtx) { wg.Compute(2 * sim.Microsecond) }
	step := func(wg *WGCtx) bool {
		wg.Compute(2 * sim.Microsecond)
		return false
	}
	kernels := []struct {
		name  string
		slots int
		make  func(name string) *Kernel
	}{
		{"body", 192, func(name string) *Kernel { return &Kernel{Name: name, WorkGroups: 2, Body: body} }},
		{"wgtime", 192, func(name string) *Kernel { return &Kernel{Name: name, WorkGroups: 2, WGTime: wg} }},
		{"wgtime one slot", 1, func(name string) *Kernel { return &Kernel{Name: name, WorkGroups: 2, WGTime: wg} }},
		{"step", 192, func(name string) *Kernel { return &Kernel{Name: name, WorkGroups: 2, Step: step} }},
		{"step one slot", 1, func(name string) *Kernel { return &Kernel{Name: name, WorkGroups: 2, Step: step} }},
	}
	// On a fresh GPU a kernel pays its launch in [0, 1.5us), runs its
	// work-groups in [1.5us, 3.5us) (the second, on one slot, in
	// [3.5us, 5.5us)) and then tears down for 1.5us.
	for _, tc := range []struct {
		name string
		at   sim.Time // -1: reset at once, with the launch still queued
		// late delays the reset behind the events born before it in its
		// instant (the first work-group's end on one slot).
		late bool
	}{
		{"queued", -1, false},
		{"launch", 1 * sim.Microsecond, false},
		{"work-groups", 2500 * sim.Nanosecond, false},
		{"second work-group admitted", 3500 * sim.Nanosecond, true},
		{"second work-group", 4 * sim.Microsecond, false},
		{"teardown", 4 * sim.Microsecond, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, k := range kernels {
				at := tc.at
				if tc.name == "teardown" && k.slots == 1 {
					at += wg
				}
				t.Run(k.name, func(t *testing.T) {
					eng, g := newGPUSlots(t, k.slots)
					completed := false
					lost := k.make("lost")
					lost.OnComplete = func() { completed = true }
					g.Launch(lost)
					switch {
					case at < 0:
						g.Reset()
					case tc.late:
						eng.Schedule(at-1, func() { eng.Schedule(at, g.Reset) })
					default:
						eng.Schedule(at, g.Reset)
					}
					var done sim.Time
					eng.Go("host", func(p *sim.Proc) {
						p.Sleep(10 * sim.Microsecond)
						g.LaunchSync(p, k.make("next"))
						done = p.Now()
					})
					eng.Run()
					if completed || lost.done.Value() != 0 {
						t.Errorf("lost kernel completed (OnComplete ran: %v)", completed)
					}
					want := 15 * sim.Microsecond
					if k.slots == 1 {
						want += wg
					}
					if done != want {
						t.Errorf("kernel after the reset finished at %v, want %v", done, want)
					}
					if n := g.slots.InUse(); n != 0 {
						t.Errorf("%d work-group slots still held", n)
					}
				})
			}
		})
	}
}

// tagWrites is a TagWriter recording when each store landed.
type tagWrites struct {
	eng *sim.Engine
	at  []sim.Time
}

func (w *tagWrites) Write(uint64) { w.at = append(w.at, w.eng.Now()) }

// A work-group whose tag store is pending in the wake of its poll loses the
// store to a Reset or a Kill that lands before the store's time, as it
// lost the code after the sleep that preceded the store; one that lands
// after the store finds it landed. Either way the work-group dies and its
// slot comes back.
func TestCrashBeforePendingStoreDropsIt(t *testing.T) {
	cfg := config.Default().GPU
	storeAt := cfg.KernelLaunch + cfg.BarrierWorkGroup + cfg.FenceSystemScope + cfg.AtomicSystemStore
	body := func(w *tagWrites, flag *sim.Counter) func(wg *WGCtx) {
		return func(wg *WGCtx) {
			wg.Barrier()
			wg.FenceSystem()
			wg.StoreTag(w, 1)
			wg.PollUntil(flag, 1)
			t.Error("work-group resumed after the crash")
		}
	}
	crashes := []struct {
		name  string
		start func(g *GPU, body func(wg *WGCtx)) func()
	}{
		{"reset kernel", func(g *GPU, body func(wg *WGCtx)) func() {
			g.Launch(&Kernel{Name: "k", WorkGroups: 1, Body: body})
			return g.Reset
		}},
		{"reset resident", func(g *GPU, body func(wg *WGCtx)) func() {
			g.RunResident("r", body)
			return g.Reset
		}},
		{"kill resident", func(g *GPU, body func(wg *WGCtx)) func() {
			p := g.RunResident("r", body)
			return func() { g.eng.Kill(p) }
		}},
	}
	for _, c := range crashes {
		for _, tc := range []struct {
			name   string
			at     sim.Time
			writes int
		}{
			{"before the store", storeAt - sim.Nanosecond, 0},
			{"after the store", storeAt + sim.Nanosecond, 1},
		} {
			t.Run(c.name+"/"+tc.name, func(t *testing.T) {
				eng, g := newGPU(t)
				w := &tagWrites{eng: eng}
				flag := sim.NewCounter(eng)
				crash := c.start(g, body(w, flag))
				eng.Schedule(tc.at, crash)
				eng.Schedule(storeAt+sim.Microsecond, func() { flag.Add(1) })
				eng.Run()
				if len(w.at) != tc.writes || tc.writes == 1 && w.at[0] != storeAt {
					t.Errorf("stores landed at %v, want %d at %v", w.at, tc.writes, storeAt)
				}
				if n := g.slots.InUse(); n != 0 {
					t.Errorf("%d work-group slots still held", n)
				}
			})
		}
	}
}

// A WGTime kernel runs its work-groups on events exactly as a body of one
// Compute(WGTime) ran them as processes: with the slots contended, with a
// resident task queuing among the work-groups and with a fail-slow window
// opening mid-kernel, the kernel and the resident finish at the same
// times, the engine fires the same events, and no work-group resumes a
// coroutine.
func TestWGTimeKernelMatchesComputeBody(t *testing.T) {
	const d = 700 * sim.Nanosecond
	type result struct {
		done, resident sim.Time
		events         uint64
		resumes        uint64
		dilations      int
		wgDispatches   int // traced starts and wakes of work-group processes
	}
	run := func(slots, groups int, window sim.Time, wgTime bool) result {
		eng, g := newGPUSlots(t, slots)
		var r result
		eng.Trace = func(_ sim.Time, label string) {
			if strings.Contains(label, "gpu.k.wg") {
				r.wgDispatches++
			}
		}
		g.SetDilation(func(now, d sim.Time) sim.Time {
			if now >= window {
				r.dilations++
				return 3 * d
			}
			return d
		})
		g.RunResident("resident", func(wg *WGCtx) {
			wg.Compute(d / 2)
			r.resident = wg.Now()
		})
		k := &Kernel{Name: "k", WorkGroups: groups, Body: func(wg *WGCtx) { wg.Compute(d) }}
		if wgTime {
			k = &Kernel{Name: "k", WorkGroups: groups, WGTime: d}
		}
		eng.Go("host", func(p *sim.Proc) {
			g.LaunchSync(p, k)
			r.done = p.Now()
		})
		eng.Run()
		r.events, r.resumes = eng.Executed(), eng.Resumes()
		return r
	}
	launch := config.Default().GPU.KernelLaunch
	for _, slots := range []int{1, 2, 3, 64} {
		for _, groups := range []int{1, 4, 7} {
			for _, window := range []sim.Time{1 << 62, launch + d/2, launch + 3*d/2} {
				want := run(slots, groups, window, false)
				got := run(slots, groups, window, true)
				// The body run resumes each work-group at least at its start
				// and its end.
				if got.done != want.done || got.resident != want.resident || got.events != want.events ||
					got.dilations != want.dilations || got.wgDispatches != 0 || want.resumes-got.resumes < uint64(2*groups) {
					t.Errorf("%d slots, %d groups, window %v: got %+v, want %+v but no work-group dispatch",
						slots, groups, window, got, want)
				}
			}
		}
	}
}

// A Step kernel runs its work-groups as stackless processes exactly as the
// same kernel written as a body runs them as processes: with the slots
// contended and a fail-slow window opening mid-kernel, every work-group's
// stores, polls (untimed and timed) and end land at the same times, the
// engine fires the same events with the same labels, and no work-group
// resumes a coroutine.
func TestStepKernelMatchesBodyKernel(t *testing.T) {
	type result struct {
		got    []wgTimes
		done   sim.Time
		trace  []string
		events uint64
		// resumes counts every coroutine resume; only the host's two
		// (its start and its wake at the kernel's end) are not work-groups'.
		resumes   uint64
		dilations int
	}
	run := func(seed int64, slots, groups int, window sim.Time, step bool) result {
		r := rand.New(rand.NewSource(seed))
		eng, g := newGPUSlots(t, slots)
		var res result
		eng.Trace = func(at sim.Time, label string) { res.trace = append(res.trace, at.String()+" "+label) }
		g.SetDilation(func(now, d sim.Time) sim.Time {
			if now >= window {
				res.dilations++
				return 3 * d
			}
			return d
		})
		c := sim.NewCounter(eng)
		const nbumps = 4
		for range nbumps {
			eng.Schedule(g.Config().KernelLaunch+sim.Time(r.Intn(6000))*sim.Nanosecond, func() { c.Add(1) })
		}
		bodies := make([][]wgOp, groups)
		for i := range bodies {
			bodies[i] = genBody(r, nbumps)
			for j := range bodies[i] {
				if r.Intn(4) == 0 {
					bodies[i][j].kind = opPollFor
				}
			}
		}
		res.got = make([]wgTimes, groups)
		k := &Kernel{Name: "k", WorkGroups: groups, Body: func(wg *WGCtx) {
			runBody(eng, wg, bodies[wg.Group], c, &res.got[wg.Group])
		}}
		if step {
			steps := make([]stepBody, groups)
			for i := range steps {
				steps[i] = stepBody{eng: eng, ops: bodies[i], c: c, w: &res.got[i]}
			}
			k = &Kernel{Name: "k", WorkGroups: groups, Step: func(wg *WGCtx) bool { return steps[wg.Group].step(wg) }}
		}
		eng.Go("host", func(p *sim.Proc) {
			g.LaunchSync(p, k)
			res.done = p.Now()
		})
		eng.Run()
		res.events, res.resumes = eng.Executed(), eng.Resumes()
		return res
	}
	launch := config.Default().GPU.KernelLaunch
	for seed := int64(1); seed <= 20; seed++ {
		for _, slots := range []int{1, 2, 3, 64} {
			for _, groups := range []int{1, 4, 7} {
				for _, window := range []sim.Time{1 << 62, launch + 500*sim.Nanosecond, launch + 3*sim.Microsecond} {
					want := run(seed, slots, groups, window, false)
					got := run(seed, slots, groups, window, true)
					same := got.done == want.done && got.events == want.events && got.dilations == want.dilations &&
						slices.Equal(got.trace, want.trace)
					for i := range got.got {
						same = same && sameTimes(got.got[i].effects, want.got[i].effects) &&
							sameTimes(got.got[i].polls, want.got[i].polls) && got.got[i].end == want.got[i].end
					}
					if !same || got.resumes != 2 {
						t.Fatalf("seed %d, %d slots, %d groups, window %v: step form done %v, %d events, %d resumes, %d dilations, %+v; body form done %v, %d events, %d dilations, %+v",
							seed, slots, groups, window, got.done, got.events, got.resumes, got.dilations, got.got,
							want.done, want.events, want.dilations, want.got)
					}
				}
			}
		}
	}
}
