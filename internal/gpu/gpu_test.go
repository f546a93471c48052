package gpu

import (
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
	_, g := newGPU(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	g.Launch(&Kernel{Name: "bad", WorkGroups: 0})
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

func TestWavefronts(t *testing.T) {
	eng, g := newGPU(t)
	var counts []int
	eng.Go("host", func(p *sim.Proc) {
		for _, size := range []int{1, 64, 65, 256} {
			g.LaunchSync(p, &Kernel{
				Name: "k", WorkGroups: 1, WGSize: size,
				Body: func(wg *WGCtx) { counts = append(counts, wg.Wavefronts()) },
			})
		}
	})
	eng.Run()
	want := []int{1, 1, 2, 4}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("wavefronts = %v, want %v", counts, want)
		}
	}
}

func TestDivergeMaskSerialization(t *testing.T) {
	eng, g := newGPU(t)
	var uniform0, uniform1, mixed sim.Time
	eng.Go("host", func(p *sim.Proc) {
		g.LaunchSync(p, &Kernel{
			Name: "k", WorkGroups: 1,
			Body: func(wg *WGCtx) {
				t0 := wg.Now()
				wg.Diverge(0, 100*sim.Nanosecond, 40*sim.Nanosecond)
				uniform0 = wg.Now() - t0
				t0 = wg.Now()
				wg.Diverge(1, 100*sim.Nanosecond, 40*sim.Nanosecond)
				uniform1 = wg.Now() - t0
				t0 = wg.Now()
				wg.Diverge(0.5, 100*sim.Nanosecond, 40*sim.Nanosecond)
				mixed = wg.Now() - t0
			},
		})
	})
	eng.Run()
	if uniform0 != 40*sim.Nanosecond || uniform1 != 100*sim.Nanosecond {
		t.Fatalf("uniform paths = %v / %v", uniform0, uniform1)
	}
	if mixed != 140*sim.Nanosecond {
		t.Fatalf("divergent branch = %v, want serialized 140ns", mixed)
	}
}

func TestDivergeLeader(t *testing.T) {
	eng, g := newGPU(t)
	var dur sim.Time
	eng.Go("host", func(p *sim.Proc) {
		g.LaunchSync(p, &Kernel{
			Name: "k", WorkGroups: 1,
			Body: func(wg *WGCtx) {
				t0 := wg.Now()
				wg.DivergeLeader(75 * sim.Nanosecond)
				dur = wg.Now() - t0
			},
		})
	})
	eng.Run()
	if dur != 75*sim.Nanosecond {
		t.Fatalf("leader branch = %v", dur)
	}
}

// A Reset loses the kernel in flight wherever it is — still queued, in its
// launch latency, running its work-groups or in teardown: it never
// completes and never runs OnComplete. A kernel launched after the reset
// finishes exactly when it would on a fresh GPU, with the CU pool whole.
func TestResetLosesKernelInFlight(t *testing.T) {
	body := func(wg *WGCtx) { wg.Compute(2 * sim.Microsecond) }
	// On a fresh GPU a kernel pays its launch in [0, 1.5us), runs its
	// work-groups in [1.5us, 3.5us) and tears down in [3.5us, 5us).
	for _, tc := range []struct {
		name string
		at   sim.Time // -1: reset at once, with the launch still queued
	}{
		{"queued", -1},
		{"launch", 1 * sim.Microsecond},
		{"work-groups", 2500 * sim.Nanosecond},
		{"teardown", 4 * sim.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, g := newGPU(t)
			completed := false
			lost := &Kernel{Name: "lost", WorkGroups: 2, Body: body, OnComplete: func() { completed = true }}
			g.Launch(lost)
			if tc.at < 0 {
				g.Reset()
			} else {
				eng.Schedule(tc.at, g.Reset)
			}
			var done sim.Time
			eng.Go("host", func(p *sim.Proc) {
				p.Sleep(10 * sim.Microsecond)
				g.LaunchSync(p, &Kernel{Name: "next", WorkGroups: 2, Body: body})
				done = p.Now()
			})
			eng.Run()
			if completed || lost.done.Value() != 0 {
				t.Errorf("lost kernel completed (OnComplete ran: %v)", completed)
			}
			if done != 15*sim.Microsecond {
				t.Errorf("kernel after the reset finished at %v, want 15us", done)
			}
			if n := g.slots.InUse(); n != 0 {
				t.Errorf("%d work-group slots still held", n)
			}
		})
	}
}
