package fault

import (
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/memsys"
	"repro/internal/sim"
)

// A work-group runs ahead on local time, so its dilated Compute is noted at
// a logical time past the engine clock. A NIC command stretched later in
// engine order but earlier in simulated time is then the first injection,
// and FirstInjectionAt must report it.
func TestFirstInjectionIsEarliestNotFirstNoted(t *testing.T) {
	// Every node draws from its own stream; the subtest keeps the name it
	// had when a shared-stream mode also existed.
	t.Run("sharded", func(t *testing.T) {
		cfg := config.Default()
		eng := sim.NewEngine()
		g := gpu.New(eng, cfg.GPU, memsys.FromGPU(cfg.GPU, cfg.CPU))
		start := cfg.GPU.KernelLaunch
		const c1 = 2 * sim.Microsecond
		// The window opens just after the body starts: the first
		// Compute is undilated, the second (logical start+c1) is.
		plan := NewSlowPlan(config.SlowConfig{Windows: []config.SlowWindow{{
			Node: 0, From: start + sim.Nanosecond, Until: start + 10*c1,
			GPUFactor: 2, CmdFactor: 2,
		}}}, 1)
		g.SetDilation(func(now, d sim.Time) sim.Time { return plan.GPUDilate(now, 0, d) })

		var bodyAt sim.Time
		eng.Go("host", func(p *sim.Proc) {
			g.LaunchSync(p, &gpu.Kernel{
				Name: "k", WorkGroups: 1,
				Body: func(wg *gpu.WGCtx) {
					bodyAt = eng.Now()
					wg.Compute(c1)
					wg.Compute(c1)
				},
			})
		})
		cmdAt := start + c1/2
		eng.After(cmdAt, func() { plan.CommandSlow(eng.Now(), 0, sim.Nanosecond) })
		eng.Run()

		if bodyAt != start {
			t.Fatalf("body ran at %v, want %v", bodyAt, start)
		}
		st := plan.Stats()
		if st.GPUDilations != 1 || st.CmdStretched != 1 {
			t.Fatalf("stats = %+v, want one GPU dilation and one command stretch", st)
		}
		if first, ok := plan.FirstInjectionAt(); !ok || first != cmdAt {
			t.Fatalf("FirstInjectionAt = %v, %v; want %v (the command stretch), not the lagged dilation at %v",
				first, ok, cmdAt, start+c1)
		}
	})
}
