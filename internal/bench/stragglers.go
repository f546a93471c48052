package bench

import (
	"fmt"
	"strings"

	"repro/internal/backends"
	"repro/internal/collective"
	"repro/internal/config"
	"repro/internal/health"
	"repro/internal/node"
	"repro/internal/sim"
)

// The straggler ablation sizes: 4 ranks moving a 4MB vector, so each ring
// chunk's GPU reduction is large enough that a compute-dilated straggler
// dominates the unmitigated run, while wire time keeps the mitigated rerun
// honest about its own cost.
const (
	slowAblationNodes = 4
	slowAblationElems = 1 << 20
	slowAblationBytes = slowAblationElems * 4 // float32 elements
	slowStragglerNode = 1
	slowAblationSeed  = 42
	// slowComputePhase is the modeled application compute preceding each
	// reduction (the training-step shape). The Allreduce alone is
	// wire-bound — GPU reduce bandwidth is ~9x the wire's — so a compute
	// dilation barely moves a bare collective; the compute phase is where
	// a GPU-class straggler actually bleeds time, exactly as in the
	// training workloads fail-slow studies target.
	slowComputePhase = 400 * sim.Microsecond
	// slowAblationTimeout is the hard per-hop bound of the hedged arm. It
	// must clear the slowest healthy hop of the healed (3-node) ring AND
	// leave room for the lag feed to convict first: blame needs one slice
	// to see the predecessor ready, one to hold it accountable, and two
	// reports to cross the verdict threshold — four slices before the hard
	// timeout fires.
	slowAblationTimeout = 750 * sim.Microsecond
	// slowHedgeAfter is the soft per-hop deadline: each expiry files one
	// lag report, and a confirmed verdict is noticed within one slice. It
	// must sit ABOVE the slowest healthy hop (~110us wire + reduce for the
	// 3-node ring's 1.33MB chunks): a slice expiry has to mean "slower than
	// a healthy hop", or healthy predecessors accumulate false lag debt.
	slowHedgeAfter = 150 * sim.Microsecond
	// slowWindowUntil makes the straggler persistent: the window outlives
	// every run in the sweep, so exclusion (not waiting it out) is the only
	// mitigation that can win.
	slowWindowUntil = 50 * sim.Millisecond
)

// slowSchedule compiles one class x factor cell into a fail-slow schedule
// on the designated straggler node.
func slowSchedule(class string, factor float64) config.SlowConfig {
	w := config.SlowWindow{Node: slowStragglerNode, From: 0, Until: slowWindowUntil}
	switch class {
	case "gpu":
		w.GPUFactor = factor
	case "cmd":
		// Stretch command parse and stall a quarter of the commands hard:
		// the class degrades the NIC's command pipeline, not the GPU.
		w.CmdFactor = factor
		w.CmdStallProb = 0.25
		w.CmdStallTime = sim.Time(2*factor) * sim.Microsecond
	case "dma":
		w.DMAFactor = factor
	default:
		panic(fmt.Sprintf("bench: unknown straggler class %q", class))
	}
	return config.SlowConfig{Seed: slowAblationSeed, Windows: []config.SlowWindow{w}}
}

// slowHealth is the hedged arm's detection timing: a fast ticker so a
// dilated tick rate shows within a few arrivals, a short verdict grace,
// and a suspicion horizon loose enough that a DMA-dilated bulk send
// (which occupies the straggler's NIC and starves its own beats for the
// transfer's duration) is judged slow by the lag feed, not dead by the
// fail-stop detector.
func slowHealth() config.HealthConfig {
	return config.HealthConfig{
		Enabled:        true,
		Period:         5 * sim.Microsecond,
		SuspectAfter:   1000 * sim.Microsecond,
		StabilizeDelay: 30 * sim.Microsecond,
		SlowDetect:     true,
		SlowGrace:      10 * sim.Microsecond,
	}
}

// StragglerPoint is one cell of the straggler sweep: one backend x slowdown
// class x factor, run three ways — fault-free baseline, straggler with no
// mitigation (the run simply dilates), and straggler under the full stack
// (progress detection + hedged collective, which excludes the straggler and
// completes over the responsive ranks).
type StragglerPoint struct {
	Kind   backends.Kind
	Class  string
	Factor float64
	// Base, Unmitigated, and Hedged are the three arms' completion times.
	Base        sim.Time
	Unmitigated sim.Time
	Hedged      sim.Time
	// Attempts counts hedged-driver attempts (successful last); FinalAlive
	// is the membership the hedged result was computed over.
	Attempts   int
	FinalAlive []int
	// Detected reports whether a Slow verdict landed; DetectLatency is
	// first verdict minus first injection.
	Detected      bool
	DetectLatency sim.Time
	// SlowVerdicts/SlowsRecovered/LagReports are the membership detector's
	// counters; HedgedSends counts hops that engaged the hedge across NICs.
	SlowVerdicts   int64
	SlowsRecovered int64
	LagReports     int64
	HedgedSends    int64
	// ExactUnmitigated: the unmitigated output equals the exact reduction
	// over all ranks (a straggler is slow, never wrong). ExactHedged: the
	// hedged output equals the exact reduction over its final membership.
	ExactUnmitigated bool
	ExactHedged      bool
}

// Speedup is the mitigation win: unmitigated over hedged completion time.
func (pt StragglerPoint) Speedup() float64 {
	if pt.Hedged <= 0 {
		return 0
	}
	return float64(pt.Unmitigated) / float64(pt.Hedged)
}

// AblationStraggler sweeps slowdown factor x class x backend. Every cell
// verifies numerical exactness of both arms; the hedged arm additionally
// records detection latency and the verdict/hedge counters.
func AblationStraggler(cfg config.SystemConfig, factors []float64) []StragglerPoint {
	kinds := backends.All()
	classes := []string{"gpu", "cmd", "dma"}
	perKind := len(classes) * len(factors)
	// Every cell reads the same inputs; the collectives copy them into
	// rank-owned vectors, so the cells share them read-only.
	data, want := sdcInputs(slowAblationNodes, slowAblationElems, slowAblationSeed)
	return parallelMap(len(kinds)*perKind, func(idx int) StragglerPoint {
		kind := kinds[idx/perKind]
		class := classes[(idx%perKind)/len(factors)]
		factor := factors[(idx%perKind)%len(factors)]
		pt := StragglerPoint{Kind: kind, Class: class, Factor: factor}

		plain := func(slow config.SlowConfig) sim.Time {
			c := cfg
			c.Faults = config.FaultConfig{Slow: slow}
			c.NIC.Reliability = config.DefaultReliability()
			cl := node.NewCluster(c, slowAblationNodes)
			out, err := collective.Run(cl, collective.Config{
				Kind: kind, TotalBytes: slowAblationBytes, Data: data,
				ComputePhase: slowComputePhase,
			})
			if err != nil {
				panic(fmt.Sprintf("bench: straggler %v %s x%g plain: %v", kind, class, factor, err))
			}
			if slow.Enabled() {
				pt.ExactUnmitigated = true
				for r := range out.Output {
					for i, v := range out.Output[r] {
						if v != want[i] {
							pt.ExactUnmitigated = false
						}
					}
				}
			}
			return out.Duration
		}
		pt.Base = plain(config.SlowConfig{})
		pt.Unmitigated = plain(slowSchedule(class, factor))

		// Hedged arm: progress detection + hedged collective.
		{
			c := cfg
			c.Faults = config.FaultConfig{Slow: slowSchedule(class, factor)}
			c.NIC.Reliability = config.DefaultReliability()
			c.Health = slowHealth()
			cl := node.NewCluster(c, slowAblationNodes)
			suite := health.Start(cl)
			var firstSlow sim.Time
			suite.Membership.OnSlow(func(int) {
				if firstSlow == 0 {
					firstSlow = cl.Eng.Now()
				}
			})
			var res collective.RecoverResult
			var rerr error
			cl.Eng.Go("bench.slow.driver", func(p *sim.Proc) {
				res, rerr = collective.RunHedged(p, cl, suite.Membership, collective.HedgeConfig{
					RecoverConfig: collective.RecoverConfig{
						Kind: kind, TotalBytes: slowAblationBytes,
						Data: data, Timeout: slowAblationTimeout,
						ComputePhase: slowComputePhase,
					},
					HedgeAfter:     slowHedgeAfter,
					GDSFallbackHDN: kind == backends.GDS,
				})
				suite.Stop()
			})
			cl.Run()
			if rerr != nil {
				panic(fmt.Sprintf("bench: straggler %v %s x%g hedged: %v", kind, class, factor, rerr))
			}
			pt.Hedged = res.Duration
			pt.Attempts = len(res.Attempts)
			pt.FinalAlive = res.Alive
			ms := suite.Membership.Stats()
			pt.SlowVerdicts = ms.SlowVerdicts
			pt.SlowsRecovered = ms.SlowsRecovered
			pt.LagReports = ms.LagReports
			for _, nd := range cl.Nodes {
				pt.HedgedSends += nd.NIC.Stats().HedgedSends
			}
			if inj, ok := cl.Injector.Slow().FirstInjectionAt(); ok && firstSlow > 0 {
				pt.Detected = true
				pt.DetectLatency = firstSlow - inj
			}
			aliveWant := make([]float32, slowAblationElems)
			for _, r := range res.Alive {
				for i, v := range data[r] {
					aliveWant[i] += v
				}
			}
			pt.ExactHedged = true
			for _, r := range res.Alive {
				for i, v := range res.Output[r] {
					if v != aliveWant[i] {
						pt.ExactHedged = false
					}
				}
			}
		}
		return pt
	})
}

// RenderStragglers renders the straggler ablation: the factor x class x
// backend sweep with unmitigated vs hedged completion times, detection
// latency, verdict counters, and exactness of both arms.
func RenderStragglers(cfg config.SystemConfig) string {
	factors := []float64{4, 10}
	pts := AblationStraggler(cfg, factors)
	hc := slowHealth()

	us := func(t sim.Time) string {
		return fmt.Sprintf("%.0fus", float64(t)/float64(sim.Microsecond))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Straggler sweep: %d-node %dMB Allreduce after a %v compute phase, fail-slow node %d, class x factor per backend\n",
		slowAblationNodes, slowAblationBytes>>20, slowComputePhase, slowStragglerNode)
	fmt.Fprintf(&b, "unmitigated arm = no detection, run dilates; hedged arm = progress watermarks (period %v, grace %v) + hedged hops (soft deadline %v, hard %v) excluding the straggler\n",
		hc.Period, hc.EffectiveSlowGrace(), slowHedgeAfter, slowAblationTimeout)
	fmt.Fprintf(&b, "%-8s %-5s %6s %8s %8s %8s %7s %8s %5s %6s %5s %10s %14s\n",
		"backend", "class", "factor", "base", "unmit", "hedged", "speedup", "detect", "tries", "lagRep", "hedge", "alive", "exact unm/hdg")
	for _, pt := range pts {
		detect := "-"
		if pt.Detected {
			detect = us(pt.DetectLatency)
		}
		ex := func(v bool) string {
			if v {
				return "exact"
			}
			return "WRONG"
		}
		fmt.Fprintf(&b, "%-8s %-5s %5gx %8s %8s %8s %6.2fx %8s %5d %6d %5d %10s %6s/%s\n",
			fmt.Sprint(pt.Kind), pt.Class, pt.Factor, us(pt.Base), us(pt.Unmitigated), us(pt.Hedged),
			pt.Speedup(), detect, pt.Attempts, pt.LagReports, pt.HedgedSends,
			fmt.Sprint(pt.FinalAlive), ex(pt.ExactUnmitigated), ex(pt.ExactHedged))
	}
	return b.String()
}
