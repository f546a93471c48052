package collective

import (
	"fmt"
	"testing"

	"repro/internal/backends"
	"repro/internal/config"
	"repro/internal/health"
	"repro/internal/node"
	"repro/internal/sim"
)

// Straggler test geometry: small payloads keep the 60-cell chaos matrix
// fast, so the hedging deadlines shrink with the hop times. The compute
// phase is where a GPU-class straggler bleeds time (the collective alone
// is wire-bound), and the soft deadline sits well above a healthy hop of
// this size so fault-free runs never accumulate lag debt.
const (
	slowTestElems   = 8192
	slowTestCompute = 50 * sim.Microsecond
	slowTestTimeout = 200 * sim.Microsecond
	slowTestHedge   = 25 * sim.Microsecond
)

// slowTestSchedule puts one persistent fail-slow window of the given class
// on node 1, mirroring the bench sweep's classes at test scale.
func slowTestSchedule(class string, factor float64, seed int64) config.SlowConfig {
	w := config.SlowWindow{Node: 1, From: 0, Until: 50 * sim.Millisecond}
	switch class {
	case "gpu":
		w.GPUFactor = factor
	case "cmd":
		w.CmdFactor = factor
		w.CmdStallProb = 0.25
		w.CmdStallTime = sim.Time(2*factor) * sim.Microsecond
	case "dma":
		w.DMAFactor = factor
	default:
		panic("unknown straggler class " + class)
	}
	return config.SlowConfig{Seed: seed, Windows: []config.SlowWindow{w}}
}

// slowTestHealth arms progress-based detection with a fast ticker and a
// suspicion horizon loose enough that a straggler is judged slow by the
// watermark/lag feeds, never dead by the fail-stop detector.
func slowTestHealth() config.HealthConfig {
	return config.HealthConfig{
		Enabled:        true,
		Period:         5 * sim.Microsecond,
		SuspectAfter:   500 * sim.Microsecond,
		StabilizeDelay: 20 * sim.Microsecond,
		SlowDetect:     true,
		SlowGrace:      5 * sim.Microsecond,
	}
}

// runHedgedStraggler builds the cluster, arms detection, and drives one
// hedged Allreduce to completion.
func runHedgedStraggler(t *testing.T, kind backends.Kind, slow config.SlowConfig) (RecoverResult, *node.Cluster, *health.Suite) {
	t.Helper()
	const n = 4
	data, _ := makeInputs(n, slowTestElems, 7)
	cfg := config.Default()
	cfg.Faults = config.FaultConfig{Slow: slow}
	cfg.NIC.Reliability = config.DefaultReliability()
	cfg.Health = slowTestHealth()
	cl := node.NewCluster(cfg, n)
	suite := health.Start(cl)
	var res RecoverResult
	var rerr error
	cl.Eng.Go("straggler.driver", func(p *sim.Proc) {
		res, rerr = RunHedged(p, cl, suite.Membership, HedgeConfig{
			RecoverConfig: RecoverConfig{
				Kind: kind, TotalBytes: slowTestElems * elemBytes, Data: data,
				Timeout: slowTestTimeout, ComputePhase: slowTestCompute,
			},
			HedgeAfter:     slowTestHedge,
			GDSFallbackHDN: kind == backends.GDS,
		})
		suite.Stop()
	})
	cl.Run()
	if rerr != nil {
		if diag := cl.Diagnose(); diag != nil {
			t.Fatalf("hedged run failed: %v\n%v", rerr, diag)
		}
		t.Fatalf("hedged run failed: %v", rerr)
	}
	return res, cl, suite
}

// expectExactOverAlive lives in chaostest_test.go, shared with the
// scenario suite.

// A fault-free hedged run with slow detection armed must complete over the
// full membership in one attempt with zero Slow verdicts and zero lag
// reports: healthy hops finish far inside the soft deadline, and arrival
// samples of healthy tick rates keep every score at 1.
func TestSlowDetectFaultFreeNoFalseVerdicts(t *testing.T) {
	const n = 4
	data, _ := makeInputs(n, slowTestElems, 7)
	for _, kind := range backends.All() {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			res, _, suite := runHedgedStraggler(t, kind, config.SlowConfig{})
			ms := suite.Membership.Stats()
			if ms.SlowVerdicts != 0 {
				t.Fatalf("fault-free run produced %d Slow verdicts", ms.SlowVerdicts)
			}
			if ms.LagReports != 0 {
				t.Fatalf("fault-free run filed %d lag reports", ms.LagReports)
			}
			if len(res.Alive) != n {
				t.Fatalf("fault-free membership shrank to %v", res.Alive)
			}
			if len(res.Attempts) != 1 {
				t.Fatalf("fault-free run took %d attempts, want 1", len(res.Attempts))
			}
			expectExactOverAlive(t, res, data, slowTestElems, n)
		})
	}
}

// The straggler chaos matrix: every backend x every chaos seed x every
// slowdown class. Each cell must terminate (no hang, no error) with the
// exact fp32 sum over its final responsive membership. A GPU-class
// straggler at 10x dilates its compute phase past the hard hop timeout,
// so those cells must additionally detect and exclude it — completing
// over the responsive ranks is the only way to finish at all.
func TestStragglerChaosMatrixExactOverResponsiveMembership(t *testing.T) {
	const n = 4
	data, _ := makeInputs(n, slowTestElems, 7)
	var excluded, retained int
	for _, kind := range backends.All() {
		for _, seed := range chaosSeeds {
			for _, class := range []string{"gpu", "cmd", "dma"} {
				t.Run(fmt.Sprintf("%v/seed%d/%s", kind, seed, class), func(t *testing.T) {
					res, cl, suite := runHedgedStraggler(t, kind, slowTestSchedule(class, 10, seed))
					expectExactOverAlive(t, res, data, slowTestElems, n)
					hasStraggler := false
					for _, r := range res.Alive {
						if r == 1 {
							hasStraggler = true
						}
					}
					if hasStraggler {
						retained++
					} else {
						excluded++
					}
					if class == "gpu" && hasStraggler {
						t.Fatalf("gpu-class straggler at 10x retained in final membership %v; its compute phase exceeds the hop timeout, so the run cannot have been exact and timely", res.Alive)
					}
					if class == "gpu" {
						ms := suite.Membership.Stats()
						if ms.SlowVerdicts == 0 {
							t.Fatalf("gpu-class straggler excluded without a Slow verdict")
						}
						if _, ok := cl.Injector.Slow().FirstInjectionAt(); !ok {
							t.Fatalf("straggler plan armed but never injected")
						}
					}
				})
			}
		}
	}
	// The matrix must exercise both outcomes: hard stragglers excluded,
	// mild ones (whose classes barely dent small payloads) retained.
	if excluded == 0 || retained == 0 {
		t.Fatalf("matrix outcomes degenerate: %d excluded, %d retained", excluded, retained)
	}
}

// A straggler whose window ends recovers: the verdict lifts (OnRecovered),
// it turns Alive, and the next hedged run includes it again — the rejoin
// path of PR-4/5 reused for fail-slow flaps.
func TestStragglerRecoversAndRejoins(t *testing.T) {
	const n = 4
	data, _ := makeInputs(n, slowTestElems, 7)
	slow := slowTestSchedule("gpu", 10, 3)
	slow.Windows[0].Until = 400 * sim.Microsecond

	cfg := config.Default()
	cfg.Faults = config.FaultConfig{Slow: slow}
	cfg.NIC.Reliability = config.DefaultReliability()
	cfg.Health = slowTestHealth()
	cl := node.NewCluster(cfg, n)
	suite := health.Start(cl)
	var recovered []int
	suite.Membership.OnRecovered(func(nd int) { recovered = append(recovered, nd) })

	hcfg := HedgeConfig{
		RecoverConfig: RecoverConfig{
			Kind: backends.GPUTN, TotalBytes: slowTestElems * elemBytes, Data: data,
			Timeout: slowTestTimeout, ComputePhase: slowTestCompute,
		},
		HedgeAfter: slowTestHedge,
	}
	var first, second RecoverResult
	var err1, err2 error
	cl.Eng.Go("straggler.rejoin.driver", func(p *sim.Proc) {
		first, err1 = RunHedged(p, cl, suite.Membership, hcfg)
		// Wait out the window plus the score's healing time: arrival
		// samples at the healthy tick rate plus the lag decay lift the
		// verdict; bounded so a detector that never recovers fails the
		// test instead of hanging it.
		for i := 0; i < 100 && suite.Membership.Member(1).Status != health.Alive; i++ {
			p.Sleep(50 * sim.Microsecond)
		}
		// The verdict lifts as soon as the tick rate heals, but the
		// straggler's abandoned attempt-0 runner still owns its rank
		// until that attempt's receive waits time out — a rank cannot
		// preempt a wedged kernel, only outwait it. Drain it before
		// the readmission run, or the next collective (correctly)
		// re-excludes the still-busy node.
		p.Sleep(slowTestTimeout + 50*sim.Microsecond)
		second, err2 = RunHedged(p, cl, suite.Membership, hcfg)
		suite.Stop()
	})
	cl.Run()
	if err1 != nil {
		t.Fatalf("first hedged run failed: %v", err1)
	}
	if err2 != nil {
		t.Fatalf("second hedged run failed: %v", err2)
	}
	for _, r := range first.Alive {
		if r == 1 {
			t.Fatalf("first run retained the straggler: %v", first.Alive)
		}
	}
	expectExactOverAlive(t, first, data, slowTestElems, n)
	if len(second.Alive) != n {
		t.Fatalf("recovered straggler not readmitted: second run membership %v", second.Alive)
	}
	expectExactOverAlive(t, second, data, slowTestElems, n)
	found := false
	for _, nd := range recovered {
		if nd == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("OnRecovered never fired for the straggler (fired for %v)", recovered)
	}
	ms := suite.Membership.Stats()
	if ms.SlowVerdicts < 1 || ms.SlowsRecovered < 1 {
		t.Fatalf("verdict lifecycle incomplete: %d verdicts, %d recoveries", ms.SlowVerdicts, ms.SlowsRecovered)
	}
}

// Hedged runs demand a hop timeout, and GDS cells must opt into the HDN
// fallback: stream waits cannot be sliced, so there is no in-place hedge.
func TestHedgedConfigValidation(t *testing.T) {
	cl := node.NewCluster(config.Default(), 2)
	suite := health.Start(cl)
	var errNoTimeout, errGDS error
	cl.Eng.Go("driver", func(p *sim.Proc) {
		_, errNoTimeout = RunHedged(p, cl, suite.Membership, HedgeConfig{
			RecoverConfig: RecoverConfig{Kind: backends.HDN, TotalBytes: 1024},
		})
		_, errGDS = RunHedged(p, cl, suite.Membership, HedgeConfig{
			RecoverConfig: RecoverConfig{Kind: backends.GDS, TotalBytes: 1024, Timeout: slowTestTimeout},
		})
		suite.Stop()
	})
	cl.Run()
	if errNoTimeout == nil {
		t.Fatal("hedged run without Timeout accepted")
	}
	if errGDS == nil {
		t.Fatal("hedged GDS run without GDSFallbackHDN accepted")
	}
}
