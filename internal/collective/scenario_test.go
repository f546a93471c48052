package collective

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/backends"
	"repro/internal/config"
	"repro/internal/nic"
	"repro/internal/sim"
)

// scenarioShape is one composed correlated-failure shape of the scenario
// chaos matrix. GDS stream waits cannot be interrupted mid-attempt, so the
// GDS column gets a timing variant whose crashes and heals all land before
// the first attempt can start (StabilizeDelay), mirroring gdsSchedules.
type scenarioShape struct {
	name   string
	events func(gds bool) []config.ScenarioEvent
}

var scenarioShapes = []scenarioShape{
	{
		// A whole rack fails: correlated crash of every rack node plus a
		// cut of the rack from the rest of the fabric, healing with a
		// jittered restart storm.
		name: "rack-crash+cut",
		events: func(gds bool) []config.ScenarioEvent {
			ev := config.ScenarioEvent{
				Kind: config.ScenarioRackFail, Domain: "rack0",
				At: 70 * sim.Microsecond, Heal: 60 * sim.Microsecond, Jitter: 10 * sim.Microsecond,
			}
			if gds {
				ev.At, ev.Heal, ev.Jitter = 5*sim.Microsecond, 25*sim.Microsecond, 5*sim.Microsecond
			}
			return []config.ScenarioEvent{ev}
		},
	},
	{
		// A gray link pair degrades (latency + loss) while the same nodes
		// also run slow GPUs — correlated fail-slow without any fail-stop.
		name: "gray+straggler",
		events: func(bool) []config.ScenarioEvent {
			return []config.ScenarioEvent{
				{Kind: config.ScenarioGray, Domain: "pair", At: 10 * sim.Microsecond,
					Heal: 100 * sim.Microsecond, LatencyFactor: 3, LossProb: 0.02},
				{Kind: config.ScenarioSlow, Domain: "pair", At: 5 * sim.Microsecond,
					Heal: 80 * sim.Microsecond, GPUFactor: 3},
			}
		},
	},
	{
		// Every rack node crashes and the whole rack restarts as a
		// jittered storm — the mass-rejoin path.
		name: "restart-storm",
		events: func(gds bool) []config.ScenarioEvent {
			ev := config.ScenarioEvent{
				Kind: config.ScenarioCrash, Domain: "rack0",
				At: 70 * sim.Microsecond, Heal: 40 * sim.Microsecond, Jitter: 15 * sim.Microsecond,
			}
			if gds {
				ev.At, ev.Heal, ev.Jitter = 5*sim.Microsecond, 25*sim.Microsecond, 10*sim.Microsecond
			}
			return []config.ScenarioEvent{ev}
		},
	},
}

// scenarioMatrixConfig composes one (shape, seed) cell's config: an 8-node
// cluster with a 3-node rack (the survivors keep a strict majority while
// it is down) and a cross-rack pair.
func scenarioMatrixConfig(shape scenarioShape, kind backends.Kind, seed int64) config.SystemConfig {
	cfg := config.Default()
	cfg.Faults = chaosFaults(seed)
	cfg.NIC.Reliability = config.DefaultReliability()
	cfg.Health = crashHealth()
	cfg.Scenario = config.ScenarioConfig{
		Seed: seed,
		Domains: []config.ScenarioDomain{
			{Name: "rack0", Nodes: []int{0, 1, 2}},
			{Name: "pair", Nodes: []int{2, 5}},
		},
		Events: shape.events(kind == backends.GDS),
	}
	return cfg
}

// The scenario chaos matrix: every backend x every chaos seed x every
// composed correlated-failure shape completes with the exact sum over the
// final membership (everything heals, so all eight nodes), at zero audit
// violations. `make chaos-scenarios` runs exactly this matrix under -race.
func TestScenarioChaosMatrixExactAndAuditClean(t *testing.T) {
	const n, nelems = 8, crashElems
	for _, kind := range backends.All() {
		for _, seed := range chaosSeeds {
			for _, shape := range scenarioShapes {
				kind, seed, shape := kind, seed, shape
				t.Run(fmt.Sprintf("%v/%s/seed%d", kind, shape.name, seed), func(t *testing.T) {
					data, _ := makeInputs(n, nelems, seed)
					cfg := scenarioMatrixConfig(shape, kind, seed)
					rcfg := RecoverConfig{Kind: kind, TotalBytes: nelems * elemBytes, Data: data}
					if kind != backends.GDS {
						rcfg.Timeout = 300 * sim.Microsecond
					}
					res, cl, _ := driveRecoverable(t, cfg, n, rcfg)
					all := []int{0, 1, 2, 3, 4, 5, 6, 7}
					expectSum(t, res, data, all, nelems, n)
					if cl.Scenario == nil {
						t.Fatal("scenario did not compile")
					}
					// Non-vacuous: the shape's faults actually fired.
					switch shape.name {
					case "gray+straggler":
						if cl.Injector.Stats().DegradeDrops+cl.Injector.Stats().DegradeSlowed == 0 {
							t.Fatal("gray windows never touched a frame")
						}
					default:
						var crashes int64
						for _, nd := range cl.Nodes {
							crashes += nd.NIC.Stats().Crashes
						}
						if crashes != 3 {
							t.Fatalf("crashes = %d, want 3 (whole rack)", crashes)
						}
					}
					cl.Audit.Finish(cl.Eng.Now(), true)
					if !cl.Audit.Clean() {
						vs, dropped := cl.Audit.Violations()
						t.Fatalf("audit violations (%d dropped): %v", dropped, vs)
					}
					if cl.Audit.ChecksEvaluated() == 0 {
						t.Fatal("auditor evaluated zero checks (vacuous)")
					}
				})
			}
		}
	}
}

// A composed rack failure is deterministic: the same config replays the
// whole trace bit-for-bit — duration, outputs, and every NIC counter.
func TestScenarioRackFailDeterministicTrace(t *testing.T) {
	run := func() (sim.Time, []nic.Stats, [][]float32) {
		const n, nelems = 8, crashElems
		data, _ := makeInputs(n, nelems, 7)
		cfg := scenarioMatrixConfig(scenarioShapes[0], backends.GPUTN, 7)
		res, cl, _ := driveRecoverable(t, cfg, n, RecoverConfig{
			Kind: backends.GPUTN, TotalBytes: nelems * elemBytes, Data: data,
			Timeout: 300 * sim.Microsecond,
		})
		var stats []nic.Stats
		for _, nd := range cl.Nodes {
			stats = append(stats, nd.NIC.Stats())
		}
		return res.Duration, stats, res.Output
	}
	d1, s1, o1 := run()
	d2, s2, o2 := run()
	if d1 != d2 {
		t.Fatalf("duration diverged: %v vs %v", d1, d2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("NIC stats diverged:\n%+v\n%+v", s1, s2)
	}
	if !reflect.DeepEqual(o1, o2) {
		t.Fatal("outputs diverged between identical runs")
	}
}

// A fail-slow-only scenario (no crash, so the parallel engines stay legal)
// must be shard-invariant: the default layout (shards 0), shards 1 and
// shards 4 produce the identical run.
func TestScenarioShardCountInvariant(t *testing.T) {
	run := func(shards int) (sim.Time, [][]float32, int64) {
		const n, nelems = 8, 4096
		data, _ := makeInputs(n, nelems, 7)
		cfg := scenarioMatrixConfig(scenarioShapes[1], backends.GPUTN, 7)
		cfg.Shards = shards
		res, cl, _ := driveRecoverable(t, cfg, n, RecoverConfig{
			Kind: backends.GPUTN, TotalBytes: nelems * elemBytes, Data: data,
			Timeout: 300 * sim.Microsecond,
		})
		cl.Audit.Finish(cl.Eng.Now(), true)
		if !cl.Audit.Clean() {
			vs, _ := cl.Audit.Violations()
			t.Fatalf("shards=%d audit violations: %v", shards, vs)
		}
		return res.Duration, res.Output, cl.Injector.Stats().PacketsDropped
	}
	d0, o0, p0 := run(0)
	for _, shards := range []int{1, 4} {
		d, o, p := run(shards)
		if d != d0 || p != p0 {
			t.Fatalf("shards=%d diverged from shards=0: dur %v/%v drops %d/%d", shards, d, d0, p, p0)
		}
		if !reflect.DeepEqual(o, o0) {
			t.Fatalf("shards=%d outputs diverged from shards=0", shards)
		}
	}
}
