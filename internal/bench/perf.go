package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/config"
	"repro/internal/sim"
)

// The perf harness measures the simulator itself: how fast the experiment
// suite executes events and how much it allocates per event, tracked over
// time through a committed BENCH_sim.json baseline. Simulated results are
// deterministic; these numbers are the only ones that vary per host, so
// they live in their own report instead of the experiment output.

// PerfResult is one measured experiment, timed Runs times. Wall time,
// events/sec and allocs/event are medians over the runs; the events/sec
// spread is kept so a reader can tell a regression from host noise. Each
// timed run repeats the experiment Reps times so that it covers at least
// perfMinSampleWall: a row of a few milliseconds is otherwise dominated by
// timer and scheduler noise.
type PerfResult struct {
	Name string `json:"name"`
	// WallMs is the median wall time of one repetition.
	WallMs float64 `json:"wall_ms"`
	// Events counts simulation events fired across every engine the
	// experiment created (from sim.TotalExecuted deltas) in one repetition.
	Events          uint64  `json:"events"`
	EventsPerSec    float64 `json:"events_per_sec"`
	EventsPerSecMin float64 `json:"events_per_sec_min"`
	EventsPerSecMax float64 `json:"events_per_sec_max"`
	Runs            int     `json:"runs"`
	// Reps is the median number of repetitions a timed run took to cover
	// perfMinSampleWall (1 for a row that covers it alone).
	Reps int `json:"reps"`
	// AllocsPerEvent is heap allocations per fired event across the whole
	// harness (runtime.MemStats Mallocs delta / events) — a model-stack
	// figure, not just the engine core.
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// Shards is the cfg.Shards the experiment ran under (0 and 1 are the
	// same one-engine layout). Baselines only compare like-for-like values.
	Shards int `json:"shards,omitempty"`
	// ShardEvents is the per-shard share of Events for runs at Shards ≥ 1
	// (sim.ShardExecuted deltas) — a load-balance report, not a perf one.
	ShardEvents []uint64 `json:"shard_events,omitempty"`
}

// PerfReport is the BENCH_sim.json payload.
type PerfReport struct {
	GoVersion    string       `json:"go_version"`
	GOMAXPROCS   int          `json:"gomaxprocs"`
	Parallelism  int          `json:"parallelism"`
	Preset       string       `json:"preset"`
	TotalEvents  uint64       `json:"total_events"`
	TotalWallMs  float64      `json:"total_wall_ms"`
	EventsPerSec float64      `json:"events_per_sec"`
	Experiments  []PerfResult `json:"experiments"`
}

type perfExp struct {
	name string
	// shards is the cfg.Shards the experiment runs under, recorded in its
	// PerfResult so baselines compare like-for-like engine configurations.
	shards int
	run    func()
}

// coreChain drives one engine through n dependent events — raw event-core
// throughput with no model code attached.
func coreChain(n int) {
	eng := sim.NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < n {
			eng.After(10, tick)
		}
	}
	eng.After(0, tick)
	eng.Run()
}

// perfSuite selects the experiment list for a preset. The smoke preset is
// a strict subset of full (same experiment names where present) so CI can
// compare a smoke run against a committed full baseline.
func perfSuite(cfg config.SystemConfig, preset string) ([]perfExp, error) {
	core := perfExp{"core.chain", cfg.Shards, func() { coreChain(1 << 20) }}
	fig1 := perfExp{"fig1", cfg.Shards, func() { Figure1(cfg) }}
	fig8 := perfExp{"fig8", cfg.Shards, func() { Figure8Extended(cfg) }}
	fig9 := perfExp{"fig9", cfg.Shards, func() { Figure9(cfg) }}
	fig10 := perfExp{"fig10", cfg.Shards, func() { Figure10(cfg) }}
	// fig10.s4 reruns the strong-scaling sweep on the 4-shard parallel
	// engine — the multi-shard row every baseline carries so shard-speedup
	// tracking has a committed reference. Results are shard-count
	// invariant; only wall time may differ.
	shCfg := cfg
	shCfg.Shards = 4
	fig10s4 := perfExp{"fig10.s4", 4, func() { Figure10(shCfg) }}
	fig11 := perfExp{"fig11", cfg.Shards, func() {
		if _, err := Figure11(cfg); err != nil {
			panic(err)
		}
	}}
	ablations := perfExp{"ablations", cfg.Shards, func() { RenderAblations(cfg) }}
	faults := perfExp{"faults", cfg.Shards, func() { AblationFaultTolerance(cfg, []float64{0, 0.02, 0.05}) }}
	resources := perfExp{"resources", cfg.Shards, func() { AblationResourcePressure(cfg, []float64{1.0, 0.5}) }}
	sdc := perfExp{"sdc", cfg.Shards, func() { AblationSDC(cfg, []float64{0.02, 0.10}) }}
	stragglers := perfExp{"stragglers", cfg.Shards, func() { AblationStraggler(cfg, []float64{10}) }}
	incast := perfExp{"fattree.incast", cfg.Shards, func() { AblationFatTreeIncast(cfg, 16, 64<<10) }}
	switch preset {
	case "full":
		return []perfExp{core, fig1, fig8, fig9, fig10, fig10s4, fig11, ablations, faults, resources, sdc, stragglers, incast}, nil
	case "smoke":
		return []perfExp{core, fig1, fig8, fig10s4, faults, resources, incast}, nil
	default:
		return nil, fmt.Errorf("bench: unknown perf preset %q (want full or smoke)", preset)
	}
}

// shardDelta diffs two sim.ShardExecuted snapshots; nil when nothing
// sharded ran in between.
func shardDelta(before, after []uint64) []uint64 {
	var out []uint64
	for i, a := range after {
		var b uint64
		if i < len(before) {
			b = before[i]
		}
		if a != b {
			for len(out) < i {
				out = append(out, 0)
			}
			out = append(out, a-b)
		}
	}
	return out
}

// perfMinSampleWall is the least wall time one timed run covers: a row
// shorter than this repeats its experiment until the run reaches it.
const perfMinSampleWall = 100 * time.Millisecond

// timeReps runs fn at least once and until the elapsed wall time covers
// perfMinSampleWall, and returns that wall time and the repetitions.
func timeReps(fn func()) (time.Duration, int) {
	t0 := time.Now()
	n := 0
	for n == 0 || time.Since(t0) < perfMinSampleWall {
		fn()
		n++
	}
	return time.Since(t0), n
}

// perSec is events per second over wall, 0 for an unmeasurable wall.
func perSec(events uint64, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(events) / wall.Seconds()
}

// RunPerf executes the preset's experiments runs times each (at least
// once), each timed run repeating the experiment until it covers
// perfMinSampleWall, and reports per experiment the median wall time per
// repetition, events/sec (reps×events/wall) and allocs/event, and the
// events/sec spread.
func RunPerf(cfg config.SystemConfig, preset string, runs int) (*PerfReport, error) {
	exps, err := perfSuite(cfg, preset)
	if err != nil {
		return nil, err
	}
	runs = max(runs, 1)
	rep := &PerfReport{
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Parallelism: Parallelism(),
		Preset:      preset,
	}
	for _, ex := range exps {
		r := PerfResult{Name: ex.name, Runs: runs, Shards: ex.shards}
		walls := make([]time.Duration, runs)
		reps := make([]int, runs)
		allocs := make([]uint64, runs)
		for i := range walls {
			// Collect before timing so each run starts from a clean GC
			// state: without this, an allocation-heavy experiment leaves GC
			// debt that the next one pays for, and measured events/sec
			// depends on suite order rather than the experiment itself.
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ev0 := sim.TotalExecuted()
			sh0 := sim.ShardExecuted()
			wall, n := timeReps(ex.run)
			// Experiments are deterministic: every repetition fires the
			// same events.
			r.Events = (sim.TotalExecuted() - ev0) / uint64(n)
			if ex.shards > 0 {
				r.ShardEvents = shardDelta(sh0, sim.ShardExecuted())
				for k := range r.ShardEvents {
					r.ShardEvents[k] /= uint64(n)
				}
			}
			runtime.ReadMemStats(&after)
			walls[i], reps[i] = wall/time.Duration(n), n
			allocs[i] = (after.Mallocs - before.Mallocs) / uint64(n)
		}
		slices.Sort(walls)
		slices.Sort(reps)
		slices.Sort(allocs)
		wall := walls[runs/2]
		r.WallMs = float64(wall.Microseconds()) / 1000
		r.Reps = reps[runs/2]
		r.EventsPerSec = perSec(r.Events, wall)
		r.EventsPerSecMin = perSec(r.Events, walls[runs-1])
		r.EventsPerSecMax = perSec(r.Events, walls[0])
		if r.Events > 0 {
			r.AllocsPerEvent = float64(allocs[runs/2]) / float64(r.Events)
		}
		rep.Experiments = append(rep.Experiments, r)
		rep.TotalEvents += r.Events
		rep.TotalWallMs += r.WallMs
	}
	if rep.TotalWallMs > 0 {
		rep.EventsPerSec = float64(rep.TotalEvents) / (rep.TotalWallMs / 1000)
	}
	return rep, nil
}

// Render formats the report as the harness's stdout table.
func (r *PerfReport) Render() string {
	out := fmt.Sprintf("Simulator perf (%s preset, %s, GOMAXPROCS=%d, parallel=%d)\n",
		r.Preset, r.GoVersion, r.GOMAXPROCS, r.Parallelism)
	out += fmt.Sprintf("%-14s %10s %12s %14s %23s %12s %7s %5s\n", "experiment", "wall ms", "events", "events/sec", "min-max", "allocs/event", "shards", "reps")
	for _, e := range r.Experiments {
		out += fmt.Sprintf("%-14s %10.1f %12d %14.0f %11.0f-%-11.0f %12.2f %7d %5d\n",
			e.Name, e.WallMs, e.Events, e.EventsPerSec, e.EventsPerSecMin, e.EventsPerSecMax, e.AllocsPerEvent, e.Shards, e.Reps)
	}
	out += fmt.Sprintf("%-14s %10.1f %12d %14.0f\n", "total", r.TotalWallMs, r.TotalEvents, r.EventsPerSec)
	return out
}

// WriteJSON saves the report.
func (r *PerfReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadPerfReport reads a previously saved report.
func LoadPerfReport(path string) (*PerfReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r PerfReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return &r, nil
}

// perfAllocsMargin is the most a row's allocs/event may rise over its
// baseline's before ComparePerf fails it. Like event counts, allocation
// counts do not depend on host speed: repeated runs of a row agree to
// about 1e-4 allocs/event.
const perfAllocsMargin = 0.02

// ComparePerf checks cur against base, row by row. Two gates are exact and
// cannot flake on host speed: a row must fire exactly the baseline's
// events per repetition (any change to the simulated work needs a
// deliberate re-baseline), and its allocs/event may rise at most
// perfAllocsMargin. The timing gate holds each row's median events/sec to
// at least (1-tolerance) of the baseline's. Returns a human-readable line
// per failure (empty = none). Experiments present in only one report are
// skipped, so a smoke run compares cleanly against a full baseline. Only
// like-for-like engine configurations compare: a row measured at
// -shards 4 never gates against a serial baseline row (or vice versa) —
// shard counts change the wall-clock story without changing correctness.
func ComparePerf(cur, base *PerfReport, tolerance float64) []string {
	baseline := map[string]PerfResult{}
	for _, e := range base.Experiments {
		baseline[e.Name] = e
	}
	var regressions []string
	for _, e := range cur.Experiments {
		b, ok := baseline[e.Name]
		if !ok || b.Shards != e.Shards {
			continue
		}
		if e.Events != b.Events {
			regressions = append(regressions,
				fmt.Sprintf("%s: %d events per repetition, baseline %d (a changed event count needs a re-baseline)",
					e.Name, e.Events, b.Events))
		}
		if limit := b.AllocsPerEvent + perfAllocsMargin; e.AllocsPerEvent > limit {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.4f allocs/event > %.4f (baseline %.4f + %.2f margin)",
					e.Name, e.AllocsPerEvent, limit, b.AllocsPerEvent, perfAllocsMargin))
		}
		if floor := b.EventsPerSec * (1 - tolerance); e.EventsPerSec < floor {
			regressions = append(regressions,
				fmt.Sprintf("%s: median %.0f events/sec over %d runs < %.0f (baseline %.0f - %.0f%% tolerance)",
					e.Name, e.EventsPerSec, e.Runs, floor, b.EventsPerSec, tolerance*100))
		}
	}
	return regressions
}
