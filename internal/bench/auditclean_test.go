package bench

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/config"
)

// Every -list experiment must run at zero invariant violations: the
// auditor is always on in every cluster the bench constructs, and the
// process-wide violation counter is the tripwire — any experiment that
// breaks trigger-once, epoch monotonicity, stale-delivery fencing,
// message conservation, single-majority membership, or exact reduction
// moves it. (Tests in this package run sequentially, so the per-entry
// delta is attributable.)
func TestEveryExperimentAuditClean(t *testing.T) {
	cfg := config.Default()
	exps := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"table1", func(t *testing.T) { RenderTable1() }},
		{"table2", func(t *testing.T) { RenderTable2(cfg) }},
		{"table3", func(t *testing.T) { RenderTable3() }},
		{"fig1", func(t *testing.T) { Figure1(cfg) }},
		{"fig8", func(t *testing.T) { Figure8Extended(cfg) }},
		{"fig9", func(t *testing.T) { Figure9(cfg) }},
		{"fig10", func(t *testing.T) { Figure10(cfg) }},
		{"fig11", func(t *testing.T) {
			if _, err := Figure11(cfg); err != nil {
				t.Fatal(err)
			}
		}},
		{"ablations", func(t *testing.T) { RenderAblations(cfg) }},
		{"faults", func(t *testing.T) { RenderFaultTolerance(cfg) }},
		{"resources", func(t *testing.T) { RenderResourcePressure(cfg) }},
		{"crash", func(t *testing.T) { RenderCrashRecovery(cfg) }},
		{"partitions", func(t *testing.T) { RenderPartitions(cfg) }},
		{"sdc", func(t *testing.T) { RenderSDC(cfg) }},
		{"stragglers", func(t *testing.T) { RenderStragglers(cfg) }},
		{"timelines", func(t *testing.T) { RenderTimelines(Figure8(cfg)) }},
		{"mlsweep", func(t *testing.T) {
			if _, err := RenderMLSweep(cfg); err != nil {
				t.Fatal(err)
			}
		}},
		{"mltrain", func(t *testing.T) {
			if _, err := RenderMLTrain(cfg); err != nil {
				t.Fatal(err)
			}
		}},
		{"sensitivity", func(t *testing.T) { Sensitivity(cfg) }},
		{"chaossearch", func(t *testing.T) { RenderChaosSearch(cfg, ChaosConfig{Seed: 42, Trials: 1}) }},
		{"fattree-incast", func(t *testing.T) { AblationFatTreeIncast(cfg, 16, 64<<10) }},
		{"perf", func(t *testing.T) {
			if _, err := RunPerf(cfg, "smoke", 1); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, e := range exps {
		e := e
		t.Run(e.name, func(t *testing.T) {
			before := audit.ProcessViolations()
			e.run(t)
			if d := audit.ProcessViolations() - before; d != 0 {
				t.Fatalf("experiment %s produced %d invariant violations", e.name, d)
			}
		})
	}
}
