package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/config"
)

// printed is what fmt.Println of each part writes: the output a
// gputn-bench runner prints, minus the run header.
func printed(parts ...string) string {
	var b strings.Builder
	for _, s := range parts {
		b.WriteString(s)
		b.WriteByte('\n')
	}
	return b.String()
}

// Every -list experiment must run at zero invariant violations: the
// auditor is always on in every cluster the bench constructs, and the
// process-wide violation counter is the tripwire — any experiment that
// breaks trigger-once, epoch monotonicity, stale-delivery fencing,
// message conservation, single-majority membership, or exact reduction
// moves it. (Tests in this package run sequentially, so the per-entry
// delta is attributable.)
//
// Each experiment's rendered output must also match its committed
// testdata/<name>.golden byte for byte: the text `gputn-bench -exp <name>`
// prints after its run header (chaossearch with -chaos-trials 1). perf
// pins only its rows' names and event counts, the part of the report no
// host can move, and fattree-incast its three latencies. Regenerate with
// GOLDEN_UPDATE=1 only when an output change is intended and understood.
func TestEveryExperimentAuditClean(t *testing.T) {
	cfg := config.Default()
	exps := []struct {
		name string
		run  func(t *testing.T) string
	}{
		{"table1", func(t *testing.T) string { return printed(RenderTable1()) }},
		{"table2", func(t *testing.T) string { return printed(RenderTable2(cfg)) }},
		{"table3", func(t *testing.T) string { return printed(RenderTable3()) }},
		{"fig1", func(t *testing.T) string { return printed(RenderFigure1(Figure1(cfg))) }},
		{"fig8", func(t *testing.T) string {
			res := Figure8Extended(cfg)
			return printed(RenderFigure8(res), RenderFigure8Bars(res), RenderFigure8Extended(res))
		}},
		{"fig9", func(t *testing.T) string { return printed(RenderFigure9(Figure9(cfg))) }},
		{"fig10", func(t *testing.T) string { return printed(RenderFigure10(Figure10(cfg))) }},
		{"fig11", func(t *testing.T) string {
			res, err := Figure11(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return printed(RenderFigure11(res))
		}},
		{"ablations", func(t *testing.T) string { return printed(RenderAblations(cfg)) }},
		{"faults", func(t *testing.T) string { return printed(RenderFaultTolerance(cfg)) }},
		{"resources", func(t *testing.T) string { return printed(RenderResourcePressure(cfg)) }},
		{"crash", func(t *testing.T) string { return printed(RenderCrashRecovery(cfg)) }},
		{"partitions", func(t *testing.T) string { return printed(RenderPartitions(cfg)) }},
		{"sdc", func(t *testing.T) string { return printed(RenderSDC(cfg)) }},
		{"stragglers", func(t *testing.T) string { return printed(RenderStragglers(cfg)) }},
		{"timelines", func(t *testing.T) string { return RenderTimelines(Figure8(cfg)) }},
		{"mlsweep", func(t *testing.T) string {
			out, err := RenderMLSweep(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
		{"mltrain", func(t *testing.T) string {
			out, err := RenderMLTrain(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
		{"sensitivity", func(t *testing.T) string {
			grids := Sensitivity(cfg)
			var parts []string
			for _, base := range SensitivityBaselines {
				parts = append(parts, RenderSensitivity(base, grids[base]))
			}
			return printed(parts...)
		}},
		{"chaossearch", func(t *testing.T) string {
			return printed(RenderChaosSearch(cfg, ChaosConfig{Seed: 42, Trials: 1}))
		}},
		{"fattree-incast", func(t *testing.T) string {
			star, fattree, controlled := AblationFatTreeIncast(cfg, 16, 64<<10)
			return fmt.Sprintf("star %v\nfattree %v\ncontrolled %v\n", star, fattree, controlled)
		}},
		{"perf", func(t *testing.T) string {
			rep, err := RunPerf(cfg, "smoke", 1)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, r := range rep.Experiments {
				fmt.Fprintf(&b, "%s events=%d\n", r.Name, r.Events)
			}
			return b.String()
		}},
	}
	for _, e := range exps {
		e := e
		t.Run(e.name, func(t *testing.T) {
			before := audit.ProcessViolations()
			got := e.run(t)
			if d := audit.ProcessViolations() - before; d != 0 {
				t.Fatalf("experiment %s produced %d invariant violations", e.name, d)
			}
			checkGolden(t, filepath.Join("testdata", e.name+".golden"), got)
		})
	}
}

// checkGolden compares got with the committed golden file, or rewrites the
// file when GOLDEN_UPDATE=1.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if os.Getenv("GOLDEN_UPDATE") == "1" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden output (run with GOLDEN_UPDATE=1 to capture): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: output diverges at line %d:\n got %q\nwant %q", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: output has %d lines, golden %d", path, len(gl), len(wl))
}
