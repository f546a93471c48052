package bench

import (
	"fmt"
	"strings"

	"repro/internal/backends"
	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads/mlearn"
)

// Extensions beyond the paper's own figures: the Figure 8 span timelines,
// the Figure 11 study across cluster sizes and as an in-sim training loop,
// and a sensitivity grid around the Figure 8 microbenchmark.

// TimelineKinds are the backends whose Figure 8 spans the timelines show.
var TimelineKinds = []backends.Kind{backends.HDN, backends.GDS, backends.GPUTN}

// RenderTimelines formats the Figure 8 decomposition followed by each
// backend's full initiator/target span timeline.
func RenderTimelines(r *Fig8Result) string {
	var b strings.Builder
	b.WriteString(RenderFigure8(r))
	for _, kind := range TimelineKinds {
		fmt.Fprintf(&b, "\n--- %s timeline ---\n%s", kind, r.Runs[kind].Tracer.Render())
	}
	return b.String()
}

// MLSweepNodes are the cluster sizes the Figure 11 projection is swept over.
var MLSweepNodes = []int{2, 4, 8, 16, 32}

// RenderMLSweep projects GPU-TN's Figure 11 training speedup over HDN at
// each of MLSweepNodes. Strong scaling shrinks per-round chunks, so the
// gain grows with node count.
func RenderMLSweep(cfg config.SystemConfig) (string, error) {
	var b strings.Builder
	b.WriteString("Extension: projected GPU-TN speedup vs HDN across cluster sizes\n")
	for _, w := range mlearn.Table3() {
		res, err := mlearn.SweepNodes(cfg, w, MLSweepNodes)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-13s", w.Name)
		for _, n := range MLSweepNodes {
			fmt.Fprintf(&b, "  %d:%.3f", n, res[n])
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// RenderMLTrain cross-validates the Figure 11 projection: it runs a
// synchronous-SGD training loop per workload in the simulator on
// Fig11Nodes nodes and prints GPU-TN's measured speedup over HDN next to
// the closed-form projection.
func RenderMLTrain(cfg config.SystemConfig) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: in-sim synchronous-SGD training loop (%d nodes), measured vs projected\n", Fig11Nodes)
	for _, w := range mlearn.Table3() {
		times, err := mlearn.AllreduceTimes(cfg, Fig11Nodes, w.AvgMsgBytes)
		if err != nil {
			return "", err
		}
		trace := mlearn.GenerateTrace(w, 6, times[backends.HDN], 1)
		measured, err := mlearn.TrainingSpeedups(cfg, Fig11Nodes, trace, w.AvgMsgBytes)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-13s GPU-TN measured %.3f / projected %.3f\n",
			w.Name, measured[backends.GPUTN], mlearn.Project(w, times)[backends.GPUTN])
	}
	return b.String(), nil
}

// The sensitivity grid crosses GPU kernel launch/teardown overhead scale
// (the Figure 1 range) with fabric bandwidth (generations, in Gbps).
var (
	SensitivityScales    = []float64{0.5, 1, 2, 4}
	SensitivityRates     = []float64{10, 25, 100, 400}
	SensitivityBaselines = []backends.Kind{backends.HDN, backends.GDS}
)

// Sensitivity runs the Figure 8 microbenchmark at every cell of the
// sensitivity grid and returns, per baseline, GPU-TN's end-to-end latency
// reduction (%) as one series per overhead scale over SensitivityRates —
// mapping out where intra-kernel triggering matters most.
func Sensitivity(cfg config.SystemConfig) map[backends.Kind][]*stats.Series {
	out := map[backends.Kind][]*stats.Series{}
	for _, scale := range SensitivityScales {
		var row []*stats.Series
		for _, base := range SensitivityBaselines {
			s := &stats.Series{Name: fmt.Sprintf("x%.1f", scale)}
			out[base] = append(out[base], s)
			row = append(row, s)
		}
		for _, rate := range SensitivityRates {
			c := cfg
			c.GPU.KernelLaunch = sim.Time(float64(cfg.GPU.KernelLaunch) * scale)
			c.GPU.KernelTeardown = sim.Time(float64(cfg.GPU.KernelTeardown) * scale)
			c.Network.BandwidthGbps = rate
			res := Figure8(c)
			for i, base := range SensitivityBaselines {
				row[i].Add(rate, (1-1/res.SpeedupVs(base))*100)
			}
		}
	}
	return out
}

// RenderSensitivity formats one baseline's grid: a row per overhead scale,
// a column per bandwidth.
func RenderSensitivity(base backends.Kind, series []*stats.Series) string {
	tbl := stats.Table{
		Title:   fmt.Sprintf("GPU-TN latency reduction vs %s (%%), kernel-overhead scale x bandwidth", base),
		Headers: []string{"overhead\\Gbps"},
	}
	for _, rate := range SensitivityRates {
		tbl.Headers = append(tbl.Headers, fmt.Sprintf("%.0f", rate))
	}
	for _, s := range series {
		row := []string{s.Name}
		for _, p := range s.Points {
			row = append(row, fmt.Sprintf("%.1f", p.Y))
		}
		tbl.AddRow(row...)
	}
	return tbl.String()
}
