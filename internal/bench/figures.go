package bench

import (
	"fmt"
	"strings"

	"repro/internal/backends"
	"repro/internal/collective"
	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/memsys"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads/jacobi"
	"repro/internal/workloads/mlearn"
)

// Fig1Depths are the queue depths swept in Figure 1.
var Fig1Depths = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Figure1 measures per-kernel launch latency versus the number of kernel
// commands exposed to the hardware scheduler at once, for the three GPU
// presets, by driving the simulated front-end with empty kernels.
func Figure1(cfg config.SystemConfig) []*stats.Series {
	presets := config.Figure1Presets()
	vals := parallelMap(len(presets)*len(Fig1Depths), func(idx int) float64 {
		preset := presets[idx/len(Fig1Depths)]
		depth := Fig1Depths[idx%len(Fig1Depths)]
		eng := sim.NewEngine()
		g := gpu.New(eng, cfg.GPU, memsys.FromGPU(cfg.GPU, cfg.CPU))
		g.SetLaunchModel(preset.LaunchLatency)
		var total sim.Time
		eng.Go("driver", func(p *sim.Proc) {
			start := p.Now()
			var last *gpu.Kernel
			for i := 0; i < depth; i++ {
				last = &gpu.Kernel{Name: "empty", WorkGroups: 1}
				g.Launch(last)
			}
			last.Wait(p)
			total = p.Now() - start
		})
		eng.Run()
		// Launch latency excludes the teardown the empty kernel pays.
		return (total/sim.Time(depth) - cfg.GPU.KernelTeardown).Us()
	})
	var out []*stats.Series
	for pi, preset := range presets {
		s := &stats.Series{Name: preset.Name}
		for di, depth := range Fig1Depths {
			s.Add(float64(depth), vals[pi*len(Fig1Depths)+di])
		}
		out = append(out, s)
	}
	return out
}

// RenderFigure1 formats Figure 1 as its table and plot.
func RenderFigure1(series []*stats.Series) string {
	return stats.RenderSeries("Figure 1: kernel launch latency (us) vs queued kernel commands", "queued", series) + "\n" +
		stats.Plot(series, stats.PlotOptions{LogX: true, XLabel: "queued kernel commands", Title: "launch latency (us)"})
}

// Fig9Sizes are the local grid sizes swept in Figure 9.
var Fig9Sizes = []int{16, 32, 64, 128, 256, 512, 1024}

// Fig9Iters amortizes fixed startup over several iterations so the
// reported numbers reflect the steady-state per-iteration time the paper
// plots ("a single iteration of Jacobi").
const Fig9Iters = 8

// Figure9 runs the 2D Jacobi relaxation per grid size per backend on a
// 2x2 cluster and reports per-iteration speedup relative to HDN.
func Figure9(cfg config.SystemConfig) []*stats.Series {
	kinds := []backends.Kind{backends.CPU, backends.GDS, backends.GPUTN}
	all := []backends.Kind{backends.HDN, backends.CPU, backends.GDS, backends.GPUTN}
	durs := parallelMap(len(Fig9Sizes)*len(all), func(idx int) sim.Time {
		n := Fig9Sizes[idx/len(all)]
		kind := all[idx%len(all)]
		c := node.NewCluster(cfg, 4)
		res, err := jacobi.Run(c, jacobi.Params{Kind: kind, N: n, PX: 2, PY: 2, Iters: Fig9Iters})
		if err != nil {
			panic(fmt.Sprintf("bench: figure9 %s N=%d: %v", kind, n, err))
		}
		return res.Duration
	})
	series := map[backends.Kind]*stats.Series{}
	for _, k := range kinds {
		series[k] = &stats.Series{Name: k.String()}
	}
	for si, n := range Fig9Sizes {
		hdn := durs[si*len(all)]
		for ki, k := range all[1:] {
			series[k].Add(float64(n), float64(hdn)/float64(durs[si*len(all)+ki+1]))
		}
	}
	out := make([]*stats.Series, 0, len(kinds))
	for _, k := range kinds {
		out = append(out, series[k])
	}
	return out
}

// RenderFigure9 formats Figure 9 as its table and plot.
func RenderFigure9(series []*stats.Series) string {
	return stats.RenderSeries("Figure 9: Jacobi speedup vs HDN (2x2 nodes, per-iteration)", "N", series) + "\n" +
		stats.Plot(series, stats.PlotOptions{LogX: true, XLabel: "local grid N", Title: "speedup vs HDN"})
}

// Fig10Nodes are the cluster sizes swept in Figure 10.
var Fig10Nodes = []int{2, 5, 8, 11, 14, 17, 20, 23, 26, 29, 32}

// Fig10Payload is the collective payload of Figure 10 (8 MB).
const Fig10Payload = int64(8 << 20)

// Figure10 runs the 8 MB ring Allreduce strong-scaling study: speedup of
// each GPU backend relative to the CPU backend at each node count.
func Figure10(cfg config.SystemConfig) []*stats.Series {
	kinds := backends.GPUKinds()
	all := append([]backends.Kind{backends.CPU}, kinds...)
	durs := parallelMap(len(Fig10Nodes)*len(all), func(idx int) sim.Time {
		n := Fig10Nodes[idx/len(all)]
		kind := all[idx%len(all)]
		c := node.NewCluster(cfg, n)
		res, err := collective.Run(c, collective.Config{Kind: kind, TotalBytes: Fig10Payload})
		if err != nil {
			panic(fmt.Sprintf("bench: figure10 %s n=%d: %v", kind, n, err))
		}
		return res.Duration
	})
	series := map[backends.Kind]*stats.Series{}
	for _, k := range kinds {
		series[k] = &stats.Series{Name: k.String()}
	}
	for ni, n := range Fig10Nodes {
		cpu := durs[ni*len(all)]
		for ki, k := range kinds {
			series[k].Add(float64(n), float64(cpu)/float64(durs[ni*len(all)+ki+1]))
		}
	}
	out := make([]*stats.Series, 0, len(kinds))
	for _, k := range kinds {
		out = append(out, series[k])
	}
	return out
}

// RenderFigure10 formats Figure 10 as its table and plot.
func RenderFigure10(series []*stats.Series) string {
	return stats.RenderSeries("Figure 10: 8MB Allreduce speedup vs CPU (strong scaling)", "nodes", series) + "\n" +
		stats.Plot(series, stats.PlotOptions{XLabel: "nodes", Title: "speedup vs CPU"})
}

// Fig11Nodes is the cluster size of Figure 11 (8 nodes in the paper).
const Fig11Nodes = 8

// Figure11 reproduces the deep-learning projection study.
func Figure11(cfg config.SystemConfig) ([]mlearn.StudyResult, error) {
	return mlearn.RunStudy(cfg, Fig11Nodes)
}

// RenderFigure11 formats the study as the paper's grouped bars.
func RenderFigure11(results []mlearn.StudyResult) string {
	tbl := stats.Table{
		Title:   "Figure 11: projected training speedup vs HDN (8 nodes)",
		Headers: []string{"Workload", "CPU", "HDN", "GDS", "GPU-TN"},
	}
	for _, r := range results {
		tbl.AddRow(r.Workload.Name,
			fmt.Sprintf("%.3f", r.Speedup[backends.CPU]),
			fmt.Sprintf("%.3f", r.Speedup[backends.HDN]),
			fmt.Sprintf("%.3f", r.Speedup[backends.GDS]),
			fmt.Sprintf("%.3f", r.Speedup[backends.GPUTN]))
	}
	return tbl.String()
}

// RenderTable3 reproduces Table 3.
func RenderTable3() string {
	tbl := stats.Table{
		Title:   "Table 3: CNTK workload description",
		Headers: []string{"Name", "Domain", "%Blocked", "Reductions", "AvgMsgBytes (calibrated)"},
	}
	for _, w := range mlearn.Table3() {
		tbl.AddRow(w.Name, w.Domain,
			fmt.Sprintf("%.0f%%", w.PctBlocked*100),
			fmt.Sprintf("%d", w.Reductions),
			fmt.Sprintf("%d", w.AvgMsgBytes))
	}
	return tbl.String()
}

// RenderTable2 prints the simulation configuration.
func RenderTable2(cfg config.SystemConfig) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: GPU-TN simulation configuration\n")
	fmt.Fprintf(&b, "CPU: %d cores, %.0f GHz, %d-wide OOO\n", cfg.CPU.Cores, cfg.CPU.ClockGHz, cfg.CPU.IssueWide)
	fmt.Fprintf(&b, "  L1D %dK  L2 %dM  L3 %dM\n", cfg.CPU.L1D.SizeBytes>>10, cfg.CPU.L2.SizeBytes>>20, cfg.CPU.L3.SizeBytes>>20)
	fmt.Fprintf(&b, "GPU: %d CUs, %.0f GHz, wavefront %d\n", cfg.GPU.ComputeUnits, cfg.GPU.ClockGHz, cfg.GPU.WavefrontSize)
	fmt.Fprintf(&b, "  kernel latencies: %.1fus launch / %.1fus teardown\n", cfg.GPU.KernelLaunch.Us(), cfg.GPU.KernelTeardown.Us())
	fmt.Fprintf(&b, "Network: %v link, %v switch, %.0f Gbps, star topology\n",
		cfg.Network.LinkLatency, cfg.Network.SwitchLatency, cfg.Network.BandwidthGbps)
	fmt.Fprintf(&b, "NIC: trigger list <= %d entries (associative lookup)\n", cfg.NIC.MaxTriggerEntries)
	return b.String()
}

// RenderTable1 prints the qualitative taxonomy.
func RenderTable1() string {
	tbl := stats.Table{
		Title:   "Table 1: qualitative comparison of GPU networking strategies",
		Headers: []string{"Approach", "GPU Triggered", "Intra-Kernel", "GPU Overhead", "CPU Overhead"},
	}
	yn := func(b bool) string {
		if b {
			return "Yes"
		}
		return "No"
	}
	for _, r := range backends.Taxonomy() {
		tbl.AddRow(r.Approach, yn(r.GPUTriggered), yn(r.IntraKernel), r.GPUOverhead, r.CPUOverhead)
	}
	return tbl.String()
}
