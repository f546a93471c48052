// Package bench is the experiment harness: one entry point per table and
// figure of the paper's evaluation (§5), each regenerating the same rows or
// series the paper reports, plus ablation studies for the design choices
// called out in DESIGN.md.
package bench

import (
	"fmt"
	"strings"

	"repro/internal/backends"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/nic"
	"repro/internal/node"
	"repro/internal/portals"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Span labels used in the Figure 8 decomposition.
const (
	SpanLaunch   = "Kernel Launch"
	SpanExec     = "Kernel Execution"
	SpanTeardown = "Kernel Teardown"
	SpanPut      = "Put"
	SpanWait     = "Wait"
)

// microMatchBits addresses the microbenchmark landing region.
const microMatchBits = 0x1

// microCopyTime is the vector-copy work of the microbenchmark kernel: one
// cache line copied, dominated by a round trip to the GPU L2 plus issue
// overhead (§5.2: "a simple vector copy operation of a single cache line").
const microCopyTime = 430 * sim.Nanosecond

// Fig8Run is the measured timeline of one backend in the microbenchmark.
type Fig8Run struct {
	Kind backends.Kind
	// Tracer holds the initiator/target span decomposition.
	Tracer *trace.Tracer
	// TargetComplete is when the payload landed at the target — the
	// figure's end-to-end latency — measured from kernel-launch start
	// (pre-posting work happens off the measured path, as in the paper).
	TargetComplete sim.Time
	// InitiatorDone is when the initiator finished all work (kernel
	// teardown plus, for HDN, the host send), from kernel-launch start.
	InitiatorDone sim.Time

	// launchStart is the measurement origin.
	launchStart sim.Time
}

// Fig8Result aggregates the three compared backends.
type Fig8Result struct {
	Runs map[backends.Kind]*Fig8Run
}

// SpeedupVs returns target-completion speedup of GPU-TN over the baseline.
func (r *Fig8Result) SpeedupVs(base backends.Kind) float64 {
	return float64(r.Runs[base].TargetComplete) / float64(r.Runs[backends.GPUTN].TargetComplete)
}

// Figure8 runs the latency-decomposition microbenchmark (§5.2): a kernel
// on the initiator copies one cache line and sends 64 B to the target,
// under HDN, GDS, and GPU-TN.
func Figure8(cfg config.SystemConfig) *Fig8Result {
	kinds := []backends.Kind{backends.HDN, backends.GDS, backends.GPUTN}
	runs := parallelMap(len(kinds), func(i int) *Fig8Run { return figure8Run(cfg, kinds[i]) })
	res := &Fig8Result{Runs: map[backends.Kind]*Fig8Run{}}
	for i, kind := range kinds {
		res.Runs[kind] = runs[i]
	}
	return res
}

// Figure8Extended additionally measures the GPU Host Networking and GPU
// Native Networking models, making the paper's qualitative §5.1.1
// comparison quantitative.
func Figure8Extended(cfg config.SystemConfig) *Fig8Result {
	kinds := []backends.Kind{backends.HDN, backends.GDS, backends.GPUTN, backends.GHN, backends.GNN}
	runs := parallelMap(len(kinds), func(i int) *Fig8Run { return figure8Run(cfg, kinds[i]) })
	res := &Fig8Result{Runs: map[backends.Kind]*Fig8Run{}}
	for i, kind := range kinds {
		res.Runs[kind] = runs[i]
	}
	return res
}

// RenderFigure8Extended summarizes the five-way comparison.
func RenderFigure8Extended(r *Fig8Result) string {
	var b strings.Builder
	b.WriteString("Figure 8 extended (§5.1.1 made quantitative): end-to-end latency (us)\n")
	for _, kind := range []backends.Kind{backends.GPUTN, backends.GHN, backends.GNN, backends.GDS, backends.HDN} {
		run := r.Runs[kind]
		if run == nil {
			continue
		}
		note := ""
		switch kind {
		case backends.GHN:
			note = "  (burns one CPU core on the helper thread)"
		case backends.GNN:
			note = "  (no CPU at all; GPU builds the packet)"
		}
		fmt.Fprintf(&b, "%-7s target complete = %.2f%s\n", kind, run.TargetComplete.Us(), note)
	}
	return b.String()
}

func figure8Run(cfg config.SystemConfig, kind backends.Kind) *Fig8Run {
	// The microbenchmark's instrumentation couples the two nodes outside
	// the fabric: the driver and the HDN/GDS initiators wait directly on
	// the target's counting event. Direct remote-state reads can't split
	// across engines, so this timeline always measures on one engine
	// regardless of -shards (output stays shard-count invariant).
	cfg.Shards = 0
	c := node.NewCluster(cfg, 2)
	tr := trace.New(c.Eng)
	run := &Fig8Run{Kind: kind, Tracer: tr}

	n0, n1 := c.Nodes[0], c.Nodes[1]
	recvCT := n1.Ptl.CTAlloc()
	n1.Ptl.MEAppend(&portals.ME{MatchBits: microMatchBits, Length: 64, CT: recvCT})

	// Target: poll for the put (the "Wait" bar of the figure).
	c.Eng.Go("target", func(p *sim.Proc) {
		tr.Begin("target", SpanWait)
		recvCT.Wait(p, 1)
		tr.End("target", SpanWait)
		run.TargetComplete = p.Now()
	})

	markLaunch := func() {
		run.launchStart = c.Eng.Now()
		tr.Begin("initiator", SpanLaunch)
	}

	// Initiator kernel: spans are recorded around the GPU phases. The
	// launch/teardown spans bracket the body via the front-end timings.
	makeKernel := func(name string, body func(wg *gpu.WGCtx)) *gpu.Kernel {
		k := &gpu.Kernel{
			Name:       name,
			WorkGroups: 1,
			Body: func(wg *gpu.WGCtx) {
				tr.End("initiator", SpanLaunch)
				tr.Begin("initiator", SpanExec)
				body(wg)
				// The tracer reads the engine clock: bring it up to the
				// work-group's time before closing the execution span.
				wg.Sync()
				tr.End("initiator", SpanExec)
				tr.Begin("initiator", SpanTeardown)
			},
			OnComplete: func() {
				tr.End("initiator", SpanTeardown)
			},
		}
		return k
	}

	c.Eng.Go("initiator", func(p *sim.Proc) {
		md := n0.Ptl.MDBind("buf", 64, nil, nil)
		switch kind {
		case backends.HDN:
			markLaunch()
			n0.GPU.LaunchSync(p, makeKernel("hdn.copy", func(wg *gpu.WGCtx) {
				wg.Compute(microCopyTime)
			}))
			tr.Begin("initiator", SpanPut)
			backends.HostSend(p, n0, md, 64, 1, microMatchBits)
			recvCT.Wait(p, 1)
			tr.End("initiator", SpanPut)

		case backends.GDS:
			// Host pre-posts, the stream rings the doorbell after the
			// kernel completes.
			ring := backends.PrePost(p, n0, md, 64, 1, microMatchBits)
			stream := n0.GPU.NewStream("gds.micro")
			markLaunch()
			stream.EnqueueKernel(makeKernel("gds.copy", func(wg *gpu.WGCtx) {
				wg.Compute(microCopyTime)
			}))
			stream.EnqueueDoorbell(func() {
				tr.Begin("initiator", SpanPut)
				ring()
			})
			stream.EnqueueWait(recvCT.Raw(), 1)
			stream.Sync(p)
			tr.End("initiator", SpanPut)

		case backends.GPUTN:
			host := core.NewHost(c.Eng, n0.Ptl, n0.GPU)
			if err := host.TrigPut(p, 1, 1, md, 64, 1, microMatchBits); err != nil {
				panic(err)
			}
			trig := host.GetTriggerAddr()
			markLaunch()
			host.LaunchKernSync(p, makeKernel("gputn.copy", func(wg *gpu.WGCtx) {
				wg.Compute(microCopyTime)
				// Intra-kernel initiation: fence + tag store (§4.2.6).
				core.TriggerKernel(wg, trig, 1)
			}))

		case backends.GHN:
			// Extended comparison (§5.1.1): intra-kernel handoff to a
			// dedicated CPU helper thread.
			helper := backends.NewHelperThread(n0)
			cmd := &nic.Command{Kind: nic.OpPut, Target: 1, MatchBits: microMatchBits, Size: 64}
			markLaunch()
			n0.GPU.LaunchSync(p, makeKernel("ghn.copy", func(wg *gpu.WGCtx) {
				wg.Compute(microCopyTime)
				helper.HandoffFromGPU(wg, cmd, 64)
			}))

		case backends.GNN:
			// Extended comparison (§5.1.1): the kernel constructs the
			// network command itself and rings the doorbell.
			cmd := &nic.Command{Kind: nic.OpPut, Target: 1, MatchBits: microMatchBits, Size: 64}
			markLaunch()
			n0.GPU.LaunchSync(p, makeKernel("gnn.copy", func(wg *gpu.WGCtx) {
				wg.Compute(microCopyTime)
				backends.GPUNativeSend(wg, n0, cmd)
			}))

		default:
			panic(fmt.Sprintf("bench: figure8 does not evaluate %v", kind))
		}
		run.InitiatorDone = p.Now()
	})

	c.Run()
	if run.TargetComplete == 0 {
		panic("bench: figure8 target never completed")
	}
	run.TargetComplete -= run.launchStart
	run.InitiatorDone -= run.launchStart
	return run
}

// RenderFigure8 formats the decomposition like the paper's stacked bars.
func RenderFigure8(r *Fig8Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: microbenchmark latency decomposition (us)\n")
	for _, kind := range []backends.Kind{backends.GPUTN, backends.GDS, backends.HDN} {
		run := r.Runs[kind]
		fmt.Fprintf(&b, "%-7s initiator:", kind)
		for _, s := range run.Tracer.ByActor("initiator") {
			fmt.Fprintf(&b, "  %s=%.2f", s.Label, s.Duration().Us())
		}
		fmt.Fprintf(&b, "  (done %.2f)\n", run.InitiatorDone.Us())
		fmt.Fprintf(&b, "%-7s target:    complete=%.2f\n", kind, run.TargetComplete.Us())
	}
	fmt.Fprintf(&b, "GPU-TN latency reduction vs HDN: %.0f%% (paper ~35%%)  vs GDS: %.0f%% (paper ~25%%)\n",
		(1-1/r.SpeedupVs(backends.HDN))*100, (1-1/r.SpeedupVs(backends.GDS))*100)
	return b.String()
}

// RenderFigure8Bars renders the decomposition as stacked horizontal bars,
// the terminal analogue of the paper's figure.
func RenderFigure8Bars(r *Fig8Result) string {
	var bars []stats.HBar
	for _, kind := range []backends.Kind{backends.GPUTN, backends.GDS, backends.HDN} {
		run := r.Runs[kind]
		bar := stats.HBar{Name: kind.String()}
		for _, s := range run.Tracer.ByActor("initiator") {
			bar.Segments = append(bar.Segments, stats.HBarSegment{Label: s.Label, Value: s.Duration().Us()})
		}
		bars = append(bars, bar)
		bars = append(bars, stats.HBar{
			Name:     " target",
			Segments: []stats.HBarSegment{{Label: "Wait", Value: run.TargetComplete.Us()}},
		})
	}
	return stats.RenderHBars(bars, 64, "us")
}
