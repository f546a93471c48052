package bench

import (
	"strings"
	"testing"

	"repro/internal/backends"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads/jacobi"
)

func TestFigure1Shape(t *testing.T) {
	series := Figure1(config.Default())
	if len(series) != 3 {
		t.Fatalf("want 3 GPUs, got %d", len(series))
	}
	for _, s := range series {
		if len(s.Points) != len(Fig1Depths) {
			t.Fatalf("%s has %d points", s.Name, len(s.Points))
		}
		// Paper: 3us-20us across the sweep.
		if s.MinY() < 2.9 || s.MaxY() > 20.1 {
			t.Errorf("%s outside paper range: [%v, %v]", s.Name, s.MinY(), s.MaxY())
		}
	}
	// GPU 1 amortizes strongly: latency at depth 256 < depth 1.
	g1 := series[0]
	y1, _ := g1.YAt(1)
	y256, _ := g1.YAt(256)
	if y256 >= y1 {
		t.Errorf("GPU 1 should amortize: %v -> %v", y1, y256)
	}
	// Even the best case stays >= ~3us.
	for _, s := range series {
		if s.MinY() < 2.9 {
			t.Errorf("%s best case %v below 3us floor", s.Name, s.MinY())
		}
	}
}

func TestFigure8HeadlineNumbers(t *testing.T) {
	r := Figure8(config.Default())
	// Paper §5.2: ~25% over GDS, ~35% over HDN (we accept 15-50%).
	vsHDN := r.SpeedupVs(backends.HDN)
	vsGDS := r.SpeedupVs(backends.GDS)
	if vsHDN < 1.3 || vsHDN > 1.85 {
		t.Errorf("speedup vs HDN = %.3f, want ~1.5-1.7 (paper: 35%% improvement)", vsHDN)
	}
	if vsGDS < 1.2 || vsGDS > 1.7 {
		t.Errorf("speedup vs GDS = %.3f, want ~1.3-1.6 (paper: 25%% improvement)", vsGDS)
	}
	if vsHDN <= vsGDS {
		t.Errorf("HDN should be the slower baseline (%.3f vs %.3f)", vsHDN, vsGDS)
	}
}

func TestFigure8IntraKernelSignature(t *testing.T) {
	r := Figure8(config.Default())
	tn := r.Runs[backends.GPUTN]
	// The target receives the data before the initiator kernel completes —
	// the defining signature of intra-kernel networking (§5.2).
	if tn.TargetComplete >= tn.InitiatorDone {
		t.Errorf("GPU-TN target (%v) should complete before initiator (%v)",
			tn.TargetComplete, tn.InitiatorDone)
	}
	// Kernel-boundary backends cannot do that.
	for _, k := range []backends.Kind{backends.HDN, backends.GDS} {
		run := r.Runs[k]
		if run.TargetComplete < run.InitiatorDone-500*sim.Nanosecond {
			t.Errorf("%s target completed long before initiator — not kernel-boundary", k)
		}
	}
}

func TestFigure8Decomposition(t *testing.T) {
	r := Figure8(config.Default())
	cfg := config.Default()
	for _, k := range []backends.Kind{backends.HDN, backends.GDS, backends.GPUTN} {
		run := r.Runs[k]
		totals := run.Tracer.TotalByLabel()["initiator"]
		if totals[SpanLaunch] != cfg.GPU.KernelLaunch {
			t.Errorf("%s launch span = %v", k, totals[SpanLaunch])
		}
		if totals[SpanTeardown] != cfg.GPU.KernelTeardown {
			t.Errorf("%s teardown span = %v", k, totals[SpanTeardown])
		}
		if totals[SpanExec] < microCopyTime {
			t.Errorf("%s exec span = %v < copy time", k, totals[SpanExec])
		}
		if run.Tracer.OpenCount() != 0 {
			t.Errorf("%s has unclosed spans", k)
		}
	}
	// GPU-TN kernel takes slightly longer than GDS's (trigger in-kernel).
	tnExec := r.Runs[backends.GPUTN].Tracer.TotalByLabel()["initiator"][SpanExec]
	gdsExec := r.Runs[backends.GDS].Tracer.TotalByLabel()["initiator"][SpanExec]
	if tnExec <= gdsExec {
		t.Errorf("GPU-TN exec (%v) should exceed GDS exec (%v)", tnExec, gdsExec)
	}
}

func TestFigure8ExtendedOrdering(t *testing.T) {
	// The §5.1.1 qualitative argument made quantitative: GPU-TN beats
	// both intra-kernel alternatives, which in turn beat the
	// kernel-boundary approaches.
	r := Figure8Extended(config.Default())
	at := func(k backends.Kind) sim.Time { return r.Runs[k].TargetComplete }
	if !(at(backends.GPUTN) < at(backends.GHN) && at(backends.GPUTN) < at(backends.GNN)) {
		t.Errorf("GPU-TN (%v) should beat GHN (%v) and GNN (%v)",
			at(backends.GPUTN), at(backends.GHN), at(backends.GNN))
	}
	if !(at(backends.GHN) < at(backends.GDS) && at(backends.GNN) < at(backends.GDS)) {
		t.Errorf("intra-kernel GHN (%v) / GNN (%v) should beat kernel-boundary GDS (%v)",
			at(backends.GHN), at(backends.GNN), at(backends.GDS))
	}
	out := RenderFigure8Extended(r)
	for _, want := range []string{"GHN", "GNN", "helper thread"} {
		if !strings.Contains(out, want) {
			t.Errorf("extended render missing %q", want)
		}
	}
}

func TestRenderFigure8(t *testing.T) {
	out := RenderFigure8(Figure8(config.Default()))
	for _, want := range []string{"GPU-TN", "GDS", "HDN", "latency reduction"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFigure9Claims(t *testing.T) {
	series := Figure9(config.Default())
	byName := map[string]*seriesT{}
	for _, s := range series {
		byName[s.Name] = &seriesT{s.Points}
	}
	tn := byName["GPU-TN"]
	gds := byName["GDS"]
	cpu := byName["CPU"]
	// Mid-size grids: GPU-TN > GDS > 1 (both beat HDN).
	for _, n := range []float64{64, 128, 256} {
		if tn.at(n) <= gds.at(n) {
			t.Errorf("N=%v: GPU-TN (%.3f) <= GDS (%.3f)", n, tn.at(n), gds.at(n))
		}
		if gds.at(n) <= 1 {
			t.Errorf("N=%v: GDS (%.3f) <= HDN", n, gds.at(n))
		}
	}
	// CPU wins at tiny grids, loses at large grids.
	if cpu.at(16) <= 1 {
		t.Errorf("CPU at N=16 = %.3f, should beat HDN", cpu.at(16))
	}
	if cpu.at(1024) >= 1 {
		t.Errorf("CPU at N=1024 = %.3f, should lose to HDN", cpu.at(1024))
	}
	// Benefits fade at large grids (compute dominates).
	if tn.at(1024) >= tn.at(128) {
		t.Errorf("GPU-TN advantage should shrink with grid size: %.3f -> %.3f", tn.at(128), tn.at(1024))
	}
}

type seriesT struct{ pts []stats.Point }

func (s *seriesT) at(x float64) float64 {
	for _, p := range s.pts {
		if p.X == x {
			return p.Y
		}
	}
	return -1
}

func TestJacobiWeakScalingStaysFlat(t *testing.T) {
	// §5.3: weak scaling "would stay at the same point" — the per-node
	// communication pattern is unchanged, so GPU-TN's speedup over HDN on
	// the same local grid barely moves as the node mesh grows.
	res := map[int]float64{}
	for _, m := range [][2]int{{2, 2}, {2, 4}, {4, 4}} {
		var dur [2]sim.Time
		for i, kind := range []backends.Kind{backends.HDN, backends.GPUTN} {
			c := node.NewCluster(config.Default(), m[0]*m[1])
			r, err := jacobi.Run(c, jacobi.Params{Kind: kind, N: 128, PX: m[0], PY: m[1], Iters: Fig9Iters})
			if err != nil {
				t.Fatalf("%s %dx%d: %v", kind, m[0], m[1], err)
			}
			dur[i] = r.Duration
		}
		res[m[0]*m[1]] = float64(dur[0]) / float64(dur[1])
	}
	base := res[4]
	for nodes, sp := range res {
		if sp <= 1 {
			t.Errorf("%d nodes: GPU-TN speedup %v <= 1", nodes, sp)
		}
		if ratio := sp / base; ratio < 0.75 || ratio > 1.35 {
			t.Errorf("weak scaling not flat: %d nodes %.3f vs 4 nodes %.3f", nodes, sp, base)
		}
	}
}

func TestFigure10Claims(t *testing.T) {
	series := Figure10(config.Default())
	byName := map[string]*seriesT{}
	for _, s := range series {
		byName[s.Name] = &seriesT{s.Points}
	}
	hdn, gds, tn := byName["HDN"], byName["GDS"], byName["GPU-TN"]
	// Small node counts: all GPU backends beat the CPU clearly (~1.4x).
	for _, name := range []string{"HDN", "GDS", "GPU-TN"} {
		if byName[name].at(2) < 1.2 {
			t.Errorf("%s at 2 nodes = %.3f, should clearly beat CPU", name, byName[name].at(2))
		}
	}
	// Strong scaling: HDN decays to or below the CPU baseline by 32 nodes
	// while GPU-TN stays clearly above 1.
	if hdn.at(32) >= 1.005 {
		t.Errorf("HDN at 32 nodes = %.3f, should have decayed to the CPU baseline", hdn.at(32))
	}
	if hdn.at(2) <= hdn.at(32) {
		t.Error("HDN speedup should decay under strong scaling")
	}
	if tn.at(32) <= 1.01 {
		t.Errorf("GPU-TN at 32 nodes = %.3f, paper keeps it above 1", tn.at(32))
	}
	// Ordering at scale.
	if !(tn.at(32) > gds.at(32) && gds.at(32) > hdn.at(32)) {
		t.Errorf("ordering at 32 nodes: TN=%.3f GDS=%.3f HDN=%.3f",
			tn.at(32), gds.at(32), hdn.at(32))
	}
}

func TestFigure11AndRenders(t *testing.T) {
	results, err := Figure11(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("results = %d", len(results))
	}
	out := RenderFigure11(results)
	for _, w := range []string{"AlexNet", "AN4 LSTM", "CIFAR", "GPU-TN"} {
		if !strings.Contains(out, w) {
			t.Errorf("figure 11 render missing %q", w)
		}
	}
	if !strings.Contains(RenderTable3(), "939820") {
		t.Error("table 3 render missing CIFAR reductions")
	}
	if !strings.Contains(RenderTable2(config.Default()), "24 CUs") {
		t.Error("table 2 render missing GPU block")
	}
	if !strings.Contains(RenderTable1(), "GPU Triggered Networking (GPU-TN)") {
		t.Error("table 1 render missing GPU-TN row")
	}
}

func TestAblationRelaxedSync(t *testing.T) {
	relaxed, strict := AblationRelaxedSync(config.Default(), 2*sim.Microsecond)
	if relaxed >= strict {
		t.Fatalf("overlap (%v) should beat strict ordering (%v)", relaxed, strict)
	}
	// The saving should be roughly the post delay (it fully overlaps with
	// the 1.5us launch + copy, so at least 1us of the 2us must vanish).
	if strict-relaxed < sim.Microsecond {
		t.Errorf("overlap saved only %v", strict-relaxed)
	}
}

func TestAblationGranularity(t *testing.T) {
	res := AblationGranularity(config.Default(), 8, 64)
	// Work-item triggering issues 64x more system-scope stores.
	if res[core.WorkItem] <= res[core.WorkGroup] {
		t.Errorf("work-item (%v) should cost more than work-group (%v)",
			res[core.WorkItem], res[core.WorkGroup])
	}
	// Kernel-level sends one message; never slower than work-group's 8.
	if res[core.KernelLevel] > res[core.WorkGroup] {
		t.Errorf("kernel-level (%v) slower than work-group (%v)",
			res[core.KernelLevel], res[core.WorkGroup])
	}
	for g, d := range res {
		if d <= 0 {
			t.Errorf("%v: non-positive duration", g)
		}
	}
}

func TestAblationTriggerLookup(t *testing.T) {
	res := AblationTriggerLookup(config.Default(), 1024)
	if res["associative"] >= res["linked-list"] {
		t.Errorf("associative (%v) should beat linked-list (%v) under a trigger burst",
			res["associative"], res["linked-list"])
	}
	if res["hash"] >= res["linked-list"] {
		t.Errorf("hash (%v) should beat linked-list (%v)", res["hash"], res["linked-list"])
	}
}

func TestAblationKernelOverhead(t *testing.T) {
	res := AblationKernelOverhead(config.Default(), []float64{1, 4})
	// GPU-TN's advantage over both baselines grows with kernel overhead.
	if res[4][0] <= res[1][0] {
		t.Errorf("vs HDN: x4 (%v) should exceed x1 (%v)", res[4][0], res[1][0])
	}
	if res[4][1] <= res[1][1] {
		t.Errorf("vs GDS: x4 (%v) should exceed x1 (%v)", res[4][1], res[1][1])
	}
}

func TestAblationDiscreteGPU(t *testing.T) {
	apu, disc := AblationDiscreteGPU(config.Default(), 500*sim.Nanosecond)
	if disc <= apu {
		t.Fatalf("discrete (%v) should be slower than APU (%v)", disc, apu)
	}
}

func TestAblationJacobiKernelCost(t *testing.T) {
	res := AblationJacobiKernelCost(config.Default(), []float64{1, 4})
	if res[4] <= res[1] {
		t.Fatalf("GPU-TN/GDS advantage should grow with kernel cost: x1=%.3f x4=%.3f", res[1], res[4])
	}
	if res[1] <= 1 {
		t.Fatalf("GPU-TN should beat GDS at baseline overheads: %.3f", res[1])
	}
}

func TestAblationPipelining(t *testing.T) {
	res := AblationPipelining(config.Default(), []int{8})
	plain, piped := res[8][0], res[8][1]
	if piped >= plain {
		t.Fatalf("pipelined (%v) should beat plain (%v)", piped, plain)
	}
}

func TestAblationDynamicTrigger(t *testing.T) {
	res := AblationDynamicTrigger(config.Default())
	// Each added field costs one more system-scope store end to end.
	store := config.Default().GPU.AtomicSystemStore
	for i := 1; i < 4; i++ {
		if d := res[i] - res[i-1]; d != store {
			t.Errorf("field %d added %v, want %v", i, d, store)
		}
	}
}

func TestAblationNetworkSensitivity(t *testing.T) {
	res := AblationNetworkSensitivity(config.Default(), []float64{10, 400})
	if res[400] <= res[10] {
		t.Fatalf("GPU-TN advantage should grow with link speed: 10G=%.3f 400G=%.3f", res[10], res[400])
	}
}

func TestRenderFigure8Bars(t *testing.T) {
	out := RenderFigure8Bars(Figure8(config.Default()))
	for _, want := range []string{"GPU-TN", "HDN", "Kernel Launch", "target"} {
		if !strings.Contains(out, want) {
			t.Errorf("bars missing %q:\n%s", want, out)
		}
	}
}

// The one-pod, one-spine fat-tree reproduces the two-level tree it
// replaced exactly: same per-hop posts, same event order, same durations.
func TestAblationTopology(t *testing.T) {
	star, tree := AblationTopology(config.Default(), 8, 4)
	if star != 1981109896 || tree != 1985331336 {
		t.Fatalf("star=%d tree=%d ps, want 1981109896 and 1985331336", int64(star), int64(tree))
	}
}

func TestRenderAblationsSmoke(t *testing.T) {
	out := RenderAblations(config.Default())
	for _, want := range []string{"relaxed-sync", "granularity", "trigger lookup", "kernel overhead", "discrete GPU", "jacobi", "wg-pipelining", "dynamic trigger", "network sensitivity", "MPI rendezvous", "jacobi overlap", "topology"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation render missing %q", want)
		}
	}
}

func TestAblationMPIRendezvous(t *testing.T) {
	eager, rndv := AblationMPIRendezvous(config.Default(), 1<<20)
	if rndv <= eager {
		t.Fatalf("rendezvous (%v) should cost more than eager (%v)", rndv, eager)
	}
}
