// Package mlearn reproduces the paper's deep-learning study (§5.4.2,
// Table 3, Figure 11). The paper ran six CNTK workloads on the Stampede
// supercomputer, measured the frequency, time, and data size of their
// gradient Allreduce calls, and projected application-level speedup by
// combining those traces with simulated Allreduce latencies.
//
// We cannot rerun CNTK on Stampede, so we substitute synthetic traces that
// match Table 3's published per-workload statistics (%time blocked on
// Allreduce, reduction count) plus a calibrated average gradient-message
// size; the projection methodology is then identical to the paper's:
// synchronous training means no compute/communication overlap, so
//
//	speedup(B) = T_HDN / (T_compute + N_red · t_B)
//	           = 1 / (1 - f + f · t_B / t_HDN)
//
// where f is the blocked fraction under HDN and t_B the simulated
// Allreduce time of backend B at the workload's message size.
package mlearn

import (
	"fmt"
	"math/rand"

	"repro/internal/backends"
	"repro/internal/collective"
	"repro/internal/config"
	"repro/internal/node"
	"repro/internal/sim"
)

// Workload is one row of Table 3 plus the calibrated mean Allreduce
// payload used for projection.
type Workload struct {
	Name   string
	Domain string
	// PctBlocked is the fraction of total (HDN) runtime spent blocked on
	// Allreduce, from Table 3.
	PctBlocked float64
	// Reductions is the total number of reduction calls, from Table 3.
	Reductions int64
	// AvgMsgBytes is the mean gradient-message size. The paper measured
	// these on Stampede; we calibrate per-workload values consistent with
	// the model sizes (LSTMs issue many small reductions, CNNs fewer and
	// larger ones).
	AvgMsgBytes int64
}

// Table3 returns the six workloads of Table 3.
func Table3() []Workload {
	return []Workload{
		{Name: "AlexNet", Domain: "Classification", PctBlocked: 0.14, Reductions: 4672, AvgMsgBytes: 2 << 20},
		{Name: "AN4 LSTM", Domain: "Speech", PctBlocked: 0.50, Reductions: 131192, AvgMsgBytes: 256 << 10},
		{Name: "CIFAR", Domain: "Classification", PctBlocked: 0.04, Reductions: 939820, AvgMsgBytes: 64 << 10},
		{Name: "Large Synth", Domain: "Synthetic", PctBlocked: 0.28, Reductions: 52800, AvgMsgBytes: 1 << 20},
		{Name: "MNIST Conv", Domain: "Text Recognition", PctBlocked: 0.12, Reductions: 900000, AvgMsgBytes: 1 << 20},
		{Name: "MNIST Hidden", Domain: "Text Recognition", PctBlocked: 0.29, Reductions: 900000, AvgMsgBytes: 512 << 10},
	}
}

// ReductionCall is one event of a synthetic training trace.
type ReductionCall struct {
	// ComputeBefore is the GPU compute time preceding this call.
	ComputeBefore sim.Time
	// Bytes is the gradient payload of this call.
	Bytes int64
}

// GenerateTrace builds a synthetic trace of n reduction calls whose
// aggregate statistics match the workload: total blocked fraction f under
// the given per-call HDN Allreduce time, with sizes jittered ±25% around
// the workload mean (deterministic in seed).
func GenerateTrace(w Workload, n int, hdnPerCall sim.Time, seed int64) []ReductionCall {
	if n <= 0 {
		panic("mlearn: trace length must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	// Per-call compute chosen so compute:blocked = (1-f):f.
	compute := sim.Time(float64(hdnPerCall) * (1 - w.PctBlocked) / w.PctBlocked)
	calls := make([]ReductionCall, n)
	for i := range calls {
		jitter := 0.75 + 0.5*rng.Float64()
		calls[i] = ReductionCall{
			ComputeBefore: sim.Time(float64(compute) * (0.9 + 0.2*rng.Float64())),
			Bytes:         int64(float64(w.AvgMsgBytes) * jitter),
		}
	}
	return calls
}

// AllreduceTimes simulates one Allreduce of the given payload on a fresh
// cluster per backend and returns the durations.
func AllreduceTimes(cfg config.SystemConfig, nodes int, payload int64) (map[backends.Kind]sim.Time, error) {
	out := map[backends.Kind]sim.Time{}
	for _, kind := range backends.All() {
		c := node.NewCluster(cfg, nodes)
		res, err := collective.Run(c, collective.Config{Kind: kind, TotalBytes: payload})
		if err != nil {
			return nil, fmt.Errorf("mlearn: %s allreduce: %w", kind, err)
		}
		out[kind] = res.Duration
	}
	return out, nil
}

// Project computes each backend's application-level speedup relative to
// HDN for a workload, given per-backend Allreduce times at the workload's
// message size (the paper's synchronous-SGD projection).
func Project(w Workload, times map[backends.Kind]sim.Time) map[backends.Kind]float64 {
	f := w.PctBlocked
	tHDN := float64(times[backends.HDN])
	out := map[backends.Kind]float64{}
	for kind, tB := range times {
		out[kind] = 1 / (1 - f + f*float64(tB)/tHDN)
	}
	return out
}

// StudyResult is Figure 11's data: per-workload, per-backend speedup
// relative to HDN on a fixed-size cluster.
type StudyResult struct {
	Workload Workload
	Times    map[backends.Kind]sim.Time
	Speedup  map[backends.Kind]float64
}

// RunStudy reproduces Figure 11: for every Table 3 workload, simulate one
// Allreduce per backend at the workload's message size on a cluster of the
// given node count (8 in the paper) and project application speedups.
func RunStudy(cfg config.SystemConfig, nodes int) ([]StudyResult, error) {
	var out []StudyResult
	for _, w := range Table3() {
		times, err := AllreduceTimes(cfg, nodes, w.AvgMsgBytes)
		if err != nil {
			return nil, fmt.Errorf("mlearn: %s: %w", w.Name, err)
		}
		out = append(out, StudyResult{
			Workload: w,
			Times:    times,
			Speedup:  Project(w, times),
		})
	}
	return out, nil
}

// SweepNodes extends the Figure 11 study across cluster sizes: for one
// workload it returns the projected GPU-TN speedup over HDN at each node
// count. Strong scaling shrinks per-round chunks, so the kernel-boundary
// overheads GPU-TN removes weigh more — gains grow with node count.
func SweepNodes(cfg config.SystemConfig, w Workload, nodeCounts []int) (map[int]float64, error) {
	out := map[int]float64{}
	for _, n := range nodeCounts {
		times, err := AllreduceTimes(cfg, n, w.AvgMsgBytes)
		if err != nil {
			return nil, fmt.Errorf("mlearn: %s at %d nodes: %w", w.Name, n, err)
		}
		out[n] = Project(w, times)[backends.GPUTN]
	}
	return out, nil
}
