package bench

import (
	"fmt"
	"strings"

	"repro/internal/backends"
	"repro/internal/collective"
	"repro/internal/config"
	"repro/internal/node"
	"repro/internal/sim"
)

// faultAblationSeed fixes the fault schedule of the ablation so the table
// is reproducible run to run.
const faultAblationSeed = 42

// FaultTolerancePoint is one row of the fault-tolerance ablation: Allreduce
// latency per backend at one packet-drop rate, with the recovery work the
// reliability layer performed to get there.
type FaultTolerancePoint struct {
	DropProb    float64
	Latency     map[backends.Kind]sim.Time
	Retransmits map[backends.Kind]int64
}

// AblationFaultTolerance measures how each backend's Allreduce latency
// degrades as the fabric loses packets, with the NIC reliability layer
// recovering every loss. GPU-TN's recovery is NIC-local (retransmit from
// the staged descriptor), so its degradation tracks the extra wire time
// only; the host-driven backends additionally re-expose their host
// latency on every recovery round trip.
func AblationFaultTolerance(cfg config.SystemConfig, dropRates []float64) []FaultTolerancePoint {
	const nodes = 4
	const totalBytes = 256 << 10
	kinds := []backends.Kind{backends.HDN, backends.GDS, backends.GPUTN}

	type cell struct {
		latency sim.Time
		retx    int64
	}
	cells := parallelMap(len(dropRates)*len(kinds), func(idx int) cell {
		rate := dropRates[idx/len(kinds)]
		k := kinds[idx%len(kinds)]
		c := cfg
		c.Faults = config.FaultConfig{Seed: faultAblationSeed, DropProb: rate}
		if rate > 0 {
			c.NIC.Reliability = config.DefaultReliability()
		}
		cl := node.NewCluster(c, nodes)
		res, err := collective.Run(cl, collective.Config{Kind: k, TotalBytes: totalBytes})
		if err != nil {
			panic(fmt.Sprintf("bench: fault ablation %v drop=%.2f: %v", k, rate, err))
		}
		var retx int64
		for _, nd := range cl.Nodes {
			retx += nd.NIC.Stats().Retransmits
		}
		return cell{latency: res.Duration, retx: retx}
	})
	var out []FaultTolerancePoint
	for ri, rate := range dropRates {
		pt := FaultTolerancePoint{
			DropProb:    rate,
			Latency:     map[backends.Kind]sim.Time{},
			Retransmits: map[backends.Kind]int64{},
		}
		for ki, k := range kinds {
			pt.Latency[k] = cells[ri*len(kinds)+ki].latency
			pt.Retransmits[k] = cells[ri*len(kinds)+ki].retx
		}
		out = append(out, pt)
	}
	return out
}

// RenderFaultTolerance renders the fault-tolerance ablation as a table of
// Allreduce latency (and slowdown vs lossless) across drop rates.
func RenderFaultTolerance(cfg config.SystemConfig) string {
	rates := []float64{0, 0.01, 0.02, 0.05, 0.10}
	pts := AblationFaultTolerance(cfg, rates)
	kinds := []backends.Kind{backends.HDN, backends.GDS, backends.GPUTN}

	var b strings.Builder
	fmt.Fprintf(&b, "Fault tolerance: 4-node 256KB Allreduce under packet loss (seed %d, reliable delivery on)\n", faultAblationSeed)
	fmt.Fprintf(&b, "%-8s", "drop")
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %14s", k)
	}
	fmt.Fprintf(&b, "  %8s\n", "retx")
	base := pts[0]
	for _, pt := range pts {
		fmt.Fprintf(&b, "%-8s", fmt.Sprintf("%.0f%%", 100*pt.DropProb))
		for _, k := range kinds {
			lat := pt.Latency[k]
			slow := float64(lat) / float64(base.Latency[k])
			fmt.Fprintf(&b, "  %9.1fus %+3.0f%%", float64(lat)/float64(sim.Microsecond), 100*(slow-1))
		}
		var retx int64
		for _, k := range kinds {
			retx += pt.Retransmits[k]
		}
		fmt.Fprintf(&b, "  %8d\n", retx)
	}
	return b.String()
}
