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

// ResourcePressurePoint is one row of the resource-pressure ablation:
// Allreduce latency per backend with the trigger list capped at a fraction
// of the GPU-TN working set, plus the backpressure work GPU-TN performed
// to fit (registration rejects absorbed by the pressure-aware host path).
type ResourcePressurePoint struct {
	Fraction float64
	Capacity int
	Latency  map[backends.Kind]sim.Time
	// Rejects counts trigger-list registration rejects across all nodes
	// (each one stalled the GPU-TN host until a slot freed).
	Rejects int64
	// HighWater is the peak simultaneously active trigger entries observed
	// across nodes in the GPU-TN run.
	HighWater int64
	// Dropped counts trigger writes lost to list exhaustion (placeholders
	// that could not be allocated).
	Dropped int64
}

// AblationResourcePressure measures how each backend degrades as the
// trigger list shrinks below the GPU-TN working set. HDN and GDS never
// touch the trigger list, so their latency is flat; GPU-TN's host
// registration path serializes against fires once capacity < working set,
// trading latency for fit — the degrade-gracefully behavior the bounded
// resource model exists to provide.
func AblationResourcePressure(cfg config.SystemConfig, fractions []float64) []ResourcePressurePoint {
	const nodes = 4
	const totalBytes = 256 << 10
	kinds := []backends.Kind{backends.HDN, backends.GDS, backends.GPUTN}
	ws := collective.GPUTNWorkingSet(nodes)

	capOf := func(f float64) int {
		entries := int(f * float64(ws))
		if entries < 1 {
			entries = 1
		}
		return entries
	}
	type cell struct {
		latency          sim.Time
		rejects, dropped int64
		highWater        int64
	}
	cells := parallelMap(len(fractions)*len(kinds), func(idx int) cell {
		entries := capOf(fractions[idx/len(kinds)])
		k := kinds[idx%len(kinds)]
		c := cfg
		c.NIC.Resources.TriggerEntries = entries
		cl := node.NewCluster(c, nodes)
		res, err := collective.Run(cl, collective.Config{Kind: k, TotalBytes: totalBytes})
		if err != nil {
			panic(fmt.Sprintf("bench: resource ablation %v cap=%d: %v", k, entries, err))
		}
		out := cell{latency: res.Duration}
		if k == backends.GPUTN {
			for _, nd := range cl.Nodes {
				s := nd.NIC.Stats()
				out.rejects += s.RegistrationRejects
				out.dropped += s.DroppedTriggers
				if s.TriggerListHighWater > out.highWater {
					out.highWater = s.TriggerListHighWater
				}
			}
		}
		return out
	})
	var out []ResourcePressurePoint
	for fi, f := range fractions {
		pt := ResourcePressurePoint{
			Fraction: f,
			Capacity: capOf(f),
			Latency:  map[backends.Kind]sim.Time{},
		}
		for ki, k := range kinds {
			c := cells[fi*len(kinds)+ki]
			pt.Latency[k] = c.latency
			pt.Rejects += c.rejects
			pt.Dropped += c.dropped
			if c.highWater > pt.HighWater {
				pt.HighWater = c.highWater
			}
		}
		out = append(out, pt)
	}
	return out
}

// RenderResourcePressure renders the resource-pressure ablation: latency
// per backend (and slowdown vs the uncapped working set) as trigger-list
// capacity shrinks to a quarter of what GPU-TN wants.
func RenderResourcePressure(cfg config.SystemConfig) string {
	fractions := []float64{1.0, 0.75, 0.5, 0.25}
	pts := AblationResourcePressure(cfg, fractions)
	kinds := []backends.Kind{backends.HDN, backends.GDS, backends.GPUTN}
	ws := collective.GPUTNWorkingSet(4)

	var b strings.Builder
	fmt.Fprintf(&b, "Resource pressure: 4-node 256KB Allreduce vs trigger-list capacity (working set %d entries)\n", ws)
	fmt.Fprintf(&b, "%-14s", "capacity")
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %14s", k)
	}
	fmt.Fprintf(&b, "  %8s  %6s\n", "rejects", "highW")
	base := pts[0]
	for _, pt := range pts {
		fmt.Fprintf(&b, "%-14s", fmt.Sprintf("%d (%.0f%%)", pt.Capacity, 100*pt.Fraction))
		for _, k := range kinds {
			lat := pt.Latency[k]
			slow := float64(lat) / float64(base.Latency[k])
			fmt.Fprintf(&b, "  %9.1fus %+3.0f%%", float64(lat)/float64(sim.Microsecond), 100*(slow-1))
		}
		fmt.Fprintf(&b, "  %8d  %6d\n", pt.Rejects, pt.HighWater)
	}
	return b.String()
}
