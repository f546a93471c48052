// Partition and link-degradation schedules: the gray-failure half of the
// fault model. A PartitionPlan answers "is this directed (src,dst) pair
// blackholed at time t" from a precomputed side map — no RNG, no events —
// and a degradeState answers "is this packet inside a degradation window,
// and if so how slow and how lossy". Both are consulted from the single
// per-packet fault point both fabrics share, so the fat-tree honors them
// without any new processes.
package fault

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/config"
	"repro/internal/sim"
)

// partitionEvent is one compiled cut: the config event plus O(1) side
// lookup maps. B empty in the config means "complement of A", resolved
// lazily: a node absent from aSet is on side B.
type partitionEvent struct {
	cfg  config.PartitionEvent
	aSet map[int]bool
	bSet map[int]bool // nil when B is the complement of A
}

// active reports whether the cut is in force at time now.
func (ev *partitionEvent) active(now sim.Time) bool {
	if now < ev.cfg.At {
		return false
	}
	return ev.cfg.HealAfter == 0 || now < ev.cfg.At+ev.cfg.HealAfter
}

// sideA and sideB classify a node. With an explicit B, nodes on neither
// side are unaffected by the cut.
func (ev *partitionEvent) sideA(n int) bool { return ev.aSet[n] }
func (ev *partitionEvent) sideB(n int) bool {
	if ev.bSet == nil {
		return !ev.aSet[n]
	}
	return ev.bSet[n]
}

// PartitionPlan is the compiled deterministic partition schedule. A nil
// plan is a valid no-op receiver, mirroring CrashPlan and Injector.
type PartitionPlan struct {
	events []partitionEvent
}

// NewPartitionPlan compiles a partition schedule; it returns nil when the
// configuration schedules nothing, keeping the fault-free paths free.
func NewPartitionPlan(cfg config.PartitionConfig) *PartitionPlan {
	if !cfg.Enabled() {
		return nil
	}
	p := &PartitionPlan{}
	for _, ev := range cfg.Events {
		ce := partitionEvent{cfg: ev, aSet: map[int]bool{}}
		for _, n := range ev.A {
			ce.aSet[n] = true
		}
		if len(ev.B) > 0 {
			ce.bSet = map[int]bool{}
			for _, n := range ev.B {
				ce.bSet[n] = true
			}
		}
		p.events = append(p.events, ce)
	}
	return p
}

// Blackholed reports whether a packet from src to dst at time now is
// absorbed by an active cut. Asymmetric cuts blackhole only A-to-B.
func (p *PartitionPlan) Blackholed(now sim.Time, src, dst int) bool {
	if p == nil {
		return false
	}
	for i := range p.events {
		ev := &p.events[i]
		if !ev.active(now) {
			continue
		}
		if ev.sideA(src) && ev.sideB(dst) {
			return true
		}
		if !ev.cfg.Asymmetric && ev.sideB(src) && ev.sideA(dst) {
			return true
		}
	}
	return false
}

// UnhealedPartition describes one cut still in force at a diagnosis time;
// the watchdog folds these into sim.HangError so a hang under a
// never-healing partition names its cause.
type UnhealedPartition struct {
	A, B       []int
	At         sim.Time
	Asymmetric bool
}

// Unhealed returns the cuts active at time now that will never heal,
// in schedule order.
func (p *PartitionPlan) Unhealed(now sim.Time) []UnhealedPartition {
	if p == nil {
		return nil
	}
	var out []UnhealedPartition
	for i := range p.events {
		ev := &p.events[i]
		if ev.cfg.HealAfter != 0 || now < ev.cfg.At {
			continue
		}
		u := UnhealedPartition{
			A:          append([]int(nil), ev.cfg.A...),
			B:          append([]int(nil), ev.cfg.B...),
			At:         ev.cfg.At,
			Asymmetric: ev.cfg.Asymmetric,
		}
		sort.Ints(u.A)
		sort.Ints(u.B)
		out = append(out, u)
	}
	return out
}

// Summary renders a one-line description of the schedule for run headers.
func (p *PartitionPlan) Summary() string {
	if p == nil {
		return "partitions: none"
	}
	var parts []string
	for i := range p.events {
		ev := &p.events[i].cfg
		heal := "never heals"
		if ev.HealAfter > 0 {
			heal = fmt.Sprintf("heals at %v", ev.At+ev.HealAfter)
		}
		shape := ""
		if ev.Asymmetric {
			shape = " asymmetric"
		}
		b := "rest"
		if len(ev.B) > 0 {
			b = fmt.Sprintf("%v", ev.B)
		}
		parts = append(parts, fmt.Sprintf("cut%s %v|%s at %v (%s)", shape, ev.A, b, ev.At, heal))
	}
	return "partitions: " + strings.Join(parts, ", ")
}

// degradeMatch reports whether window w covers a packet on the directed
// link src->dst at time now, honoring -1 wildcards.
func degradeMatch(w *config.DegradeWindow, now sim.Time, src, dst int) bool {
	if !w.Enabled() || now < w.From || now >= w.Until {
		return false
	}
	if w.Src != -1 && w.Src != src {
		return false
	}
	if w.Dst != -1 && w.Dst != dst {
		return false
	}
	return true
}

// degradeLoss returns the effective loss probability of window w at time
// now: flat LossProb, or ramped linearly from 0 to LossProb across the
// window when Ramp is set.
func degradeLoss(w *config.DegradeWindow, now sim.Time) float64 {
	if !w.Ramp {
		return w.LossProb
	}
	span := w.Until - w.From
	if span <= 0 {
		return w.LossProb
	}
	return w.LossProb * float64(now-w.From) / float64(span)
}

// degradeSummary renders the degradation schedule for run headers.
func degradeSummary(cfg config.DegradeConfig) string {
	if !cfg.Enabled() {
		return ""
	}
	var parts []string
	for i := range cfg.Windows {
		w := &cfg.Windows[i]
		if !w.Enabled() {
			continue
		}
		link := fmt.Sprintf("%s->%s", wildcard(w.Src), wildcard(w.Dst))
		d := fmt.Sprintf("%s x%.0f", link, w.LatencyFactor)
		if w.LossProb > 0 {
			ramp := ""
			if w.Ramp {
				ramp = " ramp"
			}
			d += fmt.Sprintf(" loss=%.1f%%%s", 100*w.LossProb, ramp)
		}
		d += fmt.Sprintf(" [%v..%v)", w.From, w.Until)
		parts = append(parts, d)
	}
	return "degrade: " + strings.Join(parts, ", ")
}

func wildcard(n int) string {
	if n == -1 {
		return "*"
	}
	return fmt.Sprintf("%d", n)
}
