// Fail-slow (straggler) injection: a component that keeps working but at a
// fraction of its speed — the failure mode neither the fail-stop layer
// (PR 4), the partition layer (PR 5), nor the integrity layer (PR 6) can
// see, because nothing ever times out, drops, or corrupts. Three
// deterministic classes, each a per-node time window: GPU compute dilation
// (every WGCtx.Compute stretches), NIC command slowdown (parse latency
// stretches, plus probabilistic per-command stalls), and DMA slowdown
// (every transfer, send- and receive-side, stretches). Factor lookups are
// RNG-free — they are pure window membership tests — and only CmdStallProb
// draws consume randomness, from the plan's private per-node streams
// seeded by SlowConfig.Seed, so arming a straggler never shifts the main
// injector's streams. The zero-valued config compiles to a nil plan that
// draws nothing and keeps the trace bit-for-bit (tested).
package fault

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/sim"
)

// SlowStats counts injected slowdowns by class.
type SlowStats struct {
	// GPUDilations counts Compute calls stretched by a GPU window.
	GPUDilations int64
	// CmdStretched counts NIC commands whose parse latency was stretched.
	CmdStretched int64
	// CmdStalls counts NIC commands that additionally drew a stall.
	CmdStalls int64
	// DMAStretched counts DMA transfers stretched by a DMA window.
	DMAStretched int64
}

// Total returns the number of injected slowdowns across all classes.
func (s SlowStats) Total() int64 {
	return s.GPUDilations + s.CmdStretched + s.CmdStalls + s.DMAStretched
}

// SlowPlan is the compiled fail-slow schedule. A nil plan is a valid no-op
// receiver; NewSlowPlan returns nil for a disabled config so the
// straggler-free paths stay draw-free.
type SlowPlan struct {
	cfg config.SlowConfig
	nodeStreams[SlowStats]
}

func (a SlowStats) plus(b SlowStats) SlowStats {
	a.GPUDilations += b.GPUDilations
	a.CmdStretched += b.CmdStretched
	a.CmdStalls += b.CmdStalls
	a.DMAStretched += b.DMAStretched
	return a
}

// NewSlowPlan compiles a fail-slow schedule over an n-node cluster; nil
// when nothing is armed.
func NewSlowPlan(cfg config.SlowConfig, n int) *SlowPlan {
	if !cfg.Enabled() {
		return nil
	}
	return &SlowPlan{cfg: cfg, nodeStreams: newNodeStreams[SlowStats](cfg.Seed, n)}
}

// Config returns the plan's configuration (zero for nil).
func (p *SlowPlan) Config() config.SlowConfig {
	if p == nil {
		return config.SlowConfig{}
	}
	return p.cfg
}

// Stats returns a snapshot of the injected-slowdown counters summed over
// every node.
func (p *SlowPlan) Stats() SlowStats {
	if p == nil {
		return SlowStats{}
	}
	return p.total()
}

// FirstInjectionAt returns the simulated time of the first injected
// slowdown of any class; ok is false when nothing has been injected.
// Ablations subtract it from the first Slow verdict to report detection
// latency.
func (p *SlowPlan) FirstInjectionAt() (sim.Time, bool) {
	if p == nil {
		return 0, false
	}
	return p.firstInjection()
}

// windows iterates the armed windows covering (node, now).
func (p *SlowPlan) windows(now sim.Time, node int, f func(*config.SlowWindow)) {
	for i := range p.cfg.Windows {
		w := &p.cfg.Windows[i]
		if w.Node != node || w.Until <= w.From || now < w.From || now >= w.Until {
			continue
		}
		f(w)
	}
}

// AffectsGPU reports whether any armed window ever dilates the node's GPU
// compute — consulted once at cluster build to decide whether to install a
// dilation hook at all, keeping unaffected nodes' Compute path untouched.
func (p *SlowPlan) AffectsGPU(node int) bool {
	if p == nil {
		return false
	}
	for i := range p.cfg.Windows {
		w := &p.cfg.Windows[i]
		if w.Node == node && w.Until > w.From && w.GPUFactor > 1 {
			return true
		}
	}
	return false
}

// GPUDilate stretches one GPU compute duration by the product of the armed
// GPU factors covering (node, now). RNG-free.
func (p *SlowPlan) GPUDilate(now sim.Time, node int, d sim.Time) sim.Time {
	if p == nil || d <= 0 {
		return d
	}
	factor := 1.0
	p.windows(now, node, func(w *config.SlowWindow) {
		if w.GPUFactor > 1 {
			factor *= w.GPUFactor
		}
	})
	if factor <= 1 {
		return d
	}
	p.st(node).GPUDilations++
	p.note(now, node)
	return sim.Time(float64(d) * factor)
}

// CommandSlow returns the stretched parse latency for one NIC command plus
// any additional stall drawn from the plan's private RNG. Only commands
// inside an armed window ever draw.
func (p *SlowPlan) CommandSlow(now sim.Time, node int, parse sim.Time) (stretched, stall sim.Time) {
	if p == nil {
		return parse, 0
	}
	factor := 1.0
	p.windows(now, node, func(w *config.SlowWindow) {
		if w.CmdFactor > 1 {
			factor *= w.CmdFactor
		}
		if w.CmdStallProb > 0 && w.CmdStallTime > 0 && p.r(node).Float64() < w.CmdStallProb {
			stall += w.CmdStallTime
		}
	})
	stretched = parse
	if factor > 1 {
		stretched = sim.Time(float64(parse) * factor)
		p.st(node).CmdStretched++
		p.note(now, node)
	}
	if stall > 0 {
		p.st(node).CmdStalls++
		p.note(now, node)
	}
	return stretched, stall
}

// DMADilate stretches one DMA transfer duration (send-side staging or
// receive-side delivery) by the product of the armed DMA factors covering
// (node, now). RNG-free.
func (p *SlowPlan) DMADilate(now sim.Time, node int, d sim.Time) sim.Time {
	if p == nil || d <= 0 {
		return d
	}
	factor := 1.0
	p.windows(now, node, func(w *config.SlowWindow) {
		if w.DMAFactor > 1 {
			factor *= w.DMAFactor
		}
	})
	if factor <= 1 {
		return d
	}
	p.st(node).DMAStretched++
	p.note(now, node)
	return sim.Time(float64(d) * factor)
}

// Summary renders the schedule for run headers; empty for nil.
func (p *SlowPlan) Summary() string {
	if p == nil {
		return ""
	}
	s := fmt.Sprintf("slow[seed=%d", p.cfg.Seed)
	for i := range p.cfg.Windows {
		w := &p.cfg.Windows[i]
		if w.Until <= w.From {
			continue
		}
		s += fmt.Sprintf(" node %d %v..%v", w.Node, w.From, w.Until)
		if w.GPUFactor > 1 {
			s += fmt.Sprintf(" gpu=%gx", w.GPUFactor)
		}
		if w.CmdFactor > 1 {
			s += fmt.Sprintf(" cmd=%gx", w.CmdFactor)
		}
		if w.CmdStallProb > 0 && w.CmdStallTime > 0 {
			s += fmt.Sprintf(" stall=%.2f%%x%v", 100*w.CmdStallProb, w.CmdStallTime)
		}
		if w.DMAFactor > 1 {
			s += fmt.Sprintf(" dma=%gx", w.DMAFactor)
		}
	}
	return s + "]"
}
