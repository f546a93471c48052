// Silent-data-corruption (SDC) injection: corruption the link checksum
// does NOT catch. Three deterministic classes — silent wire corruption
// (payload bits flip, the link Corrupt flag stays clear), buffer
// corruption at rest (a designated node's send buffer flips bits between
// compute and DMA), and a faulty reducer (a rank whose reduction combines
// produce wrong values during a window). The plan owns private per-node
// RNG streams seeded from SDCConfig.Seed, so arming SDC never shifts the
// main injector's draw streams; the zero-valued config compiles to a nil
// plan that draws nothing and keeps the trace bit-for-bit (tested).
package fault

import (
	"fmt"
	"math"

	"repro/internal/config"
	"repro/internal/sim"
)

// SDCStats counts injected silent corruptions by class.
type SDCStats struct {
	// WireCorruptions counts packets silently corrupted on the wire.
	WireCorruptions int64
	// BufferCorruptions counts sends whose source buffer corrupted at rest.
	BufferCorruptions int64
	// ReducerCorruptions counts reduction combines the faulty rank botched.
	ReducerCorruptions int64
}

// Total returns the number of injected corruptions across all classes.
func (s SDCStats) Total() int64 {
	return s.WireCorruptions + s.BufferCorruptions + s.ReducerCorruptions
}

// SDCPlan is the compiled silent-data-corruption schedule. A nil plan is a
// valid no-op receiver; NewSDCPlan returns nil for a disabled config so
// the fault-free paths stay draw-free.
type SDCPlan struct {
	cfg config.SDCConfig
	nodeStreams[SDCStats]
}

func (a SDCStats) plus(b SDCStats) SDCStats {
	a.WireCorruptions += b.WireCorruptions
	a.BufferCorruptions += b.BufferCorruptions
	a.ReducerCorruptions += b.ReducerCorruptions
	return a
}

// NewSDCPlan compiles an SDC schedule over an n-node cluster; nil when
// nothing is armed.
func NewSDCPlan(cfg config.SDCConfig, n int) *SDCPlan {
	if !cfg.Enabled() {
		return nil
	}
	return &SDCPlan{cfg: cfg, nodeStreams: newNodeStreams[SDCStats](cfg.Seed, n)}
}

// Config returns the plan's configuration (zero for nil).
func (p *SDCPlan) Config() config.SDCConfig {
	if p == nil {
		return config.SDCConfig{}
	}
	return p.cfg
}

// Stats returns a snapshot of the injected-corruption counters summed over
// every node.
func (p *SDCPlan) Stats() SDCStats {
	if p == nil {
		return SDCStats{}
	}
	return p.total()
}

// FirstInjectionAt returns the simulated time of the first injected
// corruption of any class; ok is false when nothing has been injected.
// Ablations subtract it from the first detection time to report detection
// latency.
func (p *SDCPlan) FirstInjectionAt() (sim.Time, bool) {
	if p == nil {
		return 0, false
	}
	return p.firstInjection()
}

// WirePacket decides whether one delivered packet is silently corrupted on
// the wire. The draw happens only when the wire class is armed, so buffer-
// or reducer-only plans keep the packet path draw-free.
func (p *SDCPlan) WirePacket(now sim.Time, src, dst int) bool {
	if p == nil || p.cfg.WireProb <= 0 {
		return false
	}
	// Drawn at the source's egress — attributes to src.
	if p.r(src).Float64() >= p.cfg.WireProb {
		return false
	}
	p.st(src).WireCorruptions++
	p.note(now, src)
	return true
}

// BufferCorrupt decides whether one send from the given node reads a
// buffer that corrupted at rest. Only the designated node ever draws.
func (p *SDCPlan) BufferCorrupt(now sim.Time, node int) bool {
	if p == nil || p.cfg.BufferProb <= 0 || node != p.cfg.BufferNode {
		return false
	}
	if p.r(node).Float64() >= p.cfg.BufferProb {
		return false
	}
	p.st(node).BufferCorruptions++
	p.note(now, node)
	return true
}

// FaultyReducer reports whether the given rank's reduction combines are
// wrong at time now. RNG-free: the window is a deterministic schedule.
func (p *SDCPlan) FaultyReducer(now sim.Time, rank int) bool {
	if p == nil || rank != p.cfg.FaultyRank {
		return false
	}
	if now < p.cfg.FaultyFrom || now >= p.cfg.FaultyUntil {
		return false
	}
	p.st(rank).ReducerCorruptions++
	p.note(now, rank)
	return true
}

// Summary renders the schedule for run headers; empty for nil.
func (p *SDCPlan) Summary() string {
	if p == nil {
		return ""
	}
	c := &p.cfg
	s := fmt.Sprintf("sdc[seed=%d", c.Seed)
	if c.WireProb > 0 {
		s += fmt.Sprintf(" wire=%.2f%%", 100*c.WireProb)
	}
	if c.BufferProb > 0 {
		s += fmt.Sprintf(" buffer[node %d]=%.2f%%", c.BufferNode, 100*c.BufferProb)
	}
	if c.FaultyUntil > c.FaultyFrom {
		s += fmt.Sprintf(" reducer[rank %d %v..%v]", c.FaultyRank, c.FaultyFrom, c.FaultyUntil)
	}
	return s + "]"
}

// CorruptFloat32 deterministically corrupts one float32: it flips a high
// mantissa bit, a change large enough to fail any sum check while keeping
// the value finite. RNG-free so callers corrupt values without consuming
// plan draws.
func CorruptFloat32(v float32) float32 {
	return math.Float32frombits(math.Float32bits(v) ^ (1 << 22))
}
