// Package cpu models the host processor of Table 2: 8 out-of-order cores
// at 4 GHz backed by the memsys hierarchy. The model provides the costs the
// paper's comparisons depend on — runtime/driver call latency, software
// send/recv processing, and OpenMP-style parallel compute phases for the
// CPU baseline — rather than cycle-accurate execution.
package cpu

import (
	"repro/internal/config"
	"repro/internal/memsys"
	"repro/internal/sim"
)

// simdWidth is the per-core SIMD factor assumed for throughput estimates
// (AVX-class units retiring 4 double-width lanes per cycle).
const simdWidth = 4

// memMLP is the number of outstanding misses a core overlaps.
const memMLP = 10

// CPU is one node's host processor.
type CPU struct {
	eng *sim.Engine
	cfg config.CPUConfig
	mem *memsys.Hierarchy
}

// New creates a CPU bound to the engine.
func New(eng *sim.Engine, cfg config.CPUConfig, mem *memsys.Hierarchy) *CPU {
	return &CPU{eng: eng, cfg: cfg, mem: mem}
}

// Config returns the CPU configuration.
func (c *CPU) Config() config.CPUConfig { return c.cfg }

// RuntimeCall models one user-to-runtime/driver transition (kernel launch
// request, network post, etc.).
func (c *CPU) RuntimeCall(p *sim.Proc) { p.Sleep(c.cfg.RuntimeCall) }

// SendProcessing models the software cost of preparing and issuing one
// network message on the host (the HDN critical-path "Send" in Figure 8).
func (c *CPU) SendProcessing(p *sim.Proc) { p.Sleep(c.cfg.SendOverhead) }

// RecvProcessing models the software cost of completing a receive on the
// host (polling a completion queue and dispatching the payload).
func (c *CPU) RecvProcessing(p *sim.Proc) { p.Sleep(c.cfg.SendOverhead / 2) }

// ComputeTime estimates a perfectly parallel compute phase over all cores:
// time is the max of the arithmetic-throughput bound and the memory bound.
func (c *CPU) ComputeTime(ops, bytes, workingSet int64) sim.Time {
	arith := c.arithTime(ops, c.cfg.Cores)
	mem := c.memTime(bytes, workingSet)
	if arith > mem {
		return arith
	}
	return mem
}

func (c *CPU) arithTime(ops int64, cores int) sim.Time {
	if ops <= 0 {
		return 0
	}
	opsPerNs := c.cfg.ClockGHz * simdWidth * float64(cores)
	return sim.Nanoseconds(float64(ops) / opsPerNs)
}

func (c *CPU) memTime(bytes, workingSet int64) sim.Time {
	if bytes <= 0 {
		return 0
	}
	lastLevel := c.mem.Levels()[len(c.mem.Levels())-1]
	if workingSet > lastLevel.Size {
		// DRAM-streaming phase: bandwidth bound.
		return c.mem.StreamTime(bytes)
	}
	// Cache-resident: latency bound with overlap.
	lines := c.mem.LineTransfers(bytes)
	lat := c.mem.AvgAccessLatency(workingSet)
	return sim.Time(float64(lines) / memMLP * float64(lat))
}
