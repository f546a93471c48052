package gpu

import (
	"fmt"

	"repro/internal/sim"
)

// Stream is an in-order GPU command stream, the abstraction GDS builds on:
// the host enqueues kernels interleaved with network-initiation points
// (doorbell rings) and wait operations, and the GPU front-end executes them
// in order without host involvement (§1, §5.1 "GDS").
type Stream struct {
	gpu  *GPU
	name string
	ops  *sim.Queue[streamOp]
	idle *sim.Counter // counts completed ops, for Sync
	nops int64
}

type streamOp struct {
	kind     string // "kernel", "doorbell", "wait"
	kernel   *Kernel
	doorbell func()
	waitCtr  *sim.Counter
	waitTgt  int64
}

// NewStream creates a stream whose commands the GPU front-end executes in
// order. Multiple streams progress independently (each models its own
// hardware queue).
func (g *GPU) NewStream(name string) *Stream {
	s := &Stream{
		gpu:  g,
		name: name,
		ops:  sim.NewQueue[streamOp](g.eng),
		idle: sim.NewCounter(g.eng),
	}
	s.ops.Serve(fmt.Sprintf("gpu.stream.%s", name), s.run)
	return s
}

// EnqueueKernel appends a kernel dispatch.
func (s *Stream) EnqueueKernel(k *Kernel) {
	s.nops++
	s.ops.Push(streamOp{kind: "kernel", kernel: k})
}

// EnqueueDoorbell appends a network-initiation point: once all preceding
// stream operations complete, the GPU front-end rings the NIC doorbell by
// invoking ring — the GDS put mechanism. The ring cost is the doorbell
// MMIO latency, already accounted inside the NIC model.
func (s *Stream) EnqueueDoorbell(ring func()) {
	s.nops++
	s.ops.Push(streamOp{kind: "doorbell", doorbell: ring})
}

// EnqueueWait appends a wait operation: the stream stalls until the
// counter reaches target (e.g. a remote put has landed) before the next
// command issues.
func (s *Stream) EnqueueWait(c *sim.Counter, target int64) {
	s.nops++
	s.ops.Push(streamOp{kind: "wait", waitCtr: c, waitTgt: target})
}

// Sync parks p until every operation enqueued so far has completed.
func (s *Stream) Sync(p *sim.Proc) {
	s.idle.WaitGE(p, s.nops)
}

// run executes one stream operation on the stream's queue server.
func (s *Stream) run(p *sim.Proc, op streamOp) {
	switch op.kind {
	case "kernel":
		s.gpu.Launch(op.kernel)
		op.kernel.Wait(p)
	case "doorbell":
		op.doorbell()
	case "wait":
		op.waitCtr.WaitGE(p, op.waitTgt)
	default:
		panic(fmt.Sprintf("gpu: unknown stream op %q", op.kind))
	}
	s.idle.Add(1)
}
