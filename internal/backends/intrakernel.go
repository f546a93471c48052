package backends

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/nic"
	"repro/internal/node"
	"repro/internal/sim"
)

// The paper compares GPU-TN against GPU Host Networking and GPU Native
// Networking only qualitatively (§5.1.1: "we are unaware of any open
// source implementations... compatible with our simulation environment,
// and implementing our own approaches from scratch is a considerable
// effort"). This file implements both models so the comparison can be
// made quantitative (see bench.Figure8Extended):
//
//   - GHN (GPU Host Networking, [13, 21, 26, 36]): the kernel writes the
//     payload to a bounce buffer and enqueues a request; a dedicated CPU
//     helper thread polls the queue, builds the network command, and
//     posts it. Intra-kernel, but the CPU helper sits on the critical
//     path — and occupies a core for the lifetime of the application.
//   - GNN (GPU Native Networking, [8, 22, 23, 30, 31]): the kernel
//     itself constructs the network command — serial, pointer-heavy work
//     a GPU executes poorly — and rings the NIC doorbell directly. No
//     CPU involvement at all.

// HelperPollGap is the mean delay before a polling helper thread notices
// a new bounce-buffer request.
const HelperPollGap = 250 * sim.Nanosecond

// GPUCommandBuildTime is the in-kernel cost of constructing a network
// command packet on the GPU: tens of dependent scalar operations on a
// throughput architecture. Klenk et al. [22, 23] report optimized
// versions; Oden et al. [31] much worse — this sits between.
const GPUCommandBuildTime = 800 * sim.Nanosecond

// bounceRequest is one GPU-to-helper handoff.
type bounceRequest struct {
	cmd *nic.Command
}

// HelperThread is the dedicated CPU service thread of the GHN model.
type HelperThread struct {
	nd    *node.Node
	queue *sim.Queue[bounceRequest]

	served int64
}

// NewHelperThread starts the helper on a node. It models the permanently
// occupied core the paper calls out as GHN's hidden cost; the simulation
// runs it only while requests are queued, since polling an empty queue
// costs no simulated time.
func NewHelperThread(nd *node.Node) *HelperThread {
	h := &HelperThread{nd: nd, queue: sim.NewQueue[bounceRequest](nd.Eng)}
	h.queue.Serve(fmt.Sprintf("ghn.helper.%d", nd.Index), h.run)
	return h
}

// Served reports how many requests the helper has processed.
func (h *HelperThread) Served() int64 { return h.served }

// run serves one bounce-buffer request: the polling detection gap, then
// the CPU-side heavy lifting, command construction and the doorbell.
func (h *HelperThread) run(p *sim.Proc, req bounceRequest) {
	p.Sleep(HelperPollGap)
	h.nd.CPU.SendProcessing(p)
	h.nd.NIC.PostCommand(p, req.cmd)
	h.served++
}

// HandoffFromGPU is the kernel-side half of GHN: copy the payload into
// the bounce buffer, make it visible, and flag the helper. The staged
// command's Data is read at NIC DMA time as usual.
func (h *HelperThread) HandoffFromGPU(wg *gpu.WGCtx, cmd *nic.Command, payloadBytes int64) {
	// Bounce-buffer copy through the GPU memory system.
	wg.Compute(h.nd.GPU.MemoryTime(2*payloadBytes, payloadBytes))
	wg.FenceSystem()
	wg.AtomicStoreSystem(func() { h.queue.Push(bounceRequest{cmd: cmd}) })
}

// GPUNativeSend is the GNN path: the kernel builds the command packet
// itself and rings the NIC doorbell with a system-scope store.
func GPUNativeSend(wg *gpu.WGCtx, nd *node.Node, cmd *nic.Command) {
	wg.Compute(GPUCommandBuildTime) // serial packet construction on the GPU
	wg.FenceSystem()
	wg.AtomicStoreSystem(func() { nd.NIC.RingDoorbell(cmd) })
}
