package collective

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/backends"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/nic"
	"repro/internal/node"
	"repro/internal/portals"
	"repro/internal/sim"
)

// allreduceMatchBits addresses every rank's Allreduce landing region.
const allreduceMatchBits = 0xA11

// elemBytes is the size of one fp32 element (the paper's single-precision
// payload, §5.4.1).
const elemBytes = 4

// reduceWGs is the work-group count of the reduction kernels.
const reduceWGs = 64

// trigWindow is the registration window of GPU-TN runs, keeping the number
// of simultaneously active trigger entries within the NIC's 16-entry
// associative lookup (§3.3).
const trigWindow = 12

// GPUTNWorkingSet reports the peak number of simultaneously registered
// trigger entries a GPU-TN Allreduce wants on an n-node ring: the full
// 2(n-1)-round schedule, clamped to the registration window. Resource-
// pressure experiments size trigger-list capacities relative to this.
func GPUTNWorkingSet(n int) int {
	rounds := 2 * (n - 1)
	if rounds < trigWindow {
		return rounds
	}
	return trigWindow
}

// Config describes one Allreduce invocation.
type Config struct {
	// Kind selects the backend (§5.1).
	Kind backends.Kind
	// TotalBytes is the per-rank payload (e.g. 8 MB in Figure 10).
	TotalBytes int64
	// Data optionally supplies real per-rank vectors (length
	// TotalBytes/4); when set, Result.Output carries the reduced vectors
	// so tests can verify numerical correctness on every backend.
	Data [][]float32
	// Pipeline, when > 1, enables §5.4.1's work-group-granularity software
	// pipelining for the GPU-TN backend: each ring chunk is split into
	// Pipeline slices with independent triggered puts, overlapping the
	// reduction with the network transfer. Ignored values 0 and 1 select
	// the kernel-granularity implementation.
	Pipeline int
	// ComputePhase, when > 0, models an application compute kernel of that
	// duration on each rank's GPU before the reduction — the training-step
	// shape (compute, then Allreduce). It runs under the fail-slow
	// injector's compute dilation, so a GPU-class straggler delays its
	// ring contribution by the full dilated phase.
	ComputePhase sim.Time

	// Timeout, when > 0, bounds every per-round receive wait: a rank whose
	// ring predecessor stops sending aborts with a NeighborFailedError
	// instead of hanging. Zero keeps the fault-free blocking waits.
	// Unsupported on the GDS backend (stream waits cannot be interrupted).
	Timeout sim.Time
	// DeadNodes lists fail-stop ranks: their host never runs the collective
	// (the NIC stays responsive and sinks stray traffic). Requires either
	// HealRing or a Timeout so the survivors terminate.
	DeadNodes []int
	// HealRing, with DeadNodes, re-forms the ring over the surviving ranks
	// so the collective completes exactly over their contributions.
	HealRing bool
}

// NeighborFailedError reports that a rank gave up waiting on its ring
// predecessor — the graceful-degradation signal replacing a hang.
type NeighborFailedError struct {
	Rank     int // the rank that observed the failure
	Neighbor int // the predecessor it was waiting on
	Step     int // the schedule step that timed out
	Err      error
}

func (e *NeighborFailedError) Error() string {
	return fmt.Sprintf("collective: rank %d: neighbor %d failed at step %d: %v", e.Rank, e.Neighbor, e.Step, e.Err)
}

func (e *NeighborFailedError) Unwrap() error { return e.Err }

// Result reports one Allreduce run.
type Result struct {
	// Duration is the time from simulation start to the last rank's
	// completion of the collective.
	Duration sim.Time
	// PerRank holds each rank's own completion time.
	PerRank []sim.Time
	// Output carries the reduced vectors when Config.Data was provided.
	Output [][]float32
}

// chunkMsg is the wire payload of one ring step. Verified runs additionally
// carry an in-band claim — the sender's claimed float64 sum of vals — which
// the receiver checks against the actual contents (the ABFT-style blame
// chain of RunVerified). tainted is simulator omniscience, not protocol
// state: it rides along so the NIC's escape counters and the chaos tests
// can tell whether injected corruption reached application data.
type chunkMsg struct {
	step     int
	vals     []float32
	claim    float64
	hasClaim bool
	tainted  bool
}

// ChecksumBytes serializes the body the end-to-end CRC covers: the step,
// the claim, and every element's bit pattern. tainted is metadata the wire
// does not carry, so it stays out of the sum.
func (m chunkMsg) ChecksumBytes() []byte {
	b := make([]byte, 0, 12+4*len(m.vals))
	b = binary.LittleEndian.AppendUint32(b, uint32(m.step))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.claim))
	for _, v := range m.vals {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

// CorruptCopy returns a deep copy with one element's bits flipped — the
// deterministic materialization of injected wire/buffer corruption. The
// claim is left intact: corruption never fixes up the sender's claimed sum,
// which is exactly what the verified layer detects.
func (m chunkMsg) CorruptCopy() any {
	cp := m
	cp.vals = append([]float32(nil), m.vals...)
	if len(cp.vals) > 0 {
		cp.vals[0] = fault.CorruptFloat32(cp.vals[0])
	}
	cp.tainted = true
	return cp
}

// IsCorrupt reports whether this payload carries injected corruption.
func (m chunkMsg) IsCorrupt() bool { return m.tainted }

// rankState is the per-rank execution state shared by all backends.
type rankState struct {
	nd     *node.Node
	rounds []Round
	recvCT *portals.CT
	vec    []float32 // nil in size-only runs
	nelems int
	nranks int
	chunk  int64 // bytes per ring message

	// pipeCTs are the per-slice delivery counters of a pipelined run.
	pipeCTs []*portals.CT

	// mb is the landing-region address and tagBase the first trigger tag;
	// episodic drivers (training loops) give each episode its own values.
	mb      uint64
	tagBase uint64

	// ring, when non-nil, is the healed ring: the alive ranks in index
	// order. pos is this rank's position in it. nil means the identity
	// ring over all nranks (the fault-free fast path).
	ring []int
	pos  int
	// timeout bounds each receive wait (0 = wait forever).
	timeout sim.Time

	// sdc is the node's silent-corruption plan (nil when nothing is
	// armed): injection is ambient, driven by config, on every run kind.
	sdc *fault.SDCPlan
	// verify, when non-nil, threads the in-band claim chain through sends
	// and deliveries (RunVerified).
	verify *verifyState
	// hedge, when non-nil, slices every receive wait into soft deadlines
	// that report lag and abandon hops on confirmed-Slow predecessors
	// (RunHedged).
	hedge *hedgeRun
	// peers exposes the attempt's rank states by node index (hedged runs
	// only): a receiver attributes hedge-deadline blame to its predecessor
	// only when the predecessor's own receive progress shows it holds the
	// awaited step's inputs.
	peers []*rankState

	// recycle is set when nothing can read a chunk snapshot after its
	// receiver applied it: with NIC reliability off a put is framed once
	// and delivered at most once (a retransmission could read it again).
	// Then sendPayload draws snapshots from free, and applyChunk puts the
	// applied buffer on the receiver's own free list, so each list is only
	// touched on its node's lane.
	recycle bool
	free    [][]float32
}

// recycles reports whether a rank on nd may recycle chunk snapshots.
func recycles(nd *node.Node) bool { return !nd.NIC.Config().Reliability.Enabled }

// computePhase runs the modeled application compute kernel preceding the
// reduction (ComputePhase > 0): one work-group computing for d on the
// rank's GPU, subject to the fail-slow injector's compute dilation. A
// no-op when no phase is configured.
func (st *rankState) computePhase(p *sim.Proc, d sim.Time) {
	if d <= 0 {
		return
	}
	st.nd.GPU.LaunchSync(p, &gpu.Kernel{
		Name:       "allreduce.compute",
		WorkGroups: 1,
		WGTime:     d,
	})
}

// hostRecv waits for the round's delivery on the host: the plain timed wait
// of HostRecvWaitTimeout, or the hedged slice loop when the run is
// fail-slow tolerant.
func (st *rankState) hostRecv(p *sim.Proc, target int64) error {
	if st.hedge == nil {
		return backends.HostRecvWaitTimeout(p, st.nd, st.recvCT, target, st.timeout)
	}
	return st.hedge.recvHost(p, st, target)
}

// applyChunk lands one ring chunk into the rank's vector: claim
// verification (first observer blames and then relays honestly), the
// reduce-or-copy, claim-chain bookkeeping, and the faulty-reducer
// injection that corrupts the combine's output.
func (st *rankState) applyChunk(msg chunkMsg) {
	if st.vec == nil {
		return
	}
	r := st.rounds[msg.step]
	lo, hi := ChunkRange(st.nelems, st.nranks, r.RecvChunk)
	if len(msg.vals) != hi-lo {
		panic(fmt.Sprintf("collective: chunk size mismatch %d vs %d", len(msg.vals), hi-lo))
	}
	v := st.verify
	if v != nil && v.check && msg.hasClaim {
		got := sum64(msg.vals)
		if diff := got - msg.claim; diff > verifyEps || diff < -verifyEps {
			// First observer: the chunk's contents do not add up to what
			// the sender claimed, so the sender's compute pipeline is
			// indicted. Overwrite the claim with the actual sum before it
			// enters this rank's chain — downstream ranks relay the (bad)
			// data honestly instead of re-blaming innocents.
			v.log.add(Violation{
				Observer: st.nd.Index, Blamed: st.left(),
				Step: msg.step, At: st.nd.Eng.Now(),
			})
			msg.claim = got
		}
	}
	if r.Reduce {
		for k, val := range msg.vals {
			st.vec[lo+k] += val
		}
	} else {
		copy(st.vec[lo:hi], msg.vals)
	}
	if v != nil {
		if msg.tainted {
			v.taint[r.RecvChunk] = true
		}
		if v.check {
			if r.Reduce {
				v.claims[r.RecvChunk] = msg.claim + v.own[r.RecvChunk]
			} else {
				v.claims[r.RecvChunk] = msg.claim
			}
		}
	}
	if r.Reduce && st.sdc.FaultyReducer(st.nd.Eng.Now(), st.nd.Index) {
		// The faulty rank's combine produced a wrong value; its claim
		// chain is untouched, so the next hop's check exposes it.
		st.vec[lo] = fault.CorruptFloat32(st.vec[lo])
		if v != nil {
			v.taint[r.RecvChunk] = true
		}
	}
	if st.recycle {
		st.free = append(st.free, msg.vals[:0])
	}
}

// Run executes one Allreduce on the cluster and drives the simulation to
// completion. The cluster must be freshly constructed (time zero).
func Run(c *node.Cluster, cfg Config) (Result, error) {
	n := c.Size()
	if n < 2 {
		return Result{}, fmt.Errorf("collective: allreduce needs >= 2 nodes")
	}
	if cfg.TotalBytes < int64(n)*elemBytes {
		return Result{}, fmt.Errorf("collective: payload %dB too small for %d chunks", cfg.TotalBytes, n)
	}
	if cfg.Data != nil && len(cfg.Data) != n {
		return Result{}, fmt.Errorf("collective: got %d data vectors for %d ranks", len(cfg.Data), n)
	}
	if err := validatePipeline(cfg, n); err != nil {
		return Result{}, err
	}
	if cfg.Pipeline > 1 && cfg.Kind != backends.GPUTN {
		return Result{}, fmt.Errorf("collective: pipelining requires the GPU-TN backend")
	}
	if cfg.Timeout > 0 && cfg.Kind == backends.GDS {
		return Result{}, fmt.Errorf("collective: GDS stream waits cannot time out; use HDN or GPU-TN for timeout runs")
	}
	dead := make(map[int]bool, len(cfg.DeadNodes))
	for _, d := range cfg.DeadNodes {
		if d < 0 || d >= n {
			return Result{}, fmt.Errorf("collective: dead node %d outside cluster of %d", d, n)
		}
		if dead[d] {
			return Result{}, fmt.Errorf("collective: dead node %d listed twice", d)
		}
		dead[d] = true
	}
	var alive []int
	for i := 0; i < n; i++ {
		if !dead[i] {
			alive = append(alive, i)
		}
	}
	if len(cfg.DeadNodes) > 0 {
		if cfg.Pipeline > 1 {
			return Result{}, fmt.Errorf("collective: pipelined runs do not support dead nodes")
		}
		if !cfg.HealRing && cfg.Timeout == 0 {
			return Result{}, fmt.Errorf("collective: dead nodes need HealRing or a Timeout, or the survivors hang")
		}
		if len(alive) < 2 {
			return Result{}, fmt.Errorf("collective: only %d ranks alive, ring needs >= 2", len(alive))
		}
	}
	// heal selects the ring membership the survivors compute over: the
	// alive ranks when healing, the full (doomed) ring otherwise.
	heal := cfg.HealRing && len(cfg.DeadNodes) > 0
	ringSize := n
	if heal {
		ringSize = len(alive)
	}
	if cfg.TotalBytes < int64(ringSize)*elemBytes {
		return Result{}, fmt.Errorf("collective: payload %dB too small for %d chunks", cfg.TotalBytes, ringSize)
	}
	nelems := int(cfg.TotalBytes / elemBytes)

	states := make([]*rankState, n)
	pos := 0
	for i := 0; i < n; i++ {
		if dead[i] {
			// Fail-stop host, responsive NIC: stray traffic from ranks that
			// have not yet noticed the failure is sunk, not paniced on.
			c.Nodes[i].NIC.ExposeRegion(&nic.Region{IgnoreBits: ^uint64(0)})
			continue
		}
		schedRank, schedN := i, n
		if heal {
			schedRank, schedN = pos, ringSize
		}
		rounds, err := RingSchedule(schedRank, schedN)
		if err != nil {
			return Result{}, err
		}
		st := &rankState{
			nd:      c.Nodes[i],
			rounds:  rounds,
			recvCT:  c.Nodes[i].Ptl.CTAlloc(),
			nelems:  nelems,
			nranks:  schedN,
			chunk:   cfg.TotalBytes / int64(schedN),
			mb:      allreduceMatchBits,
			tagBase: 0,
			timeout: cfg.Timeout,
			sdc:     c.Nodes[i].NIC.Injector().SDC(),
			recycle: recycles(c.Nodes[i]),
		}
		if heal {
			st.ring, st.pos = alive, pos
		}
		pos++
		if cfg.Data != nil {
			if len(cfg.Data[i]) != nelems {
				return Result{}, fmt.Errorf("collective: rank %d vector has %d elems, want %d", i, len(cfg.Data[i]), nelems)
			}
			st.vec = append([]float32(nil), cfg.Data[i]...)
		}
		states[i] = st
	}
	// Expose the landing region on every rank. Incoming chunks are applied
	// (reduce or copy) at delivery time; the rank's control flow observes
	// arrival through recvCT.
	for i := 0; i < n; i++ {
		st := states[i]
		if st == nil {
			continue
		}
		ways := cfg.Pipeline
		st.nd.Ptl.MEAppend(&portals.ME{
			MatchBits: st.mb,
			Length:    cfg.TotalBytes,
			CT:        st.recvCT,
			OnDelivery: func(d nic.Delivery) {
				if _, ok := d.Data.(pipeMsg); ok {
					st.applyPipeDelivery(d, ways)
					return
				}
				if st.vec == nil {
					return
				}
				st.applyChunk(d.Data.(chunkMsg))
			},
		})
	}

	res := Result{PerRank: make([]sim.Time, n)}
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		st := states[i]
		if st == nil {
			continue
		}
		run := func(p *sim.Proc) {
			st.computePhase(p, cfg.ComputePhase)
			var err error
			switch cfg.Kind {
			case backends.CPU:
				err = runCPURank(p, st)
			case backends.HDN:
				err = runHDNRank(p, st)
			case backends.GDS:
				err = runGDSRank(p, st)
			case backends.GPUTN:
				if cfg.Pipeline > 1 {
					runGPUTNPipelined(p, st, cfg.Pipeline)
				} else {
					err = runGPUTNRank(p, st)
				}
			default:
				panic(fmt.Sprintf("collective: unknown backend %v", cfg.Kind))
			}
			if err != nil {
				errs[i] = err
				return
			}
			res.PerRank[i] = p.Now()
		}
		c.GoRank(i, fmt.Sprintf("allreduce.%s.%d", cfg.Kind, i), run)
	}
	c.Run()
	if err := errors.Join(errs...); err != nil {
		// A rank that aborted (e.g. a stalled registration under resource
		// pressure) usually strands its peers; attach the hang diagnosis so
		// the error names the starved trigger entries.
		if diag := c.Diagnose(); diag != nil {
			return res, errors.Join(err, diag)
		}
		return res, err
	}
	for i, t := range res.PerRank {
		if states[i] == nil {
			continue // dead ranks do not participate
		}
		if t == 0 {
			if diag := c.Diagnose(); diag != nil {
				return Result{}, fmt.Errorf("collective: rank %d never completed: %w", i, diag)
			}
			return Result{}, fmt.Errorf("collective: rank %d never completed", i)
		}
		if t > res.Duration {
			res.Duration = t
		}
	}
	if cfg.Data != nil {
		for _, st := range states {
			if st == nil {
				res.Output = append(res.Output, nil)
				continue
			}
			res.Output = append(res.Output, st.vec)
		}
	}
	return res, nil
}

// right returns the ring successor.
func (st *rankState) right() int {
	if st.ring != nil {
		return st.ring[(st.pos+1)%len(st.ring)]
	}
	return (st.nd.Index + 1) % st.nranks
}

// left returns the ring predecessor (the rank blamed on a receive timeout).
func (st *rankState) left() int {
	if st.ring != nil {
		m := len(st.ring)
		return st.ring[(st.pos-1+m)%m]
	}
	return (st.nd.Index - 1 + st.nranks) % st.nranks
}

// neighborFailed wraps a timed-out receive into the typed error.
func (st *rankState) neighborFailed(step int, err error) error {
	return &NeighborFailedError{Rank: st.nd.Index, Neighbor: st.left(), Step: step, Err: err}
}

// sendPayload builds the deferred wire payload for one round: the chunk
// contents are captured at NIC DMA time, after the producing reduction.
// Verified runs attach the chunk's current claimed sum and taint flag at
// the same instant, so the claim always describes the bytes actually sent.
func (st *rankState) sendPayload(r Round) any {
	if st.vec == nil {
		return nil
	}
	step := r.Step
	chunk := r.SendChunk
	return nic.Deferred(func() any {
		lo, hi := ChunkRange(st.nelems, st.nranks, chunk)
		var buf []float32
		if n := len(st.free); n > 0 {
			buf, st.free = st.free[n-1], st.free[:n-1]
		}
		m := chunkMsg{step: step, vals: append(buf, st.vec[lo:hi]...)}
		if v := st.verify; v != nil {
			m.tainted = v.taint[chunk]
			if v.check {
				m.claim, m.hasClaim = v.claims[chunk], true
			}
		}
		return m
	})
}

// chunkElems returns the element count of one ring message.
func (st *rankState) chunkElems() int64 { return st.chunk / elemBytes }

// Effective streaming bandwidths of the reduction loop, tiered by where
// the three fp32 streams (two reads, one write) reside. The CPU's scalar
// OpenMP sum loop pays read-for-ownership traffic on the destination and
// achieves a modest fraction of peak DRAM bandwidth, while cache-resident
// chunks stream much faster; the GPU's coalesced wavefront accesses with
// write-combining get close to peak DRAM bandwidth but its small L2 and
// long latencies blunt the advantage on small chunks — together with the
// kernel boundary this produces Figure 10's strong-scaling crossover.
const (
	cpuDRAMReduceGBps = 25.0
	cpuL3ReduceGBps   = 70.0
	cpuL2ReduceGBps   = 120.0
	gpuDRAMReduceGBps = 110.0
)

// cpuReduceTime is the host-side cost of combining one received chunk.
func (st *rankState) cpuReduceTime() sim.Time {
	e := st.chunkElems()
	bytes := 3 * e * elemBytes
	arith := st.nd.CPU.ComputeTime(e, 0, 0)
	levels := st.nd.HostMem.Levels()
	l2, l3 := levels[1], levels[2]
	var bw float64
	switch {
	case bytes > l3.Size/2:
		bw = cpuDRAMReduceGBps // streams spill to DRAM
	case bytes > l2.Size:
		bw = cpuL3ReduceGBps
	default:
		bw = cpuL2ReduceGBps
	}
	mem := sim.BytesAtGbps(bytes, bw*8)
	if arith > mem {
		return arith
	}
	return mem
}

// gpuReduceKernel builds the per-round reduction kernel: reduceWGs
// work-groups each combining an equal slice of the chunk.
func (st *rankState) gpuReduceKernel(name string) *gpu.Kernel {
	perWG := st.gpuReducePerWGTime()
	return &gpu.Kernel{Name: name, WorkGroups: reduceWGs, WGTime: perWG}
}

// gpuReducePerWGTime is the duration of each reduction work-group: the
// groups stream the chunk concurrently, so a bandwidth-bound round takes
// total-bytes/effective-bandwidth regardless of group count, while a
// cache-resident round is bound by the GPU's L2 latency over the groups'
// aggregate memory-level parallelism.
func (st *rankState) gpuReducePerWGTime() sim.Time {
	e := st.chunkElems() / reduceWGs
	if e < 1 {
		e = 1
	}
	bytes := 3 * st.chunkElems() * elemBytes
	g := st.nd.GPU
	arith := g.ComputeTime(e, 0)
	// The GPU hides latency with massive thread-level parallelism, so the
	// round is bound by whichever is *smaller*: the latency-limited rate
	// (~8 outstanding lines per group) or the streaming bandwidth.
	lines := st.nd.GPUMem.LineTransfers(bytes)
	lat := st.nd.GPUMem.AvgAccessLatency(bytes)
	mem := sim.Time(float64(lines) * float64(lat) / (8 * reduceWGs))
	if bw := sim.BytesAtGbps(bytes, gpuDRAMReduceGBps*8); bw < mem {
		mem = bw
	}
	if arith > mem {
		return arith
	}
	return mem
}

// runCPURank: everything on the host (the paper's non-GPU baseline).
func runCPURank(p *sim.Proc, st *rankState) error {
	md := st.nd.Ptl.MDBind("allreduce", st.chunk, nil, nil)
	for _, r := range st.rounds {
		md.Data = st.sendPayload(r)
		backends.HostSend(p, st.nd, md, st.chunk, st.right(), st.mb)
		if err := st.hostRecv(p, int64(r.Step)+1); err != nil {
			return st.neighborFailed(r.Step, err)
		}
		if r.Reduce {
			p.Sleep(st.cpuReduceTime())
		}
	}
	return nil
}

// runHDNRank: two-sided host messaging on kernel boundaries; each
// reduction is a separate GPU kernel (launch/teardown per round).
func runHDNRank(p *sim.Proc, st *rankState) error {
	md := st.nd.Ptl.MDBind("allreduce", st.chunk, nil, nil)
	for _, r := range st.rounds {
		md.Data = st.sendPayload(r)
		backends.HostSend(p, st.nd, md, st.chunk, st.right(), st.mb)
		if err := st.hostRecv(p, int64(r.Step)+1); err != nil {
			return st.neighborFailed(r.Step, err)
		}
		if r.Reduce {
			st.nd.GPU.LaunchSync(p, st.gpuReduceKernel(fmt.Sprintf("hdn.reduce.%d", r.Step)))
		}
	}
	return nil
}

// runGDSRank: the host pre-posts every send; the GPU front-end executes a
// stream of [doorbell, wait, reduce-kernel] triples without host
// involvement, but still pays kernel boundaries between rounds. Stream
// waits are uninterruptible, so GDS runs reject Timeout at validation.
func runGDSRank(p *sim.Proc, st *rankState) error {
	stream := st.nd.GPU.NewStream(fmt.Sprintf("gds.%d", st.nd.Index))
	for _, r := range st.rounds {
		md := st.nd.Ptl.MDBind("gds", st.chunk, st.sendPayload(r), nil)
		ring := backends.PrePost(p, st.nd, md, st.chunk, st.right(), st.mb)
		stream.EnqueueDoorbell(ring)
		stream.EnqueueWait(st.recvCT.Raw(), int64(r.Step)+1)
		if r.Reduce {
			stream.EnqueueKernel(st.gpuReduceKernel(fmt.Sprintf("gds.reduce.%d", r.Step)))
		}
	}
	stream.Sync(p)
	return nil
}

// runGPUTNRank: the paper's approach — the entire collective runs inside
// one persistent kernel. The host registers triggered puts (kernel-level
// granularity: threshold = work-groups) in a sliding window sized to the
// NIC's associative lookup, and the kernel triggers each round's send with
// a single tag store, polls for the neighbour's chunk, and reduces in
// place (§5.4.1).
func runGPUTNRank(p *sim.Proc, st *rankState) error {
	host := core.NewHost(st.nd.Eng, st.nd.Ptl, st.nd.GPU)
	comp := host.NewCompletion()
	rk := &ringKernel{
		st:         st,
		trig:       host.GetTriggerAddr(),
		perWG:      st.gpuReducePerWGTime(),
		wgs:        make([]ringWG, reduceWGs),
		failedStep: -1,
	}
	total := len(st.rounds)
	rounds := st.rounds
	kern := &gpu.Kernel{
		Name:       fmt.Sprintf("gputn.allreduce.%d", st.nd.Index),
		WorkGroups: reduceWGs,
		Step:       rk.step,
	}
	host.LaunchKern(kern)

	// Host side: windowed registration keyed on local completions; the
	// host stays off the critical path (relaxed synchronization lets the
	// GPU trigger tags before their registration lands). With a timeout
	// armed, the host also gives up if completions stop flowing (the
	// aborted kernel will never trigger the remaining puts).
	register := func(step int) error {
		r := rounds[step]
		md := st.nd.Ptl.MDBind("tn", st.chunk, st.sendPayload(r), comp.CT)
		// Pressure-aware registration: a full trigger list stalls the host
		// until an outstanding put fires and frees a slot, instead of
		// failing the collective outright.
		return host.TrigPutPressure(p, comp, st.tagBase+uint64(step), reduceWGs, md, st.chunk, st.right(), st.mb)
	}
	window := trigWindow
	if window > total {
		window = total
	}
	for s := 0; s < window; s++ {
		if err := register(s); err != nil {
			return fmt.Errorf("collective: rank %d step %d: %w", st.nd.Index, s, err)
		}
	}
	for s := window; s < total; s++ {
		if st.hedge != nil {
			// Sliced pacing wait: break out within one hedge slice of the
			// kernel abandoning its hop, instead of waiting out Timeout
			// against completions that will never come.
			if err := st.hedge.waitComp(p, st, comp.CT.Raw(), int64(s-window)+1, func() bool { return rk.failedStep >= 0 }); err != nil {
				break
			}
		} else if st.timeout > 0 {
			if err := comp.CT.WaitTimeout(p, int64(s-window)+1, st.timeout); err != nil {
				break
			}
		} else {
			comp.WaitHost(p, int64(s-window)+1)
		}
		if err := register(s); err != nil {
			return fmt.Errorf("collective: rank %d step %d: %w", st.nd.Index, s, err)
		}
	}
	kern.Wait(p)
	if rk.failedStep >= 0 {
		if rk.failCause == nil {
			rk.failCause = portals.ErrTimeout
		}
		return st.neighborFailed(rk.failedStep, rk.failCause)
	}
	return nil
}

// ringKernel is the persistent kernel of runGPUTNRank: every round, each
// work-group stores the round's tag (Figure 7c), polls for the
// neighbour's chunk and reduces it in place. Its work-groups are
// stackless (gpu.Kernel.Step), and wgs holds each one's place. With a
// timeout (or hedge) armed, a work-group that gives up on a round records
// the step and exits; its siblings observe the sticky failedStep and
// follow, reading it at their own time (after a Pause).
type ringKernel struct {
	st    *rankState
	trig  portals.TriggerAddr
	perWG sim.Time
	wgs   []ringWG

	failedStep int // -1 while no work-group has given up
	failCause  error
}

// ringWG is one work-group's place in the ring kernel: its round, the
// point of the round it resumes at, and the deadline and hedge state of
// a timed poll.
type ringWG struct {
	round    int
	at       ringAt
	deadline sim.Time
	watch    hopWatch
}

// ringAt names a point of a ring round.
type ringAt uint8

const (
	ringTop     ringAt = iota // sync if abortable
	ringTrigger               // check the abort flag, store the tag, poll
	ringArm                   // a timed poll's lag is paid: set its deadline
	ringSlice                 // wait for the chunk until the (slice) deadline
	ringPolled                // that wait ended
	ringReduce                // the chunk is in: reduce it
)

// step runs work-group wg of the ring kernel up to its next wait. The
// untimed poll is one Await; a timed one pays the lag, then waits until
// the deadline, or, hedged, in slices that each report lag against the
// predecessor or abandon the hop (hedgeRun.expire), up to the deadline.
func (k *ringKernel) step(wg *gpu.WGCtx) bool {
	st := k.st
	s := &k.wgs[wg.Group]
	abortable := st.timeout > 0 || st.hedge != nil
	for s.round < len(st.rounds) {
		r := st.rounds[s.round]
		ct, target := st.recvCT.Raw(), int64(r.Step)+1
		switch s.at {
		case ringTop:
			s.at = ringTrigger
			if abortable && wg.Pause() {
				return true
			}
			fallthrough
		case ringTrigger:
			if k.failedStep >= 0 && k.failedStep <= r.Step {
				return false
			}
			core.TriggerKernel(wg, k.trig, st.tagBase+uint64(r.Step))
			if !abortable {
				s.at = ringReduce
				if wg.Await(ct, target) {
					return true
				}
				continue
			}
			s.at = ringArm
			if wg.Pause() {
				return true
			}
			fallthrough
		case ringArm:
			s.deadline = wg.Now() + st.timeout
			s.watch = newHopWatch()
			fallthrough
		case ringSlice:
			slice := s.deadline
			if h := st.hedge; h != nil {
				slice = min(wg.Now()+h.after, s.deadline)
			}
			s.at = ringPolled
			if wg.AwaitUntil(ct, target, slice) {
				return true
			}
			fallthrough
		case ringPolled:
			if !wg.Reached() {
				var err error
				if h := st.hedge; h != nil {
					// Only work-group 0 files lag reports: one observer
					// per hop, not reduceWGs of them.
					err = h.expire(st, r.Step, wg.Now(), &s.watch, wg.Group == 0)
				}
				if err == nil && wg.Now() >= s.deadline {
					err = portals.ErrTimeout
				}
				if err != nil {
					if k.failedStep < 0 || r.Step < k.failedStep {
						k.failedStep, k.failCause = r.Step, err
					}
					return false
				}
				s.at = ringSlice
				continue
			}
			fallthrough
		case ringReduce:
			if r.Reduce {
				wg.Compute(k.perWG)
			}
			s.round++
			s.at = ringTop
		}
	}
	return false
}
