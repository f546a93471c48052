package collective

import (
	"errors"
	"fmt"

	"repro/internal/backends"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/nic"
	"repro/internal/node"
	"repro/internal/portals"
	"repro/internal/sim"
)

// Broadcast implements a segmented chain broadcast: the root streams S
// segments down a chain of ranks; every intermediate rank forwards each
// segment as soon as it arrives, so segments pipeline through the chain.
//
// The backend differences isolate the forwarding path: HDN pays the host
// runtime + send processing per forwarded segment, GDS pre-posts the
// forwards as stream doorbells gated on waits, and GPU-TN forwards from
// inside a persistent kernel with triggered puts. Because forwarding needs
// no GPU compute between segments, GDS and GPU-TN perform similarly here —
// GPU-TN's advantage appears when network initiation interleaves with
// kernel compute (see the Allreduce and Jacobi workloads).

// bcastMatchBits addresses the broadcast landing region.
const bcastMatchBits = 0xBC

// BcastConfig describes one broadcast.
type BcastConfig struct {
	Kind       backends.Kind
	Root       int
	TotalBytes int64
	// Segments pipelines the payload; must divide into at least 1 byte
	// per segment.
	Segments int
	// Data optionally supplies the root's fp32 vector for verification.
	Data []float32

	// Timeout, when > 0, bounds each segment wait so a rank whose chain
	// predecessor died surfaces a NeighborFailedError instead of hanging.
	// Unsupported on GDS (stream waits cannot be interrupted).
	Timeout sim.Time
	// DeadNodes lists fail-stop ranks (the root must stay alive). Requires
	// HealChain or a Timeout.
	DeadNodes []int
	// HealChain, with DeadNodes, re-forms the chain over surviving ranks.
	HealChain bool
}

// BcastResult reports one broadcast run.
type BcastResult struct {
	Duration sim.Time
	// Received holds every rank's final vector when Data was supplied
	// (the root's entry is its own copy).
	Received [][]float32
}

type segMsg struct {
	seg  int
	vals []float32
}

type bcastState struct {
	nd     *node.Node
	cfg    BcastConfig
	n      int
	pos    int // position in chain, 0 = root
	recvCT *portals.CT
	vec    []float32
	nelems int

	// chain, when non-nil, is the healed forwarding chain (rank indices in
	// chain order); pos then indexes into it. nil = identity chain.
	chain   []int
	timeout sim.Time
}

// RunBroadcast executes one broadcast and drives the simulation.
func RunBroadcast(c *node.Cluster, cfg BcastConfig) (BcastResult, error) {
	n := c.Size()
	if n < 2 {
		return BcastResult{}, fmt.Errorf("collective: broadcast needs >= 2 nodes")
	}
	if cfg.Root < 0 || cfg.Root >= n {
		return BcastResult{}, fmt.Errorf("collective: root %d outside cluster of %d", cfg.Root, n)
	}
	if cfg.Segments < 1 {
		return BcastResult{}, fmt.Errorf("collective: segments must be >= 1")
	}
	if cfg.TotalBytes < int64(cfg.Segments) {
		return BcastResult{}, fmt.Errorf("collective: %dB cannot split into %d segments", cfg.TotalBytes, cfg.Segments)
	}
	nelems := int(cfg.TotalBytes / elemBytes)
	if cfg.Data != nil && len(cfg.Data) != nelems {
		return BcastResult{}, fmt.Errorf("collective: data has %d elems, want %d", len(cfg.Data), nelems)
	}
	if cfg.Timeout > 0 && cfg.Kind == backends.GDS {
		return BcastResult{}, fmt.Errorf("collective: GDS stream waits cannot time out; use HDN or GPU-TN for timeout runs")
	}
	dead := make(map[int]bool, len(cfg.DeadNodes))
	for _, d := range cfg.DeadNodes {
		if d < 0 || d >= n {
			return BcastResult{}, fmt.Errorf("collective: dead node %d outside cluster of %d", d, n)
		}
		if d == cfg.Root {
			return BcastResult{}, fmt.Errorf("collective: broadcast root %d cannot be dead", d)
		}
		if dead[d] {
			return BcastResult{}, fmt.Errorf("collective: dead node %d listed twice", d)
		}
		dead[d] = true
	}
	if len(cfg.DeadNodes) > 0 {
		if !cfg.HealChain && cfg.Timeout == 0 {
			return BcastResult{}, fmt.Errorf("collective: dead nodes need HealChain or a Timeout, or the survivors hang")
		}
		if n-len(cfg.DeadNodes) < 2 {
			return BcastResult{}, fmt.Errorf("collective: only %d ranks alive, chain needs >= 2", n-len(cfg.DeadNodes))
		}
	}
	heal := cfg.HealChain && len(cfg.DeadNodes) > 0
	// chain holds the surviving ranks in original chain order (root first).
	var chain []int
	if heal {
		for off := 0; off < n; off++ {
			r := (cfg.Root + off) % n
			if !dead[r] {
				chain = append(chain, r)
			}
		}
	}

	states := make([]*bcastState, n)
	for i := 0; i < n; i++ {
		if dead[i] {
			// Fail-stop host, responsive NIC: sink stray segments.
			c.Nodes[i].NIC.ExposeRegion(&nic.Region{IgnoreBits: ^uint64(0)})
			continue
		}
		st := &bcastState{
			nd:      c.Nodes[i],
			cfg:     cfg,
			n:       n,
			pos:     ((i - cfg.Root) + n) % n,
			recvCT:  c.Nodes[i].Ptl.CTAlloc(),
			nelems:  nelems,
			timeout: cfg.Timeout,
		}
		if heal {
			st.chain = chain
			for k, r := range chain {
				if r == i {
					st.pos = k
					break
				}
			}
		}
		if cfg.Data != nil {
			if st.pos == 0 {
				st.vec = append([]float32(nil), cfg.Data...)
			} else {
				st.vec = make([]float32, nelems)
			}
		}
		states[i] = st
	}
	for _, st := range states {
		if st == nil {
			continue
		}
		st := st
		st.nd.Ptl.MEAppend(&portals.ME{
			MatchBits: bcastMatchBits,
			Length:    cfg.TotalBytes,
			CT:        st.recvCT,
			OnDelivery: func(d nic.Delivery) {
				if st.vec == nil {
					return
				}
				msg := d.Data.(segMsg)
				lo, hi := ChunkRange(st.nelems, st.cfg.Segments, msg.seg)
				copy(st.vec[lo:hi], msg.vals)
			},
		})
	}

	res := BcastResult{}
	done := make([]sim.Time, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		st := states[i]
		if st == nil {
			continue
		}
		c.GoRank(i, fmt.Sprintf("bcast.%s.%d", cfg.Kind, i), func(p *sim.Proc) {
			if err := st.run(p); err != nil {
				errs[i] = err
				return
			}
			done[i] = p.Now()
		})
	}
	c.Run()
	if err := errors.Join(errs...); err != nil {
		return res, err
	}
	for i, t := range done {
		if states[i] == nil {
			continue
		}
		if t == 0 {
			return BcastResult{}, fmt.Errorf("collective: a rank never completed broadcast")
		}
		if t > res.Duration {
			res.Duration = t
		}
	}
	if cfg.Data != nil {
		for _, st := range states {
			if st == nil {
				res.Received = append(res.Received, nil)
				continue
			}
			res.Received = append(res.Received, st.vec)
		}
	}
	return res, nil
}

// next returns the chain successor's rank, or -1 at the tail.
func (st *bcastState) next() int {
	if st.chain != nil {
		if st.pos == len(st.chain)-1 {
			return -1
		}
		return st.chain[st.pos+1]
	}
	if st.pos == st.n-1 {
		return -1
	}
	return (st.nd.Index + 1) % st.n
}

// prev returns the chain predecessor's rank (blamed on a timeout).
func (st *bcastState) prev() int {
	if st.chain != nil {
		return st.chain[st.pos-1]
	}
	return (st.nd.Index - 1 + st.n) % st.n
}

// neighborFailed wraps a timed-out segment wait into the typed error.
func (st *bcastState) neighborFailed(seg int, err error) error {
	return &NeighborFailedError{Rank: st.nd.Index, Neighbor: st.prev(), Step: seg, Err: err}
}

func (st *bcastState) segBytes(seg int) int64 {
	lo, hi := ChunkRange(st.nelems, st.cfg.Segments, seg)
	return int64(hi-lo) * elemBytes
}

// segPayload reads the segment at DMA time (after it has been stored by
// the inbound delivery, for forwarding ranks).
func (st *bcastState) segPayload(seg int) any {
	s := seg
	return nic.Deferred(func() any {
		if st.vec == nil {
			return segMsg{seg: s}
		}
		lo, hi := ChunkRange(st.nelems, st.cfg.Segments, s)
		return segMsg{seg: s, vals: append([]float32(nil), st.vec[lo:hi]...)}
	})
}

func (st *bcastState) run(p *sim.Proc) error {
	segs := st.cfg.Segments
	next := st.next()
	switch {
	case st.pos == 0:
		return st.runRoot(p, segs, next)
	case next < 0:
		// Tail: wait for every segment.
		if st.timeout <= 0 {
			st.recvCT.Wait(p, int64(segs))
			return nil
		}
		for s := 0; s < segs; s++ {
			if err := st.recvCT.WaitTimeout(p, int64(s)+1, st.timeout); err != nil {
				return st.neighborFailed(s, err)
			}
		}
		return nil
	default:
		return st.runForwarder(p, segs, next)
	}
}

func (st *bcastState) runRoot(p *sim.Proc, segs, next int) error {
	switch st.cfg.Kind {
	case backends.CPU, backends.HDN:
		md := st.nd.Ptl.MDBind("bcast", st.cfg.TotalBytes, nil, nil)
		for s := 0; s < segs; s++ {
			md.Data = st.segPayload(s)
			backends.HostSend(p, st.nd, md, st.segBytes(s), next, bcastMatchBits)
		}
		return nil
	case backends.GDS:
		stream := st.nd.GPU.NewStream(fmt.Sprintf("gds.bcast.%d", st.nd.Index))
		for s := 0; s < segs; s++ {
			md := st.nd.Ptl.MDBind("bcast.seg", st.segBytes(s), st.segPayload(s), nil)
			stream.EnqueueDoorbell(backends.PrePost(p, st.nd, md, st.segBytes(s), next, bcastMatchBits))
		}
		stream.Sync(p)
		return nil
	case backends.GPUTN:
		return st.gputnSend(p, segs, next, nil)
	default:
		panic(fmt.Sprintf("collective: unknown broadcast backend %v", st.cfg.Kind))
	}
}

func (st *bcastState) runForwarder(p *sim.Proc, segs, next int) error {
	switch st.cfg.Kind {
	case backends.CPU, backends.HDN:
		md := st.nd.Ptl.MDBind("bcast", st.cfg.TotalBytes, nil, nil)
		for s := 0; s < segs; s++ {
			if err := st.recvCT.WaitTimeout(p, int64(s)+1, st.timeout); err != nil {
				return st.neighborFailed(s, err)
			}
			st.nd.CPU.RecvProcessing(p)
			md.Data = st.segPayload(s)
			backends.HostSend(p, st.nd, md, st.segBytes(s), next, bcastMatchBits)
		}
		return nil
	case backends.GDS:
		stream := st.nd.GPU.NewStream(fmt.Sprintf("gds.bcast.%d", st.nd.Index))
		for s := 0; s < segs; s++ {
			md := st.nd.Ptl.MDBind("bcast.seg", st.segBytes(s), st.segPayload(s), nil)
			ring := backends.PrePost(p, st.nd, md, st.segBytes(s), next, bcastMatchBits)
			stream.EnqueueWait(st.recvCT.Raw(), int64(s)+1)
			stream.EnqueueDoorbell(ring)
		}
		stream.Sync(p)
		return nil
	case backends.GPUTN:
		return st.gputnSend(p, segs, next, st.recvCT)
	default:
		panic(fmt.Sprintf("collective: unknown broadcast backend %v", st.cfg.Kind))
	}
}

// gputnSend runs the root/forwarder inside one persistent kernel: for each
// segment, optionally poll for its arrival, then trigger its staged put.
func (st *bcastState) gputnSend(p *sim.Proc, segs, next int, gate *portals.CT) error {
	host := core.NewHost(st.nd.Eng, st.nd.Ptl, st.nd.GPU)
	comp := host.NewCompletion()
	trig := host.GetTriggerAddr()
	failedSeg := -1

	kern := &gpu.Kernel{
		Name:       fmt.Sprintf("gputn.bcast.%d", st.nd.Index),
		WorkGroups: 1,
		Body: func(wg *gpu.WGCtx) {
			for s := 0; s < segs; s++ {
				if gate != nil {
					if !wg.PollUntilFor(gate.Raw(), int64(s)+1, st.timeout) {
						failedSeg = s
						return
					}
				}
				core.TriggerKernel(wg, trig, uint64(s)+1)
			}
		},
	}
	host.LaunchKern(kern)

	register := func(s int) {
		md := st.nd.Ptl.MDBind("tn.bcast", st.segBytes(s), st.segPayload(s), comp.CT)
		if err := host.TrigPut(p, uint64(s)+1, 1, md, st.segBytes(s), next, bcastMatchBits); err != nil {
			panic(fmt.Sprintf("collective: broadcast rank %d seg %d: %v", st.nd.Index, s, err))
		}
	}
	window := trigWindow
	if window > segs {
		window = segs
	}
	for s := 0; s < window; s++ {
		register(s)
	}
	for s := window; s < segs; s++ {
		if st.timeout > 0 {
			if err := comp.CT.WaitTimeout(p, int64(s-window)+1, st.timeout); err != nil {
				break
			}
		} else {
			comp.WaitHost(p, int64(s-window)+1)
		}
		register(s)
	}
	kern.Wait(p)
	if failedSeg >= 0 {
		return st.neighborFailed(failedSeg, portals.ErrTimeout)
	}
	return nil
}
