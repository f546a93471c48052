package collective

import (
	"fmt"

	"repro/internal/nic"
	"repro/internal/node"
	"repro/internal/portals"
	"repro/internal/sim"
)

// This file implements the libNBC model the paper builds on (§5.4.1):
// "when a collective is called from the application, libNBC creates a
// schedule of subtasks that completely define all operations and
// dependencies... the collective operation is performed asynchronously by
// stepping through the schedule of tasks in the MPI runtime itself."
//
// A Schedule is a sequence of rounds of sends and receives; every subtask
// of a round may proceed concurrently, and a round's sends wait for all
// receives of the rounds before it. Offload hands the schedule to the NIC
// wholesale: it converts every send into a Portals triggered operation
// gated on the count of preceding receives, after which the NIC
// progresses the entire collective with no host or GPU involvement —
// "collective operations were one of the original motivations for the
// introduction of triggered network semantics". It returns a Request, so
// the caller can overlap computation — the "non-blocking" in NBC.

// ActionKind enumerates schedule subtasks.
type ActionKind int

const (
	// ActSend transmits Size bytes to Peer's MatchBits region.
	ActSend ActionKind = iota
	// ActRecv waits for Count inbound messages on the schedule's region.
	ActRecv
)

func (k ActionKind) String() string {
	switch k {
	case ActSend:
		return "send"
	case ActRecv:
		return "recv"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// Action is one schedule subtask.
type Action struct {
	Kind ActionKind

	// Send fields.
	Peer      int
	Size      int64
	MatchBits uint64
	// Payload is resolved at NIC DMA time (nil payloads ship metadata-free).
	Payload func() any

	// Recv fields.
	Count int64
}

// Schedule is a per-rank plan: rounds execute in order; subtasks within a
// round execute concurrently.
type Schedule struct {
	Rounds [][]Action
}

// Validate checks structural sanity against a world size.
func (s *Schedule) Validate(rank, size int) error {
	for ri, round := range s.Rounds {
		for ai, a := range round {
			switch a.Kind {
			case ActSend:
				if a.Peer < 0 || a.Peer >= size || a.Peer == rank {
					return fmt.Errorf("collective: round %d action %d: bad peer %d", ri, ai, a.Peer)
				}
				if a.Size < 0 {
					return fmt.Errorf("collective: round %d action %d: negative size", ri, ai)
				}
			case ActRecv:
				if a.Count <= 0 {
					return fmt.Errorf("collective: round %d action %d: recv count %d", ri, ai, a.Count)
				}
			default:
				return fmt.Errorf("collective: round %d action %d: unknown kind", ri, ai)
			}
		}
	}
	return nil
}

// recvsBefore returns the cumulative ActRecv count of rounds [0, k).
func (s *Schedule) recvsBefore(k int) int64 {
	var total int64
	for _, round := range s.Rounds[:k] {
		for _, a := range round {
			if a.Kind == ActRecv {
				total += a.Count
			}
		}
	}
	return total
}

// Request is an in-flight non-blocking collective.
type Request struct {
	done *sim.Counter
}

// Wait parks p until the schedule has fully executed (NBC_Wait).
func (r *Request) Wait(p *sim.Proc) { r.done.WaitGE(p, 1) }

// NBC binds a rank's schedule execution state: the inbound region and its
// counting event. One NBC instance serves many sequential schedules.
type NBC struct {
	nd     *node.Node
	recvCT *portals.CT
	// consumed tracks receives already claimed by completed schedules.
	consumed int64
	// mb is this NBC instance's landing region.
	mb uint64
	// OnDelivery, when non-nil, observes every inbound payload (data
	// plane for verifying tests).
	OnDelivery func(d nic.Delivery)
}

// NewNBC exposes the schedule's landing region on a node. matchBits must
// be unique per NBC instance per node.
func NewNBC(nd *node.Node, matchBits uint64) *NBC {
	n := &NBC{nd: nd, recvCT: nd.Ptl.CTAlloc(), mb: matchBits}
	nd.Ptl.MEAppend(&portals.ME{
		MatchBits: matchBits,
		Length:    1 << 62,
		CT:        n.recvCT,
		OnDelivery: func(d nic.Delivery) {
			if n.OnDelivery != nil {
				n.OnDelivery(d)
			}
		},
	})
	return n
}

// Offload hands a schedule to the NIC: every send of round k becomes a
// triggered put gated on the arrival of all receives of rounds < k
// (counted on the NBC's receive CT). The call returns once the
// operations are registered; the NIC then progresses the collective with
// no further host involvement. The returned Request completes when the
// final round's receives have arrived and all sends have locally
// completed.
func (n *NBC) Offload(p *sim.Proc, sched *Schedule) (*Request, error) {
	rank, size := n.nd.Ptl.Rank(), n.nd.Ptl.Size()
	if err := sched.Validate(rank, size); err != nil {
		return nil, err
	}
	base := n.consumed
	totalRecvs := sched.recvsBefore(len(sched.Rounds))
	n.consumed += totalRecvs

	sendCT := n.nd.Ptl.CTAlloc()
	totalSends := 0
	for k, round := range sched.Rounds {
		gate := base + sched.recvsBefore(k)
		for _, a := range round {
			if a.Kind != ActSend {
				continue
			}
			payload := any(nil)
			if a.Payload != nil {
				pf := a.Payload
				payload = nic.Deferred(func() any { return pf() })
			}
			md := n.nd.Ptl.MDBind("nbc.offload", a.Size, payload, sendCT)
			if gate == 0 {
				// Round-0 sends launch immediately.
				n.nd.Ptl.Put(p, md, a.Size, a.Peer, a.MatchBits)
			} else {
				n.nd.Ptl.TriggeredPut(p, md, a.Size, a.Peer, a.MatchBits, n.recvCT, gate)
			}
			totalSends++
		}
	}
	req := &Request{done: sim.NewCounter(n.nd.Eng)}
	sends := int64(totalSends)
	recvGoal := base + totalRecvs
	n.nd.Eng.GoLane(n.nd.Lane, fmt.Sprintf("nbc.offload.%d", rank), func(wp *sim.Proc) {
		n.recvCT.Wait(wp, recvGoal)
		sendCT.Wait(wp, sends)
		req.done.Add(1)
	})
	return req, nil
}
