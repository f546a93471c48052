// Package mpi implements the two-sided send/recv messaging layer the
// paper's HDN baseline assumes ("network messages are performed on GPU
// kernel boundaries using two sided send/recv semantics"): tag matching
// with wildcards, an unexpected-message queue, and both eager and
// rendezvous (RTS/CTS) protocols, built entirely on the one-sided
// Portals-style substrate.
//
// The package exists as a substrate in its own right: the calibrated
// workload drivers use the flat-cost host send model of package backends,
// while these semantics are exercised by their own tests and available
// for protocol studies (e.g. the rendezvous round trip that a
// pre-registered GPU-TN operation never pays).
package mpi

import (
	"fmt"

	"repro/internal/nic"
	"repro/internal/node"
	"repro/internal/portals"
	"repro/internal/sim"
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// mpiMatchBits addresses the MPI layer's landing region on every rank.
const mpiMatchBits = 0x4D50 // "MP"

// DefaultEagerLimit is the protocol switch point: payloads at or below it
// ship with the first message; larger ones negotiate RTS/CTS first.
const DefaultEagerLimit = 64 << 10

type msgKind int

const (
	kindEager msgKind = iota
	kindRTS
	kindCTS
	kindData
)

// wire is the payload of every MPI-layer message.
type wire struct {
	kind  msgKind
	src   int
	tag   int
	size  int64
	data  any
	rtsID uint64
}

// envelope is one entry of the receive-side matching queue.
type envelope struct {
	src   int
	tag   int
	size  int64
	data  any
	rts   bool
	rtsID uint64
}

// Comm is one rank's communicator.
type Comm struct {
	nd         *node.Node
	eagerLimit int64

	inbox   []*envelope
	arrived *sim.Signal

	rtsSeq uint64
	// ctsWait[rtsID] is bumped when the matching CTS arrives.
	ctsWait map[uint64]*sim.Counter
	// dataWait[rtsID] is bumped when the rendezvous data lands.
	dataArrived map[uint64]*envelope

	stats Stats
}

// Stats counts protocol activity.
type Stats struct {
	EagerSends      int64
	RendezvousSends int64
	Unexpected      int64 // messages that arrived before a matching recv
}

// New creates the communicator for a node and exposes its landing region.
// eagerLimit ≤ 0 selects DefaultEagerLimit.
func New(nd *node.Node, eagerLimit int64) *Comm {
	if eagerLimit <= 0 {
		eagerLimit = DefaultEagerLimit
	}
	c := &Comm{
		nd:          nd,
		eagerLimit:  eagerLimit,
		arrived:     sim.NewSignal(nd.Eng),
		ctsWait:     map[uint64]*sim.Counter{},
		dataArrived: map[uint64]*envelope{},
	}
	nd.Ptl.MEAppend(&portals.ME{
		MatchBits:  mpiMatchBits,
		Length:     1 << 62,
		OnDelivery: func(d nic.Delivery) { c.deliver(d.Data.(*wire)) },
	})
	return c
}

// Rank returns this communicator's rank.
func (c *Comm) Rank() int { return c.nd.Ptl.Rank() }

// Size returns the world size.
func (c *Comm) Size() int { return c.nd.Ptl.Size() }

// Stats returns a snapshot of protocol counters.
func (c *Comm) Stats() Stats { return c.stats }

func (c *Comm) deliver(w *wire) {
	switch w.kind {
	case kindEager:
		c.inbox = append(c.inbox, &envelope{src: w.src, tag: w.tag, size: w.size, data: w.data})
	case kindRTS:
		c.inbox = append(c.inbox, &envelope{src: w.src, tag: w.tag, size: w.size, rts: true, rtsID: w.rtsID})
	case kindCTS:
		ct := c.ctsWait[w.rtsID]
		if ct == nil {
			panic(fmt.Sprintf("mpi: CTS for unknown rendezvous %d", w.rtsID))
		}
		ct.Add(1)
	case kindData:
		c.dataArrived[w.rtsID] = &envelope{src: w.src, tag: w.tag, size: w.size, data: w.data}
		c.arrived.Broadcast()
		return
	default:
		panic(fmt.Sprintf("mpi: unknown wire kind %d", w.kind))
	}
	c.arrived.Broadcast()
}

// put issues one MPI-layer message to dest.
func (c *Comm) put(p *sim.Proc, dest int, w *wire, size int64) {
	md := c.nd.Ptl.MDBind("mpi", size, w, nil)
	c.nd.Ptl.Put(p, md, size, dest, mpiMatchBits)
}

// Send performs a blocking standard-mode send. size is the payload in
// bytes; data is the opaque payload delivered to the matching Recv.
func (c *Comm) Send(p *sim.Proc, dest, tag int, size int64, data any) {
	if dest < 0 || dest >= c.Size() || dest == c.Rank() {
		panic(fmt.Sprintf("mpi: invalid destination %d", dest))
	}
	if tag < 0 {
		panic("mpi: send tag must be non-negative")
	}
	c.nd.CPU.RuntimeCall(p)
	c.nd.CPU.SendProcessing(p)
	if size <= c.eagerLimit {
		c.stats.EagerSends++
		c.put(p, dest, &wire{kind: kindEager, src: c.Rank(), tag: tag, size: size, data: data}, size)
		return
	}
	// Rendezvous: RTS, wait for CTS, then the data put.
	c.stats.RendezvousSends++
	c.rtsSeq++
	id := c.rtsSeq<<8 | uint64(c.Rank())
	cts := sim.NewCounter(c.nd.Eng)
	c.ctsWait[id] = cts
	c.put(p, dest, &wire{kind: kindRTS, src: c.Rank(), tag: tag, size: size, rtsID: id}, 32)
	cts.WaitGE(p, 1)
	delete(c.ctsWait, id)
	c.nd.CPU.SendProcessing(p)
	c.put(p, dest, &wire{kind: kindData, src: c.Rank(), tag: tag, size: size, data: data, rtsID: id}, size)
}

// Message is a completed receive.
type Message struct {
	Source int
	Tag    int
	Size   int64
	Data   any
}

// Recv performs a blocking receive matching (src, tag), either of which
// may be a wildcard. Matching follows arrival order among eligible
// messages, preserving MPI's per-source FIFO guarantee.
func (c *Comm) Recv(p *sim.Proc, src, tag int) Message {
	for {
		for i, env := range c.inbox {
			if !matches(env, src, tag) {
				continue
			}
			c.inbox = append(c.inbox[:i], c.inbox[i+1:]...)
			if !env.rts {
				c.nd.CPU.RecvProcessing(p)
				return Message{Source: env.src, Tag: env.tag, Size: env.size, Data: env.data}
			}
			return c.finishRendezvous(p, env)
		}
		c.stats.Unexpected++ // a wait implies the message was not yet here
		c.arrived.Wait(p)
	}
}

// finishRendezvous answers an RTS with a CTS and waits for the data.
func (c *Comm) finishRendezvous(p *sim.Proc, env *envelope) Message {
	c.nd.CPU.RecvProcessing(p)
	c.put(p, env.src, &wire{kind: kindCTS, src: c.Rank(), rtsID: env.rtsID}, 32)
	for {
		if data, ok := c.dataArrived[env.rtsID]; ok {
			delete(c.dataArrived, env.rtsID)
			c.nd.CPU.RecvProcessing(p)
			return Message{Source: data.src, Tag: data.tag, Size: data.size, Data: data.data}
		}
		c.arrived.Wait(p)
	}
}

func matches(env *envelope, src, tag int) bool {
	if src != AnySource && env.src != src {
		return false
	}
	if tag != AnyTag && env.tag != tag {
		return false
	}
	return true
}
