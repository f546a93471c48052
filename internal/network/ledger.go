package network

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/fault"
	"repro/internal/sim"
)

// ledger is the Fabric's per-node bookkeeping: delivery handlers, the fault
// injector and auditor hooks, and the traffic counters. Every counter is
// indexed by the node that owns it — sends, drops, losses, and corruptions
// by the source (the fault point), deliveries by the destination — so a
// sharded star touches each cell from one engine only.
// The accessors aggregate on read; they are meant for reporting between
// runs, not for concurrent model code.
type ledger struct {
	inj *fault.Injector
	au  *audit.Auditor

	handlers []Handler

	bytesSent      []int64
	bytesDelivered []int64
	msgsDelivered  []int64
	pktsDropped    []int64
	msgsLost       []int64
	msgsCorrupted  []int64
	lastDelivery   []sim.Time
}

func newLedger(n int) ledger {
	return ledger{
		handlers:       make([]Handler, n),
		bytesSent:      make([]int64, n),
		bytesDelivered: make([]int64, n),
		msgsDelivered:  make([]int64, n),
		pktsDropped:    make([]int64, n),
		msgsLost:       make([]int64, n),
		msgsCorrupted:  make([]int64, n),
		lastDelivery:   make([]sim.Time, n),
	}
}

// Nodes returns the number of ports.
func (l *ledger) Nodes() int { return len(l.handlers) }

// Bind installs the delivery handler for a node.
func (l *ledger) Bind(id NodeID, h Handler) { l.handlers[id] = h }

// SetInjector installs the fault injector. A nil injector (the default)
// keeps the fabric lossless.
func (l *ledger) SetInjector(in *fault.Injector) { l.inj = in }

// SetAuditor installs the invariant auditor's per-pair message conservation
// hooks (sends and losses counted by the source, deliveries by the
// destination). Nil keeps the hooks no-ops.
func (l *ledger) SetAuditor(a *audit.Auditor) { l.au = a }

// admit checks a message against the Send preconditions — both endpoints on
// the fabric, no loopback (that is the NIC model's job), a non-negative
// size, a bound destination — then counts it as sent. The caller stamps
// SentAt from the source's engine.
func (l *ledger) admit(m *Message) {
	n := len(l.handlers)
	if int(m.Src) < 0 || int(m.Src) >= n || int(m.Dst) < 0 || int(m.Dst) >= n {
		panic(fmt.Sprintf("network: send %d->%d outside fabric of %d nodes", m.Src, m.Dst, n))
	}
	if m.Src == m.Dst {
		panic("network: fabric does not route loopback traffic")
	}
	if m.Size < 0 {
		panic("network: negative message size")
	}
	if l.handlers[m.Dst] == nil {
		panic(fmt.Sprintf("network: send %d->%d but no handler is bound for node %d (call Bind before sending)", m.Src, m.Dst, m.Dst))
	}
	l.bytesSent[m.Src] += m.Size
	l.au.MessageSent(int(m.Src), int(m.Dst))
}

// lose damages a message (its delivery is suppressed), counting the loss
// once per message against its source.
func (l *ledger) lose(m *Message) {
	if !m.damaged {
		m.damaged = true
		l.msgsLost[m.Src]++
		l.au.MessageLost(int(m.Src), int(m.Dst))
	}
}

// drop accounts one dropped packet of m and loses the message.
func (l *ledger) drop(m *Message) {
	l.pktsDropped[m.Src]++
	l.lose(m)
}

// faultPoint draws the injector's verdict for one packet of m that has
// just serialized onto its source link and is about to pay the hop's post
// latency. A dropped packet still consumed that serialization time. A
// surviving packet may be flagged corrupt (the link checksum catches it),
// silently corrupted (the SDC plan's private RNG flips payload bits the
// link checksum passes), stretched by a degradation window, and jittered.
// It returns the post latency the packet actually pays and whether it was
// dropped. With no injector the packet passes untouched.
func (l *ledger) faultPoint(now sim.Time, m *Message, post sim.Time) (sim.Time, bool) {
	if l.inj == nil {
		return post, false
	}
	src, dst := int(m.Src), int(m.Dst)
	fate := l.inj.Packet(now, src, dst)
	if fate.Drop {
		l.drop(m)
		return post, true
	}
	if fate.Corrupt && !m.Corrupted {
		m.Corrupted = true
		l.msgsCorrupted[src]++
	}
	if l.inj.SDC().WirePacket(now, src, dst) {
		m.SilentCorrupt = true
	}
	if fate.DelayFactor > 1 {
		// Degradation stretches propagation + switching, not serialization:
		// the port drained at full rate, the medium is what got slow.
		post = sim.Time(float64(post) * fate.DelayFactor)
	}
	return post + fate.Delay, false
}

// deliver lands one packet of m (bytes long, the message's last packet when
// last is set) at its destination at now, handing a complete, undamaged
// message to the bound handler.
func (l *ledger) deliver(m *Message, bytes int64, last bool, now sim.Time) {
	dst := m.Dst
	l.bytesDelivered[dst] += bytes
	if !last || m.damaged {
		// A damaged message lost at least one packet: it never completes at
		// the receiver.
		return
	}
	l.msgsDelivered[dst]++
	l.lastDelivery[dst] = now
	l.au.MessageDelivered(int(m.Src), int(dst))
	h := l.handlers[dst]
	if h == nil {
		panic(fmt.Sprintf("network: no handler bound for node %d", dst))
	}
	h(m)
}

// BytesSent returns the bytes injected by a node.
func (l *ledger) BytesSent(id NodeID) int64 { return l.bytesSent[id] }

// BytesDelivered returns the bytes delivered to a node.
func (l *ledger) BytesDelivered(id NodeID) int64 { return l.bytesDelivered[id] }

// MessagesDelivered returns the count of complete messages delivered to a node.
func (l *ledger) MessagesDelivered(id NodeID) int64 { return l.msgsDelivered[id] }

// LastDelivery returns the time of the most recent message delivery.
func (l *ledger) LastDelivery() sim.Time {
	var last sim.Time
	for _, t := range l.lastDelivery {
		if t > last {
			last = t
		}
	}
	return last
}

func sum64(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// PacketsDropped returns the number of packets the fabric dropped.
func (l *ledger) PacketsDropped() int64 { return sum64(l.pktsDropped) }

// MessagesLost returns the number of messages that lost at least one packet
// (or found no route) and were therefore never delivered.
func (l *ledger) MessagesLost() int64 { return sum64(l.msgsLost) }

// MessagesCorrupted returns the number of messages flagged corrupt in flight.
func (l *ledger) MessagesCorrupted() int64 { return sum64(l.msgsCorrupted) }
