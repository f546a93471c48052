package network

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/sim"
)

func netCfg() config.NetworkConfig {
	return config.NetworkConfig{
		LinkLatency:   100 * sim.Nanosecond,
		SwitchLatency: 100 * sim.Nanosecond,
		BandwidthGbps: 100,
		MTUBytes:      4096,
	}
}

func TestSingleMessageLatency(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, netCfg(), 2)
	var arrived sim.Time
	f.Bind(1, func(m *Message) { arrived = e.Now() })
	f.Bind(0, func(m *Message) {})
	e.Go("send", func(p *sim.Proc) {
		f.Send(&Message{Src: 0, Dst: 1, Size: 64, Kind: "put"})
	})
	e.Run()
	// 64B at 100Gbps = 5.12ns, twice (src+dst ser) + 2 links + switch.
	want := 2*sim.Time(5120) + 300*sim.Nanosecond
	if arrived != want {
		t.Fatalf("arrived = %v ps, want %v ps", int64(arrived), int64(want))
	}
}

func TestZeroByteMessage(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, netCfg(), 2)
	delivered := false
	f.Bind(1, func(m *Message) { delivered = true })
	e.Go("send", func(p *sim.Proc) { f.Send(&Message{Src: 0, Dst: 1, Size: 0}) })
	e.Run()
	if !delivered {
		t.Fatal("zero-byte message (pure notification) must still deliver")
	}
}

func TestMultiPacketPipelining(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, netCfg(), 2)
	var arrived sim.Time
	f.Bind(1, func(m *Message) { arrived = e.Now() })
	size := int64(3 * 4096)
	e.Go("send", func(p *sim.Proc) { f.Send(&Message{Src: 0, Dst: 1, Size: size}) })
	e.Run()
	ser := sim.BytesAtGbps(4096, 100)
	// Pipelined: 3 chunks on stage 1 + 1 chunk on stage 2 + fixed latency.
	want := 4*ser + 300*sim.Nanosecond
	if arrived != want {
		t.Fatalf("arrived = %v, want %v", arrived, want)
	}
}

func TestPerPairOrdering(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, netCfg(), 2)
	var got []int
	f.Bind(1, func(m *Message) { got = append(got, m.Payload.(int)) })
	e.Go("send", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			f.Send(&Message{Src: 0, Dst: 1, Size: int64(10 + i*100), Payload: i})
			p.Sleep(sim.Nanosecond)
		}
	})
	e.Run()
	if len(got) != 20 {
		t.Fatalf("delivered %d/20", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("reordered: %v", got)
		}
	}
}

func TestDestinationContention(t *testing.T) {
	// Two senders blast one destination; aggregate delivery rate must not
	// exceed the port rate.
	e := sim.NewEngine()
	f := New(e, netCfg(), 3)
	f.Bind(2, func(m *Message) {})
	const msgSize = 64 << 10
	e.Go("s0", func(p *sim.Proc) { f.Send(&Message{Src: 0, Dst: 2, Size: msgSize}) })
	e.Go("s1", func(p *sim.Proc) { f.Send(&Message{Src: 1, Dst: 2, Size: msgSize}) })
	e.Run()
	elapsed := f.LastDelivery()
	minTime := sim.BytesAtGbps(2*msgSize, 100) // dst port serialization floor
	if elapsed < minTime {
		t.Fatalf("2x%dB delivered in %v, faster than port rate floor %v", msgSize, elapsed, minTime)
	}
	if f.BytesDelivered(2) != 2*msgSize {
		t.Fatalf("delivered %d bytes", f.BytesDelivered(2))
	}
}

func TestAccountingAndStats(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, netCfg(), 4)
	for i := 0; i < 4; i++ {
		f.Bind(NodeID(i), func(m *Message) {})
	}
	e.Go("traffic", func(p *sim.Proc) {
		f.Send(&Message{Src: 0, Dst: 1, Size: 1000})
		f.Send(&Message{Src: 0, Dst: 2, Size: 500})
		f.Send(&Message{Src: 3, Dst: 1, Size: 700})
	})
	e.Run()
	if f.BytesSent(0) != 1500 || f.BytesSent(3) != 700 {
		t.Errorf("BytesSent = %d,%d", f.BytesSent(0), f.BytesSent(3))
	}
	if f.BytesDelivered(1) != 1700 || f.MessagesDelivered(1) != 2 {
		t.Errorf("node1 delivered %dB/%d msgs", f.BytesDelivered(1), f.MessagesDelivered(1))
	}
	if f.Nodes() != 4 {
		t.Errorf("Nodes = %d", f.Nodes())
	}
}

func TestSendValidation(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, netCfg(), 2)
	mustPanic := func(name string, m *Message) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f.Send(m)
	}
	mustPanic("loopback", &Message{Src: 1, Dst: 1, Size: 1})
	mustPanic("out of range", &Message{Src: 0, Dst: 5, Size: 1})
	mustPanic("negative size", &Message{Src: 0, Dst: 1, Size: -1})
}

func TestUnboundHandlerPanics(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, netCfg(), 2)
	e.Go("send", func(p *sim.Proc) { f.Send(&Message{Src: 0, Dst: 1, Size: 8}) })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic for unbound handler")
		}
		// The failure must be immediate and name the unbound node, not
		// surface later as a mystery at delivery time.
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "node 1") || !strings.Contains(msg, "Bind") {
			t.Fatalf("panic %q does not name the unbound node", msg)
		}
	}()
	e.Run()
}

// Property: all injected bytes are eventually delivered, per-pair order
// holds, and no port beats its rate floor, under random traffic.
func TestFabricConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		n := rng.Intn(4) + 2
		fab := New(e, netCfg(), n)
		type pair struct{ s, d NodeID }
		lastSeen := map[pair]int{}
		ok := true
		for i := 0; i < n; i++ {
			i := i
			fab.Bind(NodeID(i), func(m *Message) {
				pr := pair{m.Src, m.Dst}
				seq := m.Payload.(int)
				if seq <= lastSeen[pr] {
					ok = false
				}
				lastSeen[pr] = seq
			})
		}
		totalSent := int64(0)
		nmsgs := rng.Intn(30) + 1
		e.Go("gen", func(p *sim.Proc) {
			for i := 1; i <= nmsgs; i++ {
				src := NodeID(rng.Intn(n))
				dst := NodeID(rng.Intn(n))
				if src == dst {
					continue
				}
				size := int64(rng.Intn(20000))
				totalSent += size
				fab.Send(&Message{Src: src, Dst: dst, Size: size, Payload: i})
				p.Sleep(sim.Time(rng.Intn(1000)) * sim.Nanosecond)
			}
		})
		e.Run()
		var delivered int64
		for i := 0; i < n; i++ {
			delivered += fab.BytesDelivered(NodeID(i))
		}
		return ok && delivered == totalSent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestManyNodesAllToAll(t *testing.T) {
	e := sim.NewEngine()
	n := 8
	f := New(e, netCfg(), n)
	recv := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		f.Bind(NodeID(i), func(m *Message) { recv[i]++ })
	}
	e.Go("gen", func(p *sim.Proc) {
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s != d {
					f.Send(&Message{Src: NodeID(s), Dst: NodeID(d), Size: 4096, Kind: "a2a"})
				}
			}
		}
	})
	e.Run()
	for i, c := range recv {
		if c != n-1 {
			t.Errorf("node %d received %d, want %d", i, c, n-1)
		}
	}
}

func BenchmarkFabric64B(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		f := New(e, netCfg(), 2)
		f.Bind(1, func(m *Message) {})
		e.Go("s", func(p *sim.Proc) {
			for j := 0; j < 100; j++ {
				f.Send(&Message{Src: 0, Dst: 1, Size: 64})
			}
		})
		e.Run()
	}
}

func ExampleFabric() {
	e := sim.NewEngine()
	f := New(e, netCfg(), 2)
	f.Bind(1, func(m *Message) {
		fmt.Printf("node 1 got %dB %s at %v\n", m.Size, m.Kind, e.Now())
	})
	e.Go("sender", func(p *sim.Proc) {
		f.Send(&Message{Src: 0, Dst: 1, Size: 64, Kind: "put"})
	})
	e.Run()
	// Output: node 1 got 64B put at 310ns
}
