package network

import (
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

// laneRig places n nodes round-robin over engines (node i on lane i+1, as
// node.NewCluster lays a cluster out) and binds a handler per node that
// records the lane it ran under.
func laneRig(t *testing.T, cfg config.NetworkConfig, n, engines int) (*Fabric, *sim.Sharded, []*sim.Engine, []uint32) {
	t.Helper()
	engs := make([]*sim.Engine, engines)
	for k := range engs {
		engs[k] = sim.NewEngine()
	}
	sh := sim.NewSharded(engs, Lookahead(cfg))
	engOf := make([]*sim.Engine, n)
	laneOf := make([]uint32, n)
	for i := range engOf {
		engOf[i], laneOf[i] = engs[i%engines], uint32(i+1)
	}
	f := New(engs[0], cfg, n)
	f.SetSharding(sh, engOf, laneOf)
	const notRun = ^uint32(0)
	got := make([]uint32, n)
	for i := 0; i < n; i++ {
		got[i] = notRun
		i := i
		f.Bind(NodeID(i), func(m *Message) { got[i] = engOf[i].Lane() })
	}
	t.Cleanup(func() {
		for i, l := range got {
			if l != notRun && l != laneOf[i] {
				t.Errorf("node %d's handler ran on lane %d, want its own lane %d", i, l, laneOf[i])
			}
		}
	})
	return f, sh, engOf, laneOf
}

// A delivery handler runs under its destination node's lane whatever the
// route: the flight into the destination's ingress port is the fabric's
// one lane hand-off, so a node's event order is the same on any engine
// count.
func TestDeliveryRunsOnDestinationLane(t *testing.T) {
	cases := []struct {
		name     string
		cfg      config.NetworkConfig
		n        int
		engines  int
		src, dst NodeID
	}{
		{"star", netCfg(), 4, 1, 0, 3},
		{"star-2-engines", netCfg(), 4, 2, 0, 3},
		{"fattree-same-leaf", ftCfg(), 16, 1, 0, 1},
		{"fattree-intra-pod", ftCfg(), 16, 1, 0, 5},
		{"fattree-cross-pod", ftCfg(), 16, 1, 0, 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, sh, engOf, laneOf := laneRig(t, tc.cfg, tc.n, tc.engines)
			se := engOf[tc.src]
			se.SetLane(laneOf[tc.src])
			se.After(0, func() { f.Send(&Message{Src: tc.src, Dst: tc.dst, Size: 3 * 4096}) })
			se.SetLane(0)
			sh.Run()
			if f.MessagesDelivered(tc.dst) != 1 {
				t.Fatalf("delivered %d messages to node %d, want 1", f.MessagesDelivered(tc.dst), tc.dst)
			}
		})
	}
}

// Steady-state Send→deliver allocates nothing in the fabric: frames come
// from per-node pools with a pre-bound arrive callback and carry their
// route by value. The exchange is a ping-pong so each direction refills
// the pool the other drains.
func TestSteadyStateSendAllocatesNothing(t *testing.T) {
	cases := []struct {
		name string
		cfg  config.NetworkConfig
		n    int
		a, b NodeID
	}{
		{"star", netCfg(), 4, 0, 3},
		{"fattree", ftCfg(), 16, 0, 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine()
			f := New(e, tc.cfg, tc.n)
			for i := 0; i < tc.n; i++ {
				f.Bind(NodeID(i), func(*Message) {})
			}
			ping := &Message{Src: tc.a, Dst: tc.b, Size: 3 * 4096}
			pong := &Message{Src: tc.b, Dst: tc.a, Size: 3 * 4096}
			exchange := func() {
				f.Send(ping)
				e.Run()
				f.Send(pong)
				e.Run()
			}
			exchange() // warm the pools, port queues and the engine arena
			if allocs := testing.AllocsPerRun(100, exchange); allocs != 0 {
				t.Fatalf("steady-state exchange allocated %v times per run, want 0", allocs)
			}
			if got := f.MessagesDelivered(tc.b); got != 102 {
				t.Fatalf("delivered %d pings, want 102", got)
			}
		})
	}
}
