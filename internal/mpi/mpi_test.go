package mpi

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/node"
	"repro/internal/sim"
)

func newComms(t testing.TB, n int) (*node.Cluster, []*Comm) {
	t.Helper()
	c := node.NewCluster(config.Default(), n)
	comms := make([]*Comm, n)
	for i := range comms {
		comms[i] = New(c.Nodes[i], 0)
	}
	return c, comms
}

func TestEagerSendRecv(t *testing.T) {
	c, comms := newComms(t, 2)
	var got Message
	c.Eng.Go("sender", func(p *sim.Proc) {
		comms[0].Send(p, 1, 7, 1024, "hello")
	})
	c.Eng.Go("receiver", func(p *sim.Proc) {
		got = comms[1].Recv(p, 0, 7)
	})
	c.Run()
	if got.Data != "hello" || got.Source != 0 || got.Tag != 7 || got.Size != 1024 {
		t.Fatalf("got %+v", got)
	}
	if comms[0].Stats().EagerSends != 1 || comms[0].Stats().RendezvousSends != 0 {
		t.Fatalf("stats = %+v", comms[0].Stats())
	}
}

func TestRendezvousSendRecv(t *testing.T) {
	c, comms := newComms(t, 2)
	size := int64(1 << 20) // above eager limit
	var got Message
	c.Eng.Go("sender", func(p *sim.Proc) {
		comms[0].Send(p, 1, 3, size, "big")
	})
	c.Eng.Go("receiver", func(p *sim.Proc) {
		p.Sleep(5 * sim.Microsecond) // recv posted after RTS arrives
		got = comms[1].Recv(p, 0, 3)
	})
	c.Run()
	if got.Data != "big" || got.Size != size {
		t.Fatalf("got %+v", got)
	}
	if comms[0].Stats().RendezvousSends != 1 {
		t.Fatalf("stats = %+v", comms[0].Stats())
	}
}

func TestRendezvousCostsMoreLatencyThanEager(t *testing.T) {
	// The RTS/CTS round trip is the protocol cost pre-registered GPU-TN
	// operations never pay.
	run := func(eagerLimit int64) sim.Time {
		c := node.NewCluster(config.Default(), 2)
		c0, c1 := New(c.Nodes[0], eagerLimit), New(c.Nodes[1], eagerLimit)
		var done sim.Time
		c.Eng.Go("s", func(p *sim.Proc) { c0.Send(p, 1, 1, 4096, nil) })
		c.Eng.Go("r", func(p *sim.Proc) {
			c1.Recv(p, 0, 1)
			done = p.Now()
		})
		c.Run()
		return done
	}
	eager := run(1 << 20) // 4KB is eager
	rndv := run(1)        // 4KB forces rendezvous
	if rndv <= eager {
		t.Fatalf("rendezvous (%v) should cost more than eager (%v)", rndv, eager)
	}
	// At least one extra network round trip (~600ns) plus processing.
	if rndv-eager < 600*sim.Nanosecond {
		t.Fatalf("rendezvous penalty only %v", rndv-eager)
	}
}

func TestUnexpectedMessageQueue(t *testing.T) {
	c, comms := newComms(t, 2)
	var got Message
	c.Eng.Go("sender", func(p *sim.Proc) {
		comms[0].Send(p, 1, 5, 64, "early")
	})
	c.Eng.Go("receiver", func(p *sim.Proc) {
		p.Sleep(20 * sim.Microsecond) // message arrives long before the recv
		got = comms[1].Recv(p, 0, 5)
	})
	c.Run()
	if got.Data != "early" {
		t.Fatalf("got %+v", got)
	}
}

func TestTagAndSourceMatching(t *testing.T) {
	c, comms := newComms(t, 3)
	var byTag, bySrc, wild Message
	c.Eng.Go("s0", func(p *sim.Proc) {
		comms[0].Send(p, 2, 1, 8, "tag1-from0")
		comms[0].Send(p, 2, 2, 8, "tag2-from0")
	})
	c.Eng.Go("s1", func(p *sim.Proc) {
		p.Sleep(2 * sim.Microsecond)
		comms[1].Send(p, 2, 1, 8, "tag1-from1")
	})
	c.Eng.Go("recv", func(p *sim.Proc) {
		byTag = comms[2].Recv(p, 0, 2)             // tag match skips tag 1
		bySrc = comms[2].Recv(p, 1, AnyTag)        // source match
		wild = comms[2].Recv(p, AnySource, AnyTag) // takes the remaining one
	})
	c.Run()
	if byTag.Data != "tag2-from0" {
		t.Errorf("byTag = %+v", byTag)
	}
	if bySrc.Data != "tag1-from1" {
		t.Errorf("bySrc = %+v", bySrc)
	}
	if wild.Data != "tag1-from0" {
		t.Errorf("wild = %+v", wild)
	}
}

func TestPerSourceFIFOOrder(t *testing.T) {
	c, comms := newComms(t, 2)
	var got []any
	c.Eng.Go("sender", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			comms[0].Send(p, 1, 1, 8, i)
		}
	})
	c.Eng.Go("receiver", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			got = append(got, comms[1].Recv(p, 0, 1).Data)
		}
	})
	c.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestConcurrentRendezvousDoNotCross(t *testing.T) {
	c, comms := newComms(t, 3)
	var got1, got2 Message
	c.Eng.Go("s0", func(p *sim.Proc) { comms[0].Send(p, 2, 1, 1<<20, "fromA") })
	c.Eng.Go("s1", func(p *sim.Proc) { comms[1].Send(p, 2, 1, 1<<20, "fromB") })
	c.Eng.Go("recv", func(p *sim.Proc) {
		got1 = comms[2].Recv(p, 0, 1)
		got2 = comms[2].Recv(p, 1, 1)
	})
	c.Run()
	if got1.Data != "fromA" || got2.Data != "fromB" {
		t.Fatalf("rendezvous crossed: %v / %v", got1.Data, got2.Data)
	}
}

func TestSendValidation(t *testing.T) {
	c, comms := newComms(t, 2)
	c.Eng.Go("p", func(p *sim.Proc) {
		for name, f := range map[string]func(){
			"self":         func() { comms[0].Send(p, 0, 1, 8, nil) },
			"out of range": func() { comms[0].Send(p, 9, 1, 8, nil) },
			"negative tag": func() { comms[0].Send(p, 1, -2, 8, nil) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: expected panic", name)
					}
				}()
				f()
			}()
		}
	})
	c.Run()
}

func TestManyRanksRing(t *testing.T) {
	const n = 6
	c, comms := newComms(t, n)
	sums := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		c.Eng.Go(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			right := (i + 1) % n
			left := (i - 1 + n) % n
			// Eager sends complete without the receiver, so every rank
			// can send before it receives.
			comms[i].Send(p, right, 1, 8, i)
			sums[i] = comms[i].Recv(p, left, 1).Data.(int)
		})
	}
	c.Run()
	for i, v := range sums {
		if v != (i-1+n)%n {
			t.Fatalf("rank %d got %d", i, v)
		}
	}
}
