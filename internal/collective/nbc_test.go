package collective

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/nic"
	"repro/internal/node"
	"repro/internal/sim"
)

const nbcMB = 0x4E0

// allgatherWorld wires an NBC per rank with a block-store data plane.
type agRank struct {
	nbc    *NBC
	blocks [][]float32
}

type agMsg struct {
	block int
	vals  []float32
}

func newAllgatherWorld(t testing.TB, n, blockElems int) (*node.Cluster, []*agRank) {
	t.Helper()
	c := node.NewCluster(config.Default(), n)
	ranks := make([]*agRank, n)
	for i := 0; i < n; i++ {
		r := &agRank{nbc: NewNBC(c.Nodes[i], nbcMB), blocks: make([][]float32, n)}
		r.blocks[i] = make([]float32, blockElems)
		for j := range r.blocks[i] {
			r.blocks[i][j] = float32(i*1000 + j)
		}
		rr := r
		r.nbc.OnDelivery = func(d nic.Delivery) {
			msg := d.Data.(agMsg)
			rr.blocks[msg.block] = append([]float32(nil), msg.vals...)
		}
		ranks[i] = r
	}
	return c, ranks
}

func checkAllgather(t *testing.T, ranks []*agRank, blockElems int) {
	t.Helper()
	for i, r := range ranks {
		for b, blk := range r.blocks {
			if len(blk) != blockElems {
				t.Fatalf("rank %d block %d missing", i, b)
			}
			for j, v := range blk {
				if v != float32(b*1000+j) {
					t.Fatalf("rank %d block %d elem %d = %v", i, b, j, v)
				}
			}
		}
	}
}

func agSchedule(t testing.TB, rank int, ranks []*agRank, blockElems int) *Schedule {
	t.Helper()
	n := len(ranks)
	r := ranks[rank]
	sched, err := AllgatherSchedule(rank, n, int64(blockElems)*4, nbcMB, func(block int) any {
		return agMsg{block: block, vals: append([]float32(nil), r.blocks[block]...)}
	})
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

func TestNBCAllgatherOffload(t *testing.T) {
	// The same collective fully offloaded to the NIC: the host registers
	// triggered puts and goes idle; chained triggered operations progress
	// the ring autonomously.
	const n, blockElems = 5, 16
	c, ranks := newAllgatherWorld(t, n, blockElems)
	registered := make([]sim.Time, n)
	completed := make([]sim.Time, n)
	for i := 0; i < n; i++ {
		i := i
		c.Eng.Go(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			req, err := ranks[i].nbc.Offload(p, agSchedule(t, i, ranks, blockElems))
			if err != nil {
				t.Error(err)
				return
			}
			registered[i] = p.Now() // host is done here
			req.Wait(p)
			completed[i] = p.Now()
		})
	}
	c.Run()
	checkAllgather(t, ranks, blockElems)
	for i := 0; i < n; i++ {
		// Registration is cheap; completion takes rounds of network time.
		if registered[i] >= completed[i] {
			t.Fatalf("rank %d: offload did not progress after registration", i)
		}
		if registered[i] > 10*sim.Microsecond {
			t.Fatalf("rank %d: registration took %v — host not off the critical path", i, registered[i])
		}
	}
}

// The point of NBC: the host computes while the NIC runs the offloaded
// allgather, so compute and collective overlap instead of adding up.
func TestNBCNonBlockingOverlap(t *testing.T) {
	const n, blockElems = 4, 256
	// run offloads the allgather, computes for compute on every host, then
	// waits; it returns when rank 0 finished computing and collecting.
	run := func(compute sim.Time) (computeDone, collectiveDone sim.Time) {
		c, ranks := newAllgatherWorld(t, n, blockElems)
		for i := 0; i < n; i++ {
			i := i
			c.Eng.Go(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
				req, err := ranks[i].nbc.Offload(p, agSchedule(t, i, ranks, blockElems))
				if err != nil {
					t.Error(err)
					return
				}
				p.Sleep(compute) // overlapped computation
				if i == 0 {
					computeDone = p.Now()
				}
				req.Wait(p)
				if i == 0 {
					collectiveDone = p.Now()
				}
			})
		}
		c.Run()
		checkAllgather(t, ranks, blockElems)
		return computeDone, collectiveDone
	}
	_, alone := run(0)
	computeDone, collectiveDone := run(alone)
	// Serialized, the two would take 2*alone; overlapped, the collective
	// has finished by the time the host computation ends.
	if computeDone < alone || collectiveDone >= 2*alone {
		t.Fatalf("compute done %v / collective done %v: serialized (collective alone %v)", computeDone, collectiveDone, alone)
	}
	if collectiveDone != computeDone {
		t.Fatalf("collective done %v after compute done %v: no overlap (collective alone %v)",
			collectiveDone, computeDone, alone)
	}
}

func TestScheduleValidate(t *testing.T) {
	bad := []*Schedule{
		{Rounds: [][]Action{{{Kind: ActSend, Peer: 0}}}},           // self
		{Rounds: [][]Action{{{Kind: ActSend, Peer: 9}}}},           // range
		{Rounds: [][]Action{{{Kind: ActSend, Peer: 1, Size: -1}}}}, // size
		{Rounds: [][]Action{{{Kind: ActRecv, Count: 0}}}},          // count
		{Rounds: [][]Action{{{Kind: ActionKind(9)}}}},              // kind
	}
	for i, s := range bad {
		if err := s.Validate(0, 4); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	good := &Schedule{Rounds: [][]Action{
		{{Kind: ActSend, Peer: 1, Size: 64}, {Kind: ActRecv, Count: 1}},
		{{Kind: ActSend, Peer: 2, Size: 64}},
	}}
	if err := good.Validate(0, 4); err != nil {
		t.Errorf("good schedule rejected: %v", err)
	}
	if got := good.recvsBefore(0); got != 0 {
		t.Errorf("recvsBefore(0) = %d", got)
	}
	if got := good.recvsBefore(1); got != 1 { // round 0 holds the recv
		t.Errorf("recvsBefore(1) = %d", got)
	}
	if got := good.recvsBefore(2); got != 1 {
		t.Errorf("recvsBefore(2) = %d", got)
	}
}

func TestActionKindString(t *testing.T) {
	if ActSend.String() != "send" || ActRecv.String() != "recv" {
		t.Error("kind strings wrong")
	}
	if ActionKind(7).String() != "ActionKind(7)" {
		t.Error("unknown kind string wrong")
	}
}

func TestScheduleBuilderErrors(t *testing.T) {
	if _, err := AllgatherSchedule(0, 1, 8, 1, nil); err == nil {
		t.Error("1-rank allgather accepted")
	}
	if _, err := AllgatherSchedule(5, 4, 8, 1, nil); err == nil {
		t.Error("bad rank accepted")
	}
}
