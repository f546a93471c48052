package collective

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/backends"
	"repro/internal/config"
	"repro/internal/node"
	"repro/internal/portals"
	"repro/internal/sim"
)

// The chaos scaffolding (chaosSeeds, chaosFaults, chaosCluster) lives in
// chaostest_test.go, shared with the crash/partition/SDC/straggler suites.

// The §7 headline invariant: on every backend, under every fixed fault
// schedule, a lossy-fabric Allreduce produces the exact element-wise sum —
// the reliability layer hides loss, corruption, reordering, and stalls
// completely.
func TestChaosAllreduceExactUnderFaults(t *testing.T) {
	const n, nelems = 4, 256
	for _, kind := range backends.All() {
		for _, seed := range chaosSeeds {
			data, want := makeInputs(n, nelems, seed)
			c := chaosCluster(t, n, seed)
			res, err := Run(c, Config{Kind: kind, TotalBytes: nelems * elemBytes, Data: data})
			if err != nil {
				t.Fatalf("%s seed=%d: %v", kind, seed, err)
			}
			for r := 0; r < n; r++ {
				for i := range want {
					if res.Output[r][i] != want[i] {
						t.Fatalf("%s seed=%d rank %d elem %d: got %v want %v",
							kind, seed, r, i, res.Output[r][i], want[i])
					}
				}
			}
			if c.Fabric.MessagesLost() == 0 {
				t.Fatalf("%s seed=%d: schedule injected no loss (vacuous run)", kind, seed)
			}
		}
	}
}

// Same seed, same run: the full event trace must replay — completion time,
// recovery counters, and injected-fault counters all bit-identical.
func TestChaosDeterministicTrace(t *testing.T) {
	run := func() (sim.Time, int64, int64) {
		const n, nelems = 4, 256
		data, _ := makeInputs(n, nelems, 7)
		c := chaosCluster(t, n, 7)
		res, err := Run(c, Config{Kind: backends.GPUTN, TotalBytes: nelems * elemBytes, Data: data})
		if err != nil {
			t.Fatal(err)
		}
		var retx int64
		for _, nd := range c.Nodes {
			retx += nd.NIC.Stats().Retransmits
		}
		return res.Duration, retx, c.Injector.Stats().PacketsDropped
	}
	d1, r1, p1 := run()
	d2, r2, p2 := run()
	if d1 != d2 || r1 != r2 || p1 != p2 {
		t.Fatalf("same seed diverged: dur %v/%v retx %d/%d drops %d/%d", d1, d2, r1, r2, p1, p2)
	}
}

// A link flap (total loss window on one node) must also be absorbed: the
// retransmit timers outlive the window and the sum stays exact.
func TestChaosAllreduceSurvivesLinkFlap(t *testing.T) {
	const n, nelems = 4, 256
	cfg := config.Default()
	cfg.Faults = config.FaultConfig{
		FlapNode:  1,
		FlapStart: 5 * sim.Microsecond,
		FlapEnd:   60 * sim.Microsecond,
	}
	cfg.NIC.Reliability = config.DefaultReliability()
	data, want := makeInputs(n, nelems, 3)
	c := node.NewCluster(cfg, n)
	res, err := Run(c, Config{Kind: backends.HDN, TotalBytes: nelems * elemBytes, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		for i := range want {
			if res.Output[r][i] != want[i] {
				t.Fatalf("rank %d elem %d: got %v want %v", r, i, res.Output[r][i], want[i])
			}
		}
	}
	if c.Injector.Stats().FlapDrops == 0 {
		t.Fatal("flap window never fired")
	}
}

// A fail-stop rank with a Timeout armed: the survivors terminate with a
// typed NeighborFailedError naming the dead predecessor instead of hanging.
func TestAllreduceTimeoutSurfacesNeighborFailure(t *testing.T) {
	for _, kind := range []backends.Kind{backends.CPU, backends.HDN, backends.GPUTN} {
		c := node.NewCluster(config.Default(), 4)
		_, err := Run(c, Config{
			Kind: kind, TotalBytes: 1024,
			DeadNodes: []int{2}, Timeout: 100 * sim.Microsecond,
		})
		if err == nil {
			t.Fatalf("%s: dead node produced no error", kind)
		}
		var nf *NeighborFailedError
		if !errors.As(err, &nf) {
			t.Fatalf("%s: error %v is not a NeighborFailedError", kind, err)
		}
		if !errors.Is(err, portals.ErrTimeout) {
			t.Fatalf("%s: error %v does not wrap ErrTimeout", kind, err)
		}
		// The dead rank's ring successor blames it directly.
		if !strings.Contains(err.Error(), "neighbor 2 failed") {
			t.Fatalf("%s: no rank blamed the dead node: %v", kind, err)
		}
	}
}

func TestAllreduceRejectsTimeoutOnGDS(t *testing.T) {
	c := node.NewCluster(config.Default(), 2)
	if _, err := Run(c, Config{Kind: backends.GDS, TotalBytes: 1024, Timeout: sim.Microsecond}); err == nil {
		t.Fatal("GDS timeout accepted")
	}
}

func TestAllreduceDeadNodesValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Kind: backends.CPU, TotalBytes: 1024, DeadNodes: []int{9}, HealRing: true},
		{Kind: backends.CPU, TotalBytes: 1024, DeadNodes: []int{1, 1}, HealRing: true},
		{Kind: backends.CPU, TotalBytes: 1024, DeadNodes: []int{1}},                       // no heal, no timeout
		{Kind: backends.CPU, TotalBytes: 1024, DeadNodes: []int{1, 2, 3}, HealRing: true}, // <2 alive
	} {
		c := node.NewCluster(config.Default(), 4)
		if _, err := Run(c, cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

// Ring heal: the survivors re-form the ring and compute the exact sum of
// their own contributions; the dead rank's vector is excluded and its
// Output slot is nil, whichever rank died, rank 0 included.
func TestAllreduceRingHealExactOverSurvivors(t *testing.T) {
	const n, nelems = 5, 256
	for _, tc := range []struct {
		kind     backends.Kind
		deadRank int
	}{
		{backends.CPU, 1}, {backends.HDN, 1}, {backends.GPUTN, 1},
		{backends.CPU, 0}, {backends.HDN, 0}, {backends.GPUTN, 0},
	} {
		kind, deadRank := tc.kind, tc.deadRank
		data, _ := makeInputs(n, nelems, 11)
		want := make([]float32, nelems)
		for r := 0; r < n; r++ {
			if r == deadRank {
				continue
			}
			for i := range want {
				want[i] += data[r][i]
			}
		}
		c := node.NewCluster(config.Default(), n)
		res, err := Run(c, Config{
			Kind: kind, TotalBytes: nelems * elemBytes, Data: data,
			DeadNodes: []int{deadRank}, HealRing: true,
		})
		if err != nil {
			t.Fatalf("%s dead=%d: %v", kind, deadRank, err)
		}
		if res.Output[deadRank] != nil {
			t.Fatalf("%s dead=%d: dead rank produced output", kind, deadRank)
		}
		for r := 0; r < n; r++ {
			if r == deadRank {
				continue
			}
			for i := range want {
				if res.Output[r][i] != want[i] {
					t.Fatalf("%s dead=%d rank %d elem %d: got %v want %v", kind, deadRank, r, i, res.Output[r][i], want[i])
				}
			}
		}
	}
}

// Ring heal on a lossy fabric: both recovery layers compose — the NIC hides
// packet loss while the collective routes around the dead rank.
func TestAllreduceRingHealUnderLoss(t *testing.T) {
	const n, nelems = 4, 256
	const deadRank = 3
	data, _ := makeInputs(n, nelems, 13)
	want := make([]float32, nelems)
	for r := 0; r < n-1; r++ {
		for i := range want {
			want[i] += data[r][i]
		}
	}
	cfg := config.Default()
	cfg.Faults = config.FaultConfig{Seed: 13, DropProb: 0.05}
	cfg.NIC.Reliability = config.DefaultReliability()
	c := node.NewCluster(cfg, n)
	res, err := Run(c, Config{
		Kind: backends.GPUTN, TotalBytes: nelems * elemBytes, Data: data,
		DeadNodes: []int{deadRank}, HealRing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n-1; r++ {
		for i := range want {
			if res.Output[r][i] != want[i] {
				t.Fatalf("rank %d elem %d: got %v want %v", r, i, res.Output[r][i], want[i])
			}
		}
	}
}
