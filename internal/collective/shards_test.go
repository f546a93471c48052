package collective

import (
	"reflect"
	"testing"

	"repro/internal/backends"
	"repro/internal/config"
	"repro/internal/node"
	"repro/internal/sim"
)

// The cross-shard determinism matrix: every chaos class the suite knows —
// clean, mixed faults, healed partition, silent wire corruption, fail-slow
// straggler — must produce an identical run at -shards 0, 1, 2, and 4.
// Shards=0 (the default) and Shards=1 are the same single-engine layout;
// any divergence at higher shard counts is a window-synchronization bug,
// not model noise.

// shardOutcome captures everything a run can observably produce.
type shardOutcome struct {
	dur     sim.Time
	perRank []sim.Time
	out     []float32
	retx    int64
	drops   int64
	lost    int64
	sdc     int64
}

func runShardCell(t *testing.T, cfg config.SystemConfig, shards, n, nelems int, kind backends.Kind, seed int64) shardOutcome {
	t.Helper()
	cfg.Shards = shards
	data, _ := makeInputs(n, nelems, seed)
	c := node.NewCluster(cfg, n)
	res, err := Run(c, Config{Kind: kind, TotalBytes: int64(nelems) * elemBytes, Data: data})
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	o := shardOutcome{
		dur:     res.Duration,
		perRank: res.PerRank,
		out:     res.Output[0],
		drops:   c.Injector.Stats().PacketsDropped,
		lost:    c.Fabric.MessagesLost(),
		sdc:     c.Injector.SDC().Stats().Total(),
	}
	for _, nd := range c.Nodes {
		o.retx += nd.NIC.Stats().Retransmits
	}
	return o
}

func shardMatrixCells() map[string]config.SystemConfig {
	clean := config.Default()

	faults := config.Default()
	faults.Faults = chaosFaults(7)
	faults.NIC.Reliability = config.DefaultReliability()

	part := config.Default()
	part.NIC.Reliability = config.DefaultReliability()
	part.Faults = config.FaultConfig{Partition: config.PartitionConfig{Events: []config.PartitionEvent{
		{A: []int{2}, At: 20 * sim.Microsecond, HealAfter: 200 * sim.Microsecond},
	}}}

	sdc := config.Default()
	sdc.NIC.Reliability = config.DefaultReliability()
	sdc.NIC.E2EChecksum = true
	sdc.Faults = config.FaultConfig{SDC: config.SDCConfig{Seed: 11, WireProb: 0.05}}

	slow := config.Default()
	slow.Faults = config.FaultConfig{Slow: slowTestSchedule("gpu", 4, 5)}

	return map[string]config.SystemConfig{
		"clean":     clean,
		"faults":    faults,
		"partition": part,
		"sdc":       sdc,
		"straggler": slow,
	}
}

// TestShardMatrixDeterminism runs every chaos cell at shards {0, 1, 2, 4}
// and requires identical outcomes — durations, per-rank completion times,
// output vectors, retransmit/drop/loss/corruption counters.
func TestShardMatrixDeterminism(t *testing.T) {
	const n, nelems = 4, 256
	for name, cfg := range shardMatrixCells() {
		t.Run(name, func(t *testing.T) {
			ref := runShardCell(t, cfg, 0, n, nelems, backends.GPUTN, 7)
			for _, shards := range []int{1, 2, 4} {
				got := runShardCell(t, cfg, shards, n, nelems, backends.GPUTN, 7)
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("shards=%d diverged from shards=0:\n got %+v\nwant %+v", shards, got, ref)
				}
			}
		})
	}
}

// TestShardMatrixDeterministicReplay: a sharded run must also replay
// bit-identically against itself (same seed, same shard count) — the
// original chaos determinism bar, now on the parallel engine.
func TestShardMatrixDeterministicReplay(t *testing.T) {
	const n, nelems = 4, 256
	cfg := config.Default()
	cfg.Faults = chaosFaults(7)
	cfg.NIC.Reliability = config.DefaultReliability()
	a := runShardCell(t, cfg, 4, n, nelems, backends.GPUTN, 7)
	b := runShardCell(t, cfg, 4, n, nelems, backends.GPUTN, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, shards=4 diverged:\n got %+v\nwant %+v", a, b)
	}
}

// TestShardSumStaysExact: sharding must not perturb the numerical result —
// every backend's lossy-fabric allreduce still produces the exact
// element-wise sum at 4 shards.
func TestShardSumStaysExact(t *testing.T) {
	const n, nelems = 4, 256
	cfg := config.Default()
	cfg.Faults = chaosFaults(3)
	cfg.NIC.Reliability = config.DefaultReliability()
	cfg.Shards = 4
	for _, kind := range backends.All() {
		data, want := makeInputs(n, nelems, 3)
		c := node.NewCluster(cfg, n)
		res, err := Run(c, Config{Kind: kind, TotalBytes: int64(nelems) * elemBytes, Data: data})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for r := 0; r < n; r++ {
			for i := range want {
				if res.Output[r][i] != want[i] {
					t.Fatalf("%s rank %d elem %d: got %v want %v", kind, r, i, res.Output[r][i], want[i])
				}
			}
		}
	}
}

// TestShardSerialRequiredFallsBack: features needing a global event order
// (crash schedules, health membership, fat-tree topology) must silently cap the
// engine count at one — and still complete.
func TestShardSerialRequiredFallsBack(t *testing.T) {
	cfg := config.Default()
	cfg.Shards = 4
	cfg.Crash = config.CrashConfig{Events: []config.CrashEvent{
		{Node: 2, At: 10 * sim.Microsecond, RestartAfter: 50 * sim.Microsecond},
	}}
	cfg.NIC.Reliability = config.DefaultReliability()
	c := node.NewCluster(cfg, 4)
	if len(c.Engines) != 1 {
		t.Fatalf("crash-armed cluster built %d engines, want 1", len(c.Engines))
	}
}
