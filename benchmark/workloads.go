package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/backends"
	"repro/internal/collective"
	"repro/internal/config"
	"repro/internal/health"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/workloads/jacobi"
)

// workload is one named set of inputs the benchmark runs. Its name is the
// handle every later performance claim uses.
type workload struct {
	name string
	// simLayer names the layer whose simulated time an op reports.
	simLayer string
	// prepare turns the op's generator into its inputs. Only the returned
	// opCase reaches the simulator.
	prepare func(sz sizes, rng *rand.Rand, op int) opCase
}

// sizes scales every workload: fullSize is the benchmark, tinySize the unit
// tests. ops is the timed ops per child process.
type sizes struct {
	ops                   int
	ringNodes             int
	ringBytes             int64
	haloPX, haloPY, haloN int
	recNodes              int
	recBytes              int64
}

var (
	fullSize = sizes{ops: opsPerChild, ringNodes: 16, ringBytes: 128 << 10, haloPX: 32, haloPY: 32, haloN: 8, recNodes: 8, recBytes: 64 << 10}
	tinySize = sizes{ops: 2, ringNodes: 4, ringBytes: 4 << 10, haloPX: 4, haloPY: 2, haloN: 4, recNodes: 4, recBytes: 16 << 10}
)

// opCase is one op's generated inputs, ready to run on a fresh cluster.
type opCase struct {
	cfg   config.SystemConfig
	nodes int
	// run calls the workload's entry point on the cluster and drives the
	// simulation until it drains.
	run func(c *node.Cluster) (opResult, error)
}

// opResult is what one op produced, plus the reference to check it against.
type opResult struct {
	simDur               sim.Time
	attempts, attemptsOK int
	beats, suspicions    int64
	// got holds each rank's output; nil entries are not checked.
	got [][]float32
	// want computes the reference outputs, outside the timed region.
	want func() [][]float32
}

var workloads = []*workload{
	{
		// Fig. 10's shape on the serial engine every paper figure uses.
		name:     "ring-serial",
		simLayer: "collective",
		prepare:  ringCase(0),
	},
	{
		// The same ops on two engines and two cores: sim.Sharded's cost.
		name:     "ring-sharded",
		simLayer: "collective",
		prepare:  ringCase(2),
	},
	{
		// Fig. 9's shape at 1024 nodes on a fat-tree: set-up, auditor and
		// GC heavy.
		name:     "halo-fattree",
		simLayer: "jacobi",
		prepare:  haloCase,
	},
	{
		// Timer-heavy recovery: loss, heartbeats and a crash-restart.
		name:     "recover-lossy",
		simLayer: "collective",
		prepare:  recoverCase,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// opRand returns the generator of one op's inputs: a function of the run
// seed, the workload and the op index alone, so any child process can
// regenerate any op.
func opRand(seed int64, name string, op int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", name, seed, op)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// intVectors draws n integer-valued vectors, so that every sum over them is
// exact in float32 whatever the reduction order.
func intVectors(rng *rand.Rand, n, elems int) [][]float32 {
	data := make([][]float32, n)
	for r := range data {
		data[r] = make([]float32, elems)
		for i := range data[r] {
			data[r][i] = float32(rng.Intn(129) - 64)
		}
	}
	return data
}

// sumOver is the Allreduce reference: every rank in ranks holds the
// element-wise sum of their inputs; other ranks are nil.
func sumOver(data [][]float32, ranks []int) [][]float32 {
	sum := make([]float32, len(data[0]))
	for i := range sum {
		var s float64
		for _, r := range ranks {
			s += float64(data[r][i])
		}
		sum[i] = float32(s)
	}
	out := make([][]float32, len(data))
	for _, r := range ranks {
		out[r] = sum
	}
	return out
}

func allRanks(n int) []int {
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	return ranks
}

func ringCase(shards int) func(sz sizes, rng *rand.Rand, op int) opCase {
	return func(sz sizes, rng *rand.Rand, op int) opCase {
		n := sz.ringNodes
		data := intVectors(rng, n, int(sz.ringBytes/4))
		cfg := config.Default()
		cfg.Shards = shards
		return opCase{cfg: cfg, nodes: n, run: func(c *node.Cluster) (opResult, error) {
			res, err := collective.Run(c, collective.Config{Kind: backends.GPUTN, TotalBytes: sz.ringBytes, Data: data})
			if err != nil {
				return opResult{}, err
			}
			return opResult{
				simDur: res.Duration, attempts: 1, attemptsOK: 1, got: res.Output,
				want: func() [][]float32 { return sumOver(data, allRanks(n)) },
			}, nil
		}}
	}
}

// haloCase is one Jacobi iteration. The grid is the jacobi package's fixed
// pattern, so the seed does not change this workload's inputs.
func haloCase(sz sizes, _ *rand.Rand, _ int) opCase {
	cfg := config.Default()
	cfg.Network.Topology = config.TopologyFatTree
	cfg.Shards = 2
	p := jacobi.Params{Kind: backends.GPUTN, N: sz.haloN, PX: sz.haloPX, PY: sz.haloPY, Iters: 1, WithData: true}
	dec := jacobi.Decomp{N: p.N, PX: p.PX, PY: p.PY}
	return opCase{cfg: cfg, nodes: dec.Nodes(), run: func(c *node.Cluster) (opResult, error) {
		res, err := jacobi.Run(c, p)
		if err != nil {
			return opResult{}, err
		}
		return opResult{
			simDur: res.Duration, got: interiors(res.Grids),
			want: func() [][]float32 { return interiors(dec.Reference(p.Iters)) },
		}, nil
	}}
}

func interiors(grids []*jacobi.Grid) [][]float32 {
	out := make([][]float32, len(grids))
	for r, g := range grids {
		for i := 1; i <= g.N; i++ {
			for j := 1; j <= g.N; j++ {
				out[r] = append(out[r], g.At(i, j))
			}
		}
	}
	return out
}

// recoverCase is one crash-recoverable Allreduce: a seeded fault stream, and
// one node crashing during the first attempt and restarting cold. Every
// third op runs the HDN backend, the others GPU-TN. An HDN op takes about
// half as long, so an even mix would put the median in the gap between the
// two and make it jump from run to run.
func recoverCase(sz sizes, rng *rand.Rand, op int) opCase {
	n := sz.recNodes
	data := intVectors(rng, n, int(sz.recBytes/4))
	cfg := config.Default()
	cfg.Shards = 2
	cfg.NIC.Reliability = config.DefaultReliability()
	cfg.Health = config.DefaultHealth()
	cfg.Faults = config.FaultConfig{Seed: rng.Int63(), DropProb: 0.02}
	// The first attempt starts once the view has been stable for
	// StabilizeDelay (60us), so these crashes land inside it.
	cfg.Crash = config.CrashConfig{Events: []config.CrashEvent{{
		Node:         rng.Intn(n),
		At:           sim.Time(65+rng.Intn(30)) * sim.Microsecond,
		RestartAfter: sim.Time(20+rng.Intn(100)) * sim.Microsecond,
	}}}
	kind := backends.GPUTN
	if op%3 == 2 {
		kind = backends.HDN
	}
	rcfg := collective.RecoverConfig{Kind: kind, TotalBytes: sz.recBytes, Data: data, Timeout: 200 * sim.Microsecond, MaxAttempts: 16}
	return opCase{cfg: cfg, nodes: n, run: func(c *node.Cluster) (opResult, error) {
		suite := health.Start(c)
		var res collective.RecoverResult
		var rerr error
		c.Eng.Go("benchmark.recover", func(p *sim.Proc) {
			res, rerr = collective.RunRecoverable(p, c, suite.Membership, rcfg)
			suite.Stop()
		})
		c.Run()
		hs := suite.Membership.Stats()
		out := opResult{simDur: res.Duration, attempts: len(res.Attempts), beats: hs.Beats, suspicions: hs.Suspicions}
		if rerr != nil {
			return out, rerr
		}
		out.attemptsOK = 1
		out.got = res.Output
		alive := res.Alive
		out.want = func() [][]float32 { return sumOver(data, alive) }
		return out, nil
	}}
}
