// Command gputn-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	gputn-bench -exp all
//	gputn-bench -exp fig10
//	gputn-bench -exp figures -parallel 8
//	gputn-bench -exp perf -perf-preset smoke -bench-out BENCH_sim.json
//	gputn-bench -exp faults -fault-drop 0.05 -reliable
//
// Experiments: fig1, fig8, fig9, fig10, fig11, table1, table2, table3,
// ablations, faults, resources, crash, partitions, sdc, perf, all;
// "figures" runs fig1+fig8+fig9+fig10+fig11.
//
// The -parallel flag sets how many OS threads the sweep runner fans
// independent simulation replicas across (default: NumCPU). Results are
// collected in submission order, so output is byte-identical for any
// -parallel value; -parallel 1 takes the exact serial code path.
//
// The -shards flag shards each simulated cluster's nodes across N event
// engines synchronized by conservative bounded-window lookahead (the
// minimum cross-node fabric latency). Simulated results are shard-count
// invariant: -shards 1, 2, and 4 print identical figures; only wall time
// changes. -shards 0 (default) keeps the single global event loop,
// bit-identical to the pre-sharding simulator. Features that need a
// global event order (crash schedules, health membership, the fat-tree
// topology) silently cap the engine count at one.
//
// The -exp perf harness measures the simulator itself (events/sec,
// allocs/event, wall time per experiment, each the median of 3 timed
// runs, with the events/sec spread) and writes BENCH_sim.json;
// -bench-baseline compares against a committed report and exits nonzero
// when the median events/sec regresses beyond -bench-tolerance. The -cpuprofile and
// -memprofile flags capture pprof profiles of whatever experiment runs.
//
// The -fault-* flag group arms the deterministic fault injector for every
// experiment in the run; with all of them zero (the default) the fabric is
// lossless and results are bit-for-bit the fault-free numbers. The -cap-*
// flag group bounds NIC resources (trigger-list entries, relaxed-sync
// placeholders, command queue, trigger FIFO, event queues) the same way:
// all-zero keeps the unbounded seed behavior bit-for-bit.
//
// The -crash-* flag group arms a deterministic crash-stop/restart schedule
// and the -health-* group tunes the heartbeat membership timing; -exp
// crash sweeps restart delay vs recovery latency per backend. All-zero
// disables both, keeping the crash-free behavior bit-for-bit.
//
// The -part-* flag group arms one deterministic network partition (cut
// side A off from side B — or from everyone else when -part-b is empty —
// at -part-at-us, healing after -part-heal-us; -part-asym blackholes only
// the A->B direction). The -degrade-* group arms one gray-link window
// (latency multiplier and packet loss on a directed link). -adaptive-rto
// switches the reliable layer's retransmit timer from the static RTOBase
// to the per-peer Jacobson/Karels estimator. -exp partitions sweeps
// partition heal delay and gray-link severity per backend. -list prints
// every experiment with a one-line description and exits.
//
// The -sdc-* flag group arms silent-data-corruption injection — corruption
// the link checksum does NOT catch (silent wire flips, buffer corruption at
// rest on one node, a faulty reducer rank) — and -e2e arms the end-to-end
// payload checksum that detects it (-e2e-latency-ns prices each sum). All
// zero keeps the corruption-free behavior bit-for-bit. -exp sdc sweeps
// corruption rate x class, reporting detection latency, undetected-escape
// rate with/without verification, and the e2e checksum's clean-path
// overhead per backend.
//
// The -slow-* flag group arms one fail-slow (straggler) window on one node:
// -slow-gpu-factor dilates its GPU compute, -slow-cmd-factor stretches NIC
// command parsing (-slow-stall-prob/-slow-stall-us add hard per-command
// stalls), -slow-dma-factor dilates DMA transfers. All zero keeps behavior
// bit-for-bit identical to an unconfigured run. -hedge additionally arms
// progress-based fail-slow detection in the health suite (heartbeat-borne
// watermarks scored into Slow verdicts). -exp stragglers sweeps slowdown
// class x factor per backend, comparing an unmitigated run against the
// detection + hedged-collective stack.
//
// The -scenario-* flag group arms the correlated-failure scenario composer
// for every experiment: -scenario-domains names failure domains
// ("rack0=0,1,2,3;rack1=4,5,6,7"), -scenario-events schedules correlated
// events over them ("rackfail:rack0@50us,heal=80us,jitter=10us" crashes the
// whole rack AND cuts it off, then heals with a per-node jittered restart
// storm; other kinds: crash, cut, gray, slow), and -scenario-seed drives the
// composer's private jitter stream. All-empty keeps behavior bit-for-bit
// identical to an unconfigured run. -exp chaossearch samples -chaos-trials
// random composed scenarios from -chaos-seed, runs each on all four
// backends under the always-on invariant auditor, and greedily shrinks any
// violation to a minimal reproducer emitted as a replayable -scenario-*
// flag set (-chaos-replay consumes it); -chaos-inject doublefire|staledeliver
// arms a seeded protocol bug so the search provably catches violations.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stats"
)

// perfRuns is how many times -exp perf times each experiment; the report
// and the baseline gate use the median.
const perfRuns = 3

// experimentList names every experiment in run order with a one-line
// description; -list renders it and the runner map in run() must cover it.
var experimentList = []struct{ name, desc string }{
	{"table1", "simulated platform parameters (paper Table 1)"},
	{"table2", "communication-primitive microbenchmark latencies (paper Table 2)"},
	{"table3", "triggered-op API coverage summary (paper Table 3)"},
	{"fig1", "kernel launch latency vs queued kernel commands (paper Fig. 1)"},
	{"fig8", "Allreduce latency across backends and payload sizes (paper Fig. 8)"},
	{"fig9", "Jacobi per-iteration speedup vs HDN on a 2x2 grid (paper Fig. 9)"},
	{"fig10", "8MB Allreduce strong-scaling speedup vs CPU (paper Fig. 10)"},
	{"fig11", "machine-learning training step breakdown (paper Fig. 11)"},
	{"ablations", "mechanism ablations: relaxed sync, granularity, topology, pipelining, ..."},
	{"faults", "Allreduce latency under packet loss with reliable delivery"},
	{"resources", "NIC resource-pressure sweep (bounded trigger lists and queues)"},
	{"crash", "crash-stop/restart recovery latency vs restart delay per backend"},
	{"partitions", "partition heal-delay sweep and gray-link static-vs-adaptive RTO comparison"},
	{"sdc", "silent-data-corruption sweep: detection latency, escape rate, e2e checksum overhead"},
	{"stragglers", "fail-slow sweep: unmitigated vs hedged collectives per slowdown class and backend"},
	{"chaossearch", "shrinking chaos search: random correlated scenarios x backends under the invariant auditor (not part of -exp all)"},
	{"perf", "simulator self-benchmark: events/sec, allocs/event, wall time (not part of -exp all)"},
}

// parseNodeList parses a comma-separated node list ("0,1,3"); empty is nil.
func parseNodeList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("node list %q: %w", s, err)
		}
		out = append(out, n)
	}
	return out, nil
}

// writeCSV saves a figure's series to <dir>/<name>.csv when dir is set.
func writeCSV(dir, name, xlabel string, series []*stats.Series) error {
	if dir == "" {
		return nil
	}
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := stats.WriteSeriesCSV(f, xlabel, series); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

func main() { os.Exit(run()) }

// run is main minus os.Exit, so profile-flushing defers always execute.
func run() int {
	exp := flag.String("exp", "all", "experiment to run: fig1|fig8|fig9|fig10|fig11|table1|table2|table3|ablations|faults|resources|crash|partitions|sdc|stragglers|chaossearch|perf|figures|all")
	list := flag.Bool("list", false, "list all experiments with one-line descriptions and exit")
	csvDir := flag.String("csv", "", "also write figure data as CSV into this directory")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker threads for sweep replicas (1 = serial)")
	shards := flag.Int("shards", 0, "intra-run node shards for the parallel event engine (0 = serial seed-exact engine; N>=1 = conservative bounded-window engine, results shard-count invariant)")

	perfPreset := flag.String("perf-preset", "full", "perf harness preset: full|smoke")
	benchOut := flag.String("bench-out", "BENCH_sim.json", "write the perf report JSON here (empty = don't write)")
	benchBaseline := flag.String("bench-baseline", "", "compare the perf report against this baseline JSON")
	benchTolerance := flag.Float64("bench-tolerance", 0.30, "allowed fractional events/sec regression vs baseline")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile here")
	memprofile := flag.String("memprofile", "", "write a heap profile here at exit")

	faultSeed := flag.Int64("fault-seed", 42, "fault injector RNG seed")
	faultDrop := flag.Float64("fault-drop", 0, "per-packet drop probability [0,1]")
	faultCorrupt := flag.Float64("fault-corrupt", 0, "per-packet corruption probability [0,1]")
	flapNode := flag.Int("fault-flap-node", 0, "node whose links flap during the flap window")
	flapStartUS := flag.Float64("fault-flap-start-us", 0, "flap window start (us)")
	flapEndUS := flag.Float64("fault-flap-end-us", 0, "flap window end (us); 0 disables flapping")
	reliable := flag.Bool("reliable", false, "enable the NIC reliable-delivery layer (seq/ack/retransmit)")

	partA := flag.String("part-a", "", "comma-separated node list forming partition side A; empty disables the partition schedule")
	partB := flag.String("part-b", "", "partition side B; empty = everyone not in side A")
	partAtUS := flag.Float64("part-at-us", 0, "partition cut time (us); 0 disables the partition schedule")
	partHealUS := flag.Float64("part-heal-us", 0, "heal delay after the cut (us); 0 = never heals")
	partAsym := flag.Bool("part-asym", false, "asymmetric cut: blackhole only A->B traffic, deliver B->A")

	degradeSrc := flag.Int("degrade-src", -1, "gray-link source node (-1 = any)")
	degradeDst := flag.Int("degrade-dst", -1, "gray-link destination node (-1 = any)")
	degradeFromUS := flag.Float64("degrade-from-us", 0, "gray-link window start (us)")
	degradeUntilUS := flag.Float64("degrade-until-us", 0, "gray-link window end (us); 0 disables the window")
	degradeFactor := flag.Float64("degrade-factor", 0, "latency multiplier on the gray link (>1 slows it)")
	degradeLoss := flag.Float64("degrade-loss", 0, "per-packet loss probability on the gray link [0,1]")
	degradeRamp := flag.Bool("degrade-ramp", false, "ramp the loss linearly from 0 to -degrade-loss over the window")
	adaptiveRTO := flag.Bool("adaptive-rto", false, "use the per-peer Jacobson/Karels adaptive retransmit timer (implies -reliable behavior only when -reliable is set)")

	crashNode := flag.Int("crash-node", 0, "node the -crash-at-us event kills")
	crashAtUS := flag.Float64("crash-at-us", 0, "crash-stop time (us); 0 disables the crash schedule")
	crashRestartUS := flag.Float64("crash-restart-us", 0, "restart delay after the crash (us); 0 = never restarts")
	healthPeriodUS := flag.Float64("health-period-us", 0, "heartbeat GPU-tick period (us); 0 = default")
	healthSuspectUS := flag.Float64("health-suspect-us", 0, "silence before a node is suspected dead (us); 0 = default")
	healthStabilizeUS := flag.Float64("health-stabilize-us", 0, "view-stability window before reintegration (us); 0 = default")

	sdcSeed := flag.Int64("sdc-seed", 42, "SDC plan private RNG seed")
	sdcWire := flag.Float64("sdc-wire", 0, "per-packet silent wire-corruption probability [0,1] (link CRC stays green)")
	sdcBuffer := flag.Float64("sdc-buffer", 0, "per-send buffer-corruption-at-rest probability [0,1] on -sdc-buffer-node")
	sdcBufferNode := flag.Int("sdc-buffer-node", 0, "node whose send buffers corrupt at rest")
	sdcRank := flag.Int("sdc-rank", 0, "rank whose reduction combines are wrong during the faulty window")
	sdcFromUS := flag.Float64("sdc-from-us", 0, "faulty-reducer window start (us)")
	sdcUntilUS := flag.Float64("sdc-until-us", 0, "faulty-reducer window end (us); 0 disables the window")
	e2e := flag.Bool("e2e", false, "arm the end-to-end payload checksum (CRC32C, verified at the destination)")
	e2eLatencyNS := flag.Float64("e2e-latency-ns", 0, "modeled per-message checksum compute/verify cost (ns)")

	slowSeed := flag.Int64("slow-seed", 42, "fail-slow plan private RNG seed")
	slowNode := flag.Int("slow-node", 0, "node the fail-slow window dilates")
	slowFromUS := flag.Float64("slow-from-us", 0, "fail-slow window start (us)")
	slowUntilUS := flag.Float64("slow-until-us", 0, "fail-slow window end (us); 0 disables the window")
	slowGPU := flag.Float64("slow-gpu-factor", 0, "GPU compute dilation factor inside the window (>1 slows)")
	slowCmd := flag.Float64("slow-cmd-factor", 0, "NIC command-parse stretch factor inside the window (>1 slows)")
	slowStallProb := flag.Float64("slow-stall-prob", 0, "per-command hard-stall probability inside the window [0,1]")
	slowStallUS := flag.Float64("slow-stall-us", 0, "duration of each hard command stall (us)")
	slowDMA := flag.Float64("slow-dma-factor", 0, "DMA transfer dilation factor inside the window (>1 slows)")
	hedge := flag.Bool("hedge", false, "arm progress-based fail-slow detection in the health suite (implies health)")

	scenarioSeed := flag.Int64("scenario-seed", 42, "composed-scenario private jitter RNG seed")
	scenarioDomains := flag.String("scenario-domains", "", `named failure domains, e.g. "rack0=0,1,2,3;rack1=4,5,6,7"`)
	scenarioEvents := flag.String("scenario-events", "", `correlated events over the domains, e.g. "rackfail:rack0@50us,heal=80us,jitter=10us"; empty disables the composer`)
	chaosSeed := flag.Int64("chaos-seed", 42, "chaos-search scenario-sampling seed")
	chaosTrials := flag.Int("chaos-trials", 6, "chaos-search scenarios sampled per run")
	chaosInject := flag.String("chaos-inject", "", "arm a seeded protocol bug for chaossearch: doublefire|staledeliver")
	chaosReplay := flag.Bool("chaos-replay", false, "replay the -scenario-* flags on every backend and report audit verdicts instead of searching")

	capTrig := flag.Int("cap-trigger-entries", 0, "trigger-list capacity (0 = paper default of 16)")
	capPlaceholders := flag.Int("cap-placeholders", 0, "relaxed-sync placeholder budget (0 = shared with trigger list)")
	capCmdQ := flag.Int("cap-cmdq", 0, "host command-queue depth; full queues backpressure posters (0 = unbounded)")
	capTrigFIFO := flag.Int("cap-trigger-fifo", 0, "trigger FIFO depth; overflow drops and counts (0 = unbounded)")
	capEQ := flag.Int("cap-eq", 0, "default event-queue capacity; overflow drops PTL_EQ_DROPPED-style (0 = unbounded)")

	topo := flag.String("topo", "", "interconnect topology: star|fattree (empty = the Table 2 star)")
	topoLeaf := flag.Int("topo-leaf", 0, "fat-tree nodes per leaf switch (0 = 4)")
	topoPodLeaves := flag.Int("topo-podleaves", 0, "fat-tree leaf switches per pod (0 = 2)")
	topoSpines := flag.Int("topo-spines", 0, "fat-tree spine switches per pod (0 = 2)")
	topoCores := flag.Int("topo-cores", 0, "fat-tree core switches (0 = spines)")
	topoCredits := flag.Int("topo-credits", 0, "fat-tree per-port queue credits; senders backpressure when exhausted (0 = unbounded)")
	topoECN := flag.Int("topo-ecn", 0, "fat-tree ECN marking threshold in queued frames (0 = never mark)")
	switchTier := flag.String("switch-tier", "", "deterministic switch-kill tier: leaf|spine|core|trunk (needs -switch-at-us)")
	switchIndex := flag.Int("switch-index", 0, "switch index within -switch-tier")
	switchA := flag.String("switch-a", "", `trunk endpoint A ref for -switch-tier trunk, e.g. "leaf0"`)
	switchB := flag.String("switch-b", "", `trunk endpoint B ref for -switch-tier trunk, e.g. "spine1"`)
	switchAtUS := flag.Float64("switch-at-us", 0, "switch-kill time (us); 0 disables the switch schedule")
	switchRestoreUS := flag.Float64("switch-restore-us", 0, "restore delay after the kill (us); 0 = never restored")
	flag.Parse()

	if *list {
		for _, e := range experimentList {
			fmt.Printf("%-10s  %s\n", e.name, e.desc)
		}
		fmt.Printf("%-10s  %s\n", "figures", "fig1+fig8+fig9+fig10+fig11")
		fmt.Printf("%-10s  %s\n", "all", "every experiment above except perf")
		return 0
	}

	bench.SetParallelism(*parallel)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gputn-bench:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "gputn-bench:", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "wrote %s\n", *cpuprofile)
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gputn-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "gputn-bench:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *memprofile)
		}()
	}

	cfg := config.Default()
	cfg.Shards = *shards
	cfg.Faults = config.FaultConfig{
		Seed:        *faultSeed,
		DropProb:    *faultDrop,
		CorruptProb: *faultCorrupt,
		FlapNode:    *flapNode,
		FlapStart:   sim.Time(*flapStartUS * float64(sim.Microsecond)),
		FlapEnd:     sim.Time(*flapEndUS * float64(sim.Microsecond)),
	}
	if *partAtUS > 0 {
		a, err := parseNodeList(*partA)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gputn-bench: -part-a:", err)
			return 2
		}
		b, err := parseNodeList(*partB)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gputn-bench: -part-b:", err)
			return 2
		}
		cfg.Faults.Partition = config.PartitionConfig{Events: []config.PartitionEvent{{
			A:          a,
			B:          b,
			At:         sim.Time(*partAtUS * float64(sim.Microsecond)),
			HealAfter:  sim.Time(*partHealUS * float64(sim.Microsecond)),
			Asymmetric: *partAsym,
		}}}
	}
	if *degradeUntilUS > 0 {
		cfg.Faults.Degrade = config.DegradeConfig{Windows: []config.DegradeWindow{{
			Src:           *degradeSrc,
			Dst:           *degradeDst,
			From:          sim.Time(*degradeFromUS * float64(sim.Microsecond)),
			Until:         sim.Time(*degradeUntilUS * float64(sim.Microsecond)),
			LatencyFactor: *degradeFactor,
			LossProb:      *degradeLoss,
			Ramp:          *degradeRamp,
		}}}
	}
	if *sdcWire > 0 || *sdcBuffer > 0 || *sdcUntilUS > 0 {
		cfg.Faults.SDC = config.SDCConfig{
			Seed:        *sdcSeed,
			WireProb:    *sdcWire,
			BufferProb:  *sdcBuffer,
			BufferNode:  *sdcBufferNode,
			FaultyRank:  *sdcRank,
			FaultyFrom:  sim.Time(*sdcFromUS * float64(sim.Microsecond)),
			FaultyUntil: sim.Time(*sdcUntilUS * float64(sim.Microsecond)),
		}
	}
	if *e2e {
		cfg.NIC.E2EChecksum = true
		cfg.NIC.E2EChecksumLatency = sim.Time(*e2eLatencyNS * float64(sim.Nanosecond))
	}
	if *slowUntilUS > 0 {
		cfg.Faults.Slow = config.SlowConfig{
			Seed: *slowSeed,
			Windows: []config.SlowWindow{{
				Node:         *slowNode,
				From:         sim.Time(*slowFromUS * float64(sim.Microsecond)),
				Until:        sim.Time(*slowUntilUS * float64(sim.Microsecond)),
				GPUFactor:    *slowGPU,
				CmdFactor:    *slowCmd,
				CmdStallProb: *slowStallProb,
				CmdStallTime: sim.Time(*slowStallUS * float64(sim.Microsecond)),
				DMAFactor:    *slowDMA,
			}},
		}
	}
	if *reliable {
		cfg.NIC.Reliability = config.DefaultReliability()
		cfg.NIC.Reliability.AdaptiveRTO = *adaptiveRTO
	}
	if *scenarioEvents != "" {
		doms, err := config.ParseScenarioDomains(*scenarioDomains)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gputn-bench: -scenario-domains:", err)
			return 2
		}
		evs, err := config.ParseScenarioEvents(*scenarioEvents)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gputn-bench: -scenario-events:", err)
			return 2
		}
		cfg.Scenario = config.ScenarioConfig{Seed: *scenarioSeed, Domains: doms, Events: evs}
	}
	if *crashAtUS > 0 {
		cfg.Crash = config.CrashConfig{Events: []config.CrashEvent{{
			Node:         *crashNode,
			At:           sim.Time(*crashAtUS * float64(sim.Microsecond)),
			RestartAfter: sim.Time(*crashRestartUS * float64(sim.Microsecond)),
		}}}
	}
	if *crashAtUS > 0 || *hedge || *healthPeriodUS > 0 || *healthSuspectUS > 0 || *healthStabilizeUS > 0 {
		cfg.Health = config.DefaultHealth()
		if *healthPeriodUS > 0 {
			cfg.Health.Period = sim.Time(*healthPeriodUS * float64(sim.Microsecond))
		}
		if *healthSuspectUS > 0 {
			cfg.Health.SuspectAfter = sim.Time(*healthSuspectUS * float64(sim.Microsecond))
		}
		if *healthStabilizeUS > 0 {
			cfg.Health.StabilizeDelay = sim.Time(*healthStabilizeUS * float64(sim.Microsecond))
		}
		cfg.Health.SlowDetect = *hedge
	}
	cfg.NIC.Resources = config.ResourceConfig{
		TriggerEntries:     *capTrig,
		PlaceholderEntries: *capPlaceholders,
		CmdQueueDepth:      *capCmdQ,
		EQDepth:            *capEQ,
	}
	if *capTrigFIFO > 0 {
		cfg.NIC.TriggerFIFODepth = *capTrigFIFO
	}
	if *topo != "" {
		cfg.Network.Topology = *topo
	}
	cfg.Network.FatTree = config.TopologyConfig{
		LeafSize:     *topoLeaf,
		PodLeaves:    *topoPodLeaves,
		Spines:       *topoSpines,
		Cores:        *topoCores,
		QueueCredits: *topoCredits,
		ECNThreshold: *topoECN,
	}
	if *switchAtUS > 0 {
		cfg.Faults.Switch = config.SwitchConfig{Events: []config.SwitchEvent{{
			Tier:         *switchTier,
			Index:        *switchIndex,
			A:            *switchA,
			B:            *switchB,
			At:           sim.Time(*switchAtUS * float64(sim.Microsecond)),
			RestoreAfter: sim.Time(*switchRestoreUS * float64(sim.Microsecond)),
		}}}
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "gputn-bench:", err)
		return 2
	}
	if cfg.Faults.Enabled() && !*reliable {
		fmt.Fprintln(os.Stderr, "warning: faults armed without -reliable; lossy runs may lose messages and hang or skew results")
	}
	if cfg.Crash.Enabled() && *exp != "crash" {
		fmt.Fprintln(os.Stderr, "warning: -crash-* armed for a non-crash experiment; only crash-aware recovery drivers survive a mid-run crash")
	}
	// Run header: every invocation states its fault and crash schedules up
	// front so saved outputs are self-describing.
	if cfg.Shards > 0 {
		fmt.Printf("engine: sharded (shards=%d, conservative bounded-window sync)\n", cfg.Shards)
	}
	fmt.Println(fault.NewInjector(cfg.Faults).Summary())
	fmt.Println(fault.NewCrashPlan(cfg.Crash).Summary())
	if cfg.Network.Topology == config.TopologyFatTree {
		ft := cfg.Network.FatTree.WithDefaults()
		fmt.Printf("topology: fattree leaf=%d podleaves=%d spines=%d cores=%d credits=%d ecn=%d\n",
			ft.LeafSize, ft.PodLeaves, ft.Spines, ft.Cores, ft.QueueCredits, ft.ECNThreshold)
	}
	if cfg.Faults.Switch.Enabled() {
		fmt.Println(fault.NewSwitchPlan(cfg.Faults.Switch).Summary())
	}
	if cfg.Scenario.Enabled() {
		fmt.Printf("scenario: seed=%d domains=%q events=%q\n", cfg.Scenario.Seed,
			config.FormatScenarioDomains(cfg.Scenario.Domains), config.FormatScenarioEvents(cfg.Scenario.Events))
	}
	if h := cfg.Health; h.Enabled {
		fmt.Printf("health: period=%v suspectAfter=%v stabilize=%v\n",
			h.Period, h.SuspectAfter, h.StabilizeDelay)
		if h.SlowDetect {
			fmt.Printf("slow detect: threshold=%.2f recover=%.2f grace=%v\n",
				h.EffectiveSlowThreshold(), h.EffectiveSlowRecover(), h.EffectiveSlowGrace())
		}
	}
	if *reliable {
		r := cfg.NIC.Reliability
		rto := "static"
		if r.AdaptiveRTO {
			rto = "adaptive (Jacobson/Karels)"
		}
		fmt.Printf("reliability: window=%d rtoBase=%v rtoPerKB=%v maxBackoff=%v budget=%d rto=%s\n",
			r.WindowSize, r.RTOBase, r.RTOPerKB, r.MaxBackoff, r.RetryBudget, rto)
	}
	if cfg.NIC.E2EChecksum {
		fmt.Printf("e2e checksum: on latency=%v\n", cfg.NIC.E2EChecksumLatency)
	}
	if rc := cfg.NIC.Resources; rc.Enabled() || *capTrigFIFO > 0 {
		fmt.Printf("resources: triggerEntries=%d placeholders=%d cmdq=%d trigFIFO=%d eq=%d (0 = unbounded/default)\n",
			rc.TriggerEntries, rc.PlaceholderEntries, rc.CmdQueueDepth, cfg.NIC.TriggerFIFODepth, rc.EQDepth)
	}
	fmt.Println()
	runners := map[string]func() error{
		"fig1": func() error {
			series := bench.Figure1(cfg)
			fmt.Println(stats.RenderSeries("Figure 1: kernel launch latency (us) vs queued kernel commands",
				"queued", series))
			fmt.Println(stats.Plot(series, stats.PlotOptions{LogX: true, XLabel: "queued kernel commands", Title: "launch latency (us)"}))
			return writeCSV(*csvDir, "fig1", "queued", series)
		},
		"fig8": func() error {
			res := bench.Figure8Extended(cfg)
			fmt.Println(bench.RenderFigure8(res))
			fmt.Println(bench.RenderFigure8Bars(res))
			fmt.Println(bench.RenderFigure8Extended(res))
			return nil
		},
		"fig9": func() error {
			series := bench.Figure9(cfg)
			fmt.Println(stats.RenderSeries("Figure 9: Jacobi speedup vs HDN (2x2 nodes, per-iteration)",
				"N", series))
			fmt.Println(stats.Plot(series, stats.PlotOptions{LogX: true, XLabel: "local grid N", Title: "speedup vs HDN"}))
			return writeCSV(*csvDir, "fig9", "N", series)
		},
		"fig10": func() error {
			series := bench.Figure10(cfg)
			fmt.Println(stats.RenderSeries("Figure 10: 8MB Allreduce speedup vs CPU (strong scaling)",
				"nodes", series))
			fmt.Println(stats.Plot(series, stats.PlotOptions{XLabel: "nodes", Title: "speedup vs CPU"}))
			return writeCSV(*csvDir, "fig10", "nodes", series)
		},
		"fig11": func() error {
			results, err := bench.Figure11(cfg)
			if err != nil {
				return fmt.Errorf("fig11: %w", err)
			}
			fmt.Println(bench.RenderFigure11(results))
			return nil
		},
		"table1":    func() error { fmt.Println(bench.RenderTable1()); return nil },
		"table2":    func() error { fmt.Println(bench.RenderTable2(cfg)); return nil },
		"table3":    func() error { fmt.Println(bench.RenderTable3()); return nil },
		"ablations": func() error { fmt.Println(bench.RenderAblations(cfg)); return nil },
		"faults": func() error {
			// The fault-tolerance sweep arms its own injector per drop
			// rate; the -fault-* flags select the baseline configuration.
			fmt.Println(bench.RenderFaultTolerance(cfg))
			return nil
		},
		"resources": func() error {
			// The pressure sweep sets its own trigger-list caps per row;
			// the -cap-* flags select the baseline configuration.
			fmt.Println(bench.RenderResourcePressure(cfg))
			return nil
		},
		"crash": func() error {
			// The recovery sweep sets its own crash schedule per cell; the
			// -health-* flags select the heartbeat timing.
			fmt.Println(bench.RenderCrashRecovery(cfg))
			return nil
		},
		"partitions": func() error {
			// The partition sweep sets its own cut and degradation schedules
			// per cell; the -health-* flags select the heartbeat timing.
			fmt.Println(bench.RenderPartitions(cfg))
			return nil
		},
		"sdc": func() error {
			// The SDC sweep arms its own corruption schedule and e2e
			// checksum per cell; the -e2e-latency-ns and -health-* flags
			// select the baseline pricing and heartbeat timing.
			fmt.Println(bench.RenderSDC(cfg))
			return nil
		},
		"stragglers": func() error {
			// The straggler sweep arms its own fail-slow schedule and
			// detection timing per cell; the -slow-*/-hedge flags configure
			// standalone runs of the other experiments instead.
			fmt.Println(bench.RenderStragglers(cfg))
			return nil
		},
		"chaossearch": func() error {
			// Search mode samples -chaos-trials random composed scenarios and
			// shrinks the first auditor violation; replay mode reruns the
			// -scenario-* flags (a minimized reproducer) on every backend.
			if *chaosReplay {
				if !cfg.Scenario.Enabled() {
					return fmt.Errorf("chaossearch: -chaos-replay needs -scenario-domains/-scenario-events")
				}
				fmt.Println(bench.RenderChaosReplay(cfg, *chaosInject))
				return nil
			}
			fmt.Println(bench.RenderChaosSearch(cfg, bench.ChaosConfig{
				Seed:   *chaosSeed,
				Trials: *chaosTrials,
				Inject: *chaosInject,
			}))
			return nil
		},
		"perf": func() error {
			rep, err := bench.RunPerf(cfg, *perfPreset, perfRuns)
			if err != nil {
				return err
			}
			fmt.Println(rep.Render())
			var regressions []string
			if *benchBaseline != "" {
				base, err := bench.LoadPerfReport(*benchBaseline)
				if err != nil {
					return err
				}
				regressions = bench.ComparePerf(rep, base, *benchTolerance)
			}
			if *benchOut != "" {
				if err := rep.WriteJSON(*benchOut); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "wrote %s\n", *benchOut)
			}
			if len(regressions) > 0 {
				for _, r := range regressions {
					fmt.Fprintln(os.Stderr, "perf regression:", r)
				}
				return fmt.Errorf("perf: %d experiment(s) regressed beyond %.0f%% vs %s",
					len(regressions), *benchTolerance*100, *benchBaseline)
			}
			return nil
		},
	}
	order := []string{"table1", "table2", "table3", "fig1", "fig8", "fig9", "fig10", "fig11", "ablations", "faults", "resources", "crash", "partitions", "sdc", "stragglers"}
	figures := []string{"fig1", "fig8", "fig9", "fig10", "fig11"}

	var names []string
	switch *exp {
	case "all":
		names = order
	case "figures":
		names = figures
	default:
		if _, ok := runners[*exp]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (want one of %v, perf, figures, or all; -list describes them)\n", *exp, order)
			return 2
		}
		names = []string{*exp}
	}
	for _, name := range names {
		if err := runners[name](); err != nil {
			fmt.Fprintln(os.Stderr, "gputn-bench:", err)
			return 1
		}
	}
	return 0
}
