// Command gputn-bench regenerates the paper's tables and figures, and runs
// the simulator's extension, robustness, and self-benchmark experiments.
//
// Usage:
//
//	gputn-bench -exp all
//	gputn-bench -exp fig10 -out results/
//	gputn-bench -exp timelines -out traces/
//	gputn-bench -exp perf -perf-preset smoke -bench-baseline BENCH_sim.json
//	gputn-bench -exp faults -fault-drop 0.05 -reliable
//	gputn-bench -list
//
// -exp all runs the paper's tables and figures plus the ablation and
// robustness sweeps; -exp figures runs fig1+fig8+fig9+fig10+fig11. The
// timelines, mlsweep, mltrain, sensitivity, chaossearch, and perf
// experiments run only by name. -list describes every experiment. -out DIR
// also writes figure data as CSV and the timelines as Chrome trace-event
// files (fig8-<backend>.trace.json, loadable in chrome://tracing or
// https://ui.perfetto.dev) into DIR.
//
// -parallel sets how many OS threads sweeps fan independent simulation
// replicas across; results are collected in submission order, so output is
// byte-identical for any value. -shards splits each simulated cluster's
// nodes across N event engines under conservative bounded-window sync;
// results are shard-count invariant (features needing a global event
// order cap the engine count at one). -exp perf times each experiment 3
// times and, with -bench-baseline, fails when the median events/sec falls
// more than 30% below the baseline; -cpuprofile and -memprofile profile
// whatever runs.
//
// Every other flag sets a field of the simulated system's configuration
// (config.SystemConfig) for every experiment in the run, and all of them
// at their defaults keep the paper's configuration bit-for-bit. The
// -fault-*, -cap-*, -topo-*, -sdc-*, and -scenario-* groups configure the
// fault injector, NIC resource bounds, fat-tree shape, silent-corruption
// injection, and the correlated-failure composer; -reliable, -e2e, and
// -hedge arm the NIC's retransmit layer, the end-to-end checksum, and
// fail-slow detection. The single-event groups -crash-*, -part-*,
// -degrade-*, -slow-*, and -switch-* each arm one crash, partition,
// gray-link window, fail-slow window, or switch kill when their time flag
// is non-zero. The run header echoes whatever is armed.
package main

import (
	"flag"
	"fmt"
	"io"
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

// perfTolerance is the fractional events/sec regression against the
// -bench-baseline report that fails -exp perf.
const perfTolerance = 0.30

// experimentList names every experiment with a one-line description; -list
// renders it and the runner map must cover it.
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
	{"timelines", "Fig. 8 per-backend span timelines; -out also writes them as Chrome traces (not part of -exp all)"},
	{"mlsweep", "Fig. 11 GPU-TN projection across cluster sizes 2-32 (not part of -exp all)"},
	{"mltrain", "in-sim synchronous-SGD training loop vs the Fig. 11 projection (not part of -exp all)"},
	{"sensitivity", "GPU-TN Fig. 8 latency reduction over kernel-overhead scale x bandwidth, vs HDN and GDS (not part of -exp all)"},
	{"chaossearch", "shrinking chaos search: random correlated scenarios x backends under the invariant auditor (not part of -exp all)"},
	{"perf", "simulator self-benchmark: events/sec, allocs/event, wall time (not part of -exp all)"},
}

// allOrder is what -exp all runs, in order; figureOrder is -exp figures.
var (
	allOrder    = []string{"table1", "table2", "table3", "fig1", "fig8", "fig9", "fig10", "fig11", "ablations", "faults", "resources", "crash", "partitions", "sdc", "stragglers"}
	figureOrder = []string{"fig1", "fig8", "fig9", "fig10", "fig11"}
)

// options are the flags that steer the run rather than the simulated system.
type options struct {
	exp, out    string
	list        bool
	parallel    int
	perfPreset  string
	benchOut    string
	benchBase   string
	cpuprofile  string
	memprofile  string
	chaos       bench.ChaosConfig
	chaosReplay bool
}

// timeFlag binds a float flag counted in unit onto a sim.Time field.
type timeFlag struct {
	t    *sim.Time
	unit sim.Time
}

func (f *timeFlag) String() string {
	if f.t == nil {
		return "0"
	}
	return strconv.FormatFloat(float64(*f.t)/float64(f.unit), 'g', -1, 64)
}

func (f *timeFlag) Set(s string) error {
	x, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return err
	}
	*f.t = sim.Time(x * float64(f.unit))
	return nil
}

// nodeList binds a comma-separated node list flag ("0,1,3"); empty is nil.
type nodeList struct{ nodes *[]int }

func (l *nodeList) String() string {
	if l.nodes == nil {
		return ""
	}
	parts := make([]string, len(*l.nodes))
	for i, n := range *l.nodes {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ",")
}

func (l *nodeList) Set(s string) error {
	var out []int
	if s != "" {
		for _, part := range strings.Split(s, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("node list %q: %w", s, err)
			}
			out = append(out, n)
		}
	}
	*l.nodes = out
	return nil
}

// parseFlags binds every flag straight onto a config.Default() (the
// single-event groups onto local events armed only when their time flag is
// set), parses args, and validates the result.
func parseFlags(args []string) (config.SystemConfig, options, error) {
	cfg := config.Default()
	var opts options
	fs := flag.NewFlagSet("gputn-bench", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // run reports the error; -h prints usage below
	us := func(t *sim.Time, name, usage string) { fs.Var(&timeFlag{t, sim.Microsecond}, name, usage) }
	nodes := func(l *[]int, name, usage string) { fs.Var(&nodeList{l}, name, usage) }

	fs.StringVar(&opts.exp, "exp", "all", "experiment to run (-list describes them), figures, or all")
	fs.BoolVar(&opts.list, "list", false, "list all experiments with one-line descriptions and exit")
	fs.StringVar(&opts.out, "out", "", "also write figure data as CSV and the timelines as Chrome traces into this directory")
	fs.IntVar(&opts.parallel, "parallel", runtime.NumCPU(), "worker threads for sweep replicas (1 = serial)")
	fs.IntVar(&cfg.Shards, "shards", 0, "intra-run node shards for the parallel event engine (0 or 1 = one engine; N>=2 = conservative bounded-window engine over N engines; results shard-count invariant)")

	fs.StringVar(&opts.perfPreset, "perf-preset", "full", "perf harness preset: full|smoke")
	fs.StringVar(&opts.benchOut, "bench-out", "BENCH_sim.json", "write the perf report JSON here (empty = don't write)")
	fs.StringVar(&opts.benchBase, "bench-baseline", "", "compare the perf report against this baseline JSON")
	fs.StringVar(&opts.cpuprofile, "cpuprofile", "", "write a CPU profile here")
	fs.StringVar(&opts.memprofile, "memprofile", "", "write a heap profile here at exit")

	f := &cfg.Faults
	fs.Int64Var(&f.Seed, "fault-seed", 42, "fault injector RNG seed")
	fs.Float64Var(&f.DropProb, "fault-drop", 0, "per-packet drop probability [0,1]")
	fs.Float64Var(&f.CorruptProb, "fault-corrupt", 0, "per-packet corruption probability [0,1]")
	fs.IntVar(&f.FlapNode, "fault-flap-node", 0, "node whose links flap during the flap window")
	us(&f.FlapStart, "fault-flap-start-us", "flap window start (us)")
	us(&f.FlapEnd, "fault-flap-end-us", "flap window end (us); 0 disables flapping")
	var reliable bool
	rel := config.DefaultReliability()
	fs.BoolVar(&reliable, "reliable", false, "enable the NIC reliable-delivery layer (seq/ack/retransmit)")
	fs.BoolVar(&rel.AdaptiveRTO, "adaptive-rto", false, "use the per-peer Jacobson/Karels adaptive retransmit timer (takes effect only with -reliable)")

	part := config.PartitionConfig{Events: make([]config.PartitionEvent, 1)}
	pe := &part.Events[0]
	nodes(&pe.A, "part-a", "comma-separated node list forming partition side A")
	nodes(&pe.B, "part-b", "partition side B; empty = everyone not in side A")
	us(&pe.At, "part-at-us", "partition cut time (us); 0 disables the partition schedule")
	us(&pe.HealAfter, "part-heal-us", "heal delay after the cut (us); 0 = never heals")
	fs.BoolVar(&pe.Asymmetric, "part-asym", false, "asymmetric cut: blackhole only A->B traffic, deliver B->A")

	degrade := config.DegradeConfig{Windows: make([]config.DegradeWindow, 1)}
	dw := &degrade.Windows[0]
	fs.IntVar(&dw.Src, "degrade-src", -1, "gray-link source node (-1 = any)")
	fs.IntVar(&dw.Dst, "degrade-dst", -1, "gray-link destination node (-1 = any)")
	us(&dw.From, "degrade-from-us", "gray-link window start (us)")
	us(&dw.Until, "degrade-until-us", "gray-link window end (us); 0 disables the window")
	fs.Float64Var(&dw.LatencyFactor, "degrade-factor", 0, "latency multiplier on the gray link (>1 slows it)")
	fs.Float64Var(&dw.LossProb, "degrade-loss", 0, "per-packet loss probability on the gray link [0,1]")
	fs.BoolVar(&dw.Ramp, "degrade-ramp", false, "ramp the loss linearly from 0 to -degrade-loss over the window")

	crash := config.CrashConfig{Events: make([]config.CrashEvent, 1)}
	ce := &crash.Events[0]
	fs.IntVar(&ce.Node, "crash-node", 0, "node the -crash-at-us event kills")
	us(&ce.At, "crash-at-us", "crash-stop time (us); 0 disables the crash schedule")
	us(&ce.RestartAfter, "crash-restart-us", "restart delay after the crash (us); 0 = never restarts")
	var health config.HealthConfig // non-zero timings override config.DefaultHealth()
	us(&health.Period, "health-period-us", "heartbeat GPU-tick period (us); 0 = default")
	us(&health.SuspectAfter, "health-suspect-us", "silence before a node is suspected dead (us); 0 = default")
	us(&health.StabilizeDelay, "health-stabilize-us", "view-stability window before reintegration (us); 0 = default")
	fs.BoolVar(&health.SlowDetect, "hedge", false, "arm progress-based fail-slow detection in the health suite (implies health)")

	sdc := config.SDCConfig{}
	fs.Int64Var(&sdc.Seed, "sdc-seed", 42, "SDC plan private RNG seed")
	fs.Float64Var(&sdc.WireProb, "sdc-wire", 0, "per-packet silent wire-corruption probability [0,1] (link CRC stays green)")
	fs.Float64Var(&sdc.BufferProb, "sdc-buffer", 0, "per-send buffer-corruption-at-rest probability [0,1] on -sdc-buffer-node")
	fs.IntVar(&sdc.BufferNode, "sdc-buffer-node", 0, "node whose send buffers corrupt at rest")
	fs.IntVar(&sdc.FaultyRank, "sdc-rank", 0, "rank whose reduction combines are wrong during the faulty window")
	us(&sdc.FaultyFrom, "sdc-from-us", "faulty-reducer window start (us)")
	us(&sdc.FaultyUntil, "sdc-until-us", "faulty-reducer window end (us); 0 disables the window")
	fs.BoolVar(&cfg.NIC.E2EChecksum, "e2e", false, "arm the end-to-end payload checksum (CRC32C, verified at the destination)")
	fs.Var(&timeFlag{&cfg.NIC.E2EChecksumLatency, sim.Nanosecond}, "e2e-latency-ns", "modeled per-message checksum compute/verify cost (ns)")

	slow := config.SlowConfig{Windows: make([]config.SlowWindow, 1)}
	sw := &slow.Windows[0]
	fs.Int64Var(&slow.Seed, "slow-seed", 42, "fail-slow plan private RNG seed")
	fs.IntVar(&sw.Node, "slow-node", 0, "node the fail-slow window dilates")
	us(&sw.From, "slow-from-us", "fail-slow window start (us)")
	us(&sw.Until, "slow-until-us", "fail-slow window end (us); 0 disables the window")
	fs.Float64Var(&sw.GPUFactor, "slow-gpu-factor", 0, "GPU compute dilation factor inside the window (>1 slows)")
	fs.Float64Var(&sw.CmdFactor, "slow-cmd-factor", 0, "NIC command-parse stretch factor inside the window (>1 slows)")
	fs.Float64Var(&sw.CmdStallProb, "slow-stall-prob", 0, "per-command hard-stall probability inside the window [0,1]")
	us(&sw.CmdStallTime, "slow-stall-us", "duration of each hard command stall (us)")
	fs.Float64Var(&sw.DMAFactor, "slow-dma-factor", 0, "DMA transfer dilation factor inside the window (>1 slows)")

	var scenario config.ScenarioConfig
	var domains, events string
	fs.Int64Var(&scenario.Seed, "scenario-seed", 42, "composed-scenario private jitter RNG seed")
	fs.StringVar(&domains, "scenario-domains", "", `named failure domains, e.g. "rack0=0,1,2,3;rack1=4,5,6,7"`)
	fs.StringVar(&events, "scenario-events", "", `correlated events over the domains, e.g. "rackfail:rack0@50us,heal=80us,jitter=10us"; empty disables the composer`)
	fs.Int64Var(&opts.chaos.Seed, "chaos-seed", 42, "chaos-search scenario-sampling seed")
	fs.IntVar(&opts.chaos.Trials, "chaos-trials", 6, "chaos-search scenarios sampled per run")
	fs.StringVar(&opts.chaos.Inject, "chaos-inject", "", "arm a seeded protocol bug for chaossearch: doublefire|staledeliver")
	fs.BoolVar(&opts.chaosReplay, "chaos-replay", false, "replay the -scenario-* flags on every backend and report audit verdicts instead of searching")

	rc := &cfg.NIC.Resources
	fs.IntVar(&rc.TriggerEntries, "cap-trigger-entries", 0, "trigger-list capacity (0 = paper default of 16)")
	fs.IntVar(&rc.PlaceholderEntries, "cap-placeholders", 0, "relaxed-sync placeholder budget (0 = shared with trigger list)")
	fs.IntVar(&rc.CmdQueueDepth, "cap-cmdq", 0, "host command-queue depth; full queues backpressure posters (0 = unbounded)")
	fs.IntVar(&cfg.NIC.TriggerFIFODepth, "cap-trigger-fifo", 0, "trigger FIFO depth; overflow drops and counts (0 = unbounded)")

	ft := &cfg.Network.FatTree
	fs.StringVar(&cfg.Network.Topology, "topo", "", "interconnect topology: star|fattree (empty = the Table 2 star)")
	fs.IntVar(&ft.LeafSize, "topo-leaf", 0, "fat-tree nodes per leaf switch (0 = 4)")
	fs.IntVar(&ft.PodLeaves, "topo-podleaves", 0, "fat-tree leaf switches per pod (0 = 2)")
	fs.IntVar(&ft.Spines, "topo-spines", 0, "fat-tree spine switches per pod (0 = 2)")
	fs.IntVar(&ft.Cores, "topo-cores", 0, "fat-tree core switches (0 = spines)")
	fs.IntVar(&ft.QueueCredits, "topo-credits", 0, "fat-tree per-port queue credits; senders backpressure when exhausted (0 = unbounded)")
	fs.IntVar(&ft.ECNThreshold, "topo-ecn", 0, "fat-tree ECN marking threshold in queued frames (0 = never mark)")
	sws := config.SwitchConfig{Events: make([]config.SwitchEvent, 1)}
	se := &sws.Events[0]
	fs.StringVar(&se.Tier, "switch-tier", "", "deterministic switch-kill tier: leaf|spine|core|trunk (needs -switch-at-us)")
	fs.IntVar(&se.Index, "switch-index", 0, "switch index within -switch-tier")
	fs.StringVar(&se.A, "switch-a", "", `trunk endpoint A ref for -switch-tier trunk, e.g. "leaf0"`)
	fs.StringVar(&se.B, "switch-b", "", `trunk endpoint B ref for -switch-tier trunk, e.g. "spine1"`)
	us(&se.At, "switch-at-us", "switch-kill time (us); 0 disables the switch schedule")
	us(&se.RestoreAfter, "switch-restore-us", "restore delay after the kill (us); 0 = never restored")

	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			fs.SetOutput(os.Stderr)
			fs.Usage()
		}
		return cfg, opts, err
	}

	if pe.At > 0 {
		cfg.Faults.Partition = part
	}
	if dw.Until > 0 {
		cfg.Faults.Degrade = degrade
	}
	if sdc.WireProb > 0 || sdc.BufferProb > 0 || sdc.FaultyUntil > 0 {
		cfg.Faults.SDC = sdc
	}
	if sw.Until > 0 {
		cfg.Faults.Slow = slow
	}
	if se.At > 0 {
		cfg.Faults.Switch = sws
	}
	if reliable {
		cfg.NIC.Reliability = rel
	}
	if events != "" {
		var err error
		if scenario.Domains, err = config.ParseScenarioDomains(domains); err != nil {
			return cfg, opts, fmt.Errorf("-scenario-domains: %w", err)
		}
		if scenario.Events, err = config.ParseScenarioEvents(events); err != nil {
			return cfg, opts, fmt.Errorf("-scenario-events: %w", err)
		}
		cfg.Scenario = scenario
	}
	if ce.At > 0 {
		cfg.Crash = crash
	}
	if ce.At > 0 || health.SlowDetect || health.Period > 0 || health.SuspectAfter > 0 || health.StabilizeDelay > 0 {
		cfg.Health = config.DefaultHealth()
		cfg.Health.SlowDetect = health.SlowDetect
		if health.Period > 0 {
			cfg.Health.Period = health.Period
		}
		if health.SuspectAfter > 0 {
			cfg.Health.SuspectAfter = health.SuspectAfter
		}
		if health.StabilizeDelay > 0 {
			cfg.Health.StabilizeDelay = health.StabilizeDelay
		}
	}
	return cfg, opts, cfg.Validate()
}

// writeFile creates path, fills it with write, and reports it on stderr.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// writeCSV saves a figure's series to <dir>/<name>.csv when dir is set.
func writeCSV(dir, name, xlabel string, series []*stats.Series) error {
	if dir == "" {
		return nil
	}
	return writeFile(filepath.Join(dir, name+".csv"), func(w io.Writer) error {
		return stats.WriteSeriesCSV(w, xlabel, series)
	})
}

func main() { os.Exit(run()) }

// run is main minus os.Exit, so profile-flushing defers always execute.
func run() int {
	cfg, opts, err := parseFlags(os.Args[1:])
	if err == flag.ErrHelp {
		return 0
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gputn-bench:", err)
		return 2
	}
	if opts.list {
		for _, e := range experimentList {
			fmt.Printf("%-11s  %s\n", e.name, e.desc)
		}
		fmt.Printf("%-11s  %s\n", "figures", "fig1+fig8+fig9+fig10+fig11")
		fmt.Printf("%-11s  %s\n", "all", "every experiment above not marked otherwise")
		return 0
	}

	bench.SetParallelism(opts.parallel)

	if opts.cpuprofile != "" {
		f, err := os.Create(opts.cpuprofile)
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
			fmt.Fprintf(os.Stderr, "wrote %s\n", opts.cpuprofile)
		}()
	}
	if opts.memprofile != "" {
		defer func() {
			runtime.GC()
			if err := writeFile(opts.memprofile, pprof.WriteHeapProfile); err != nil {
				fmt.Fprintln(os.Stderr, "gputn-bench:", err)
			}
		}()
	}

	if cfg.Faults.Enabled() && !cfg.NIC.Reliability.Enabled {
		fmt.Fprintln(os.Stderr, "warning: faults armed without -reliable; lossy runs may lose messages and hang or skew results")
	}
	if cfg.Crash.Enabled() && opts.exp != "crash" {
		fmt.Fprintln(os.Stderr, "warning: -crash-* armed for a non-crash experiment; only crash-aware recovery drivers survive a mid-run crash")
	}
	printHeader(cfg)

	runners := runners(cfg, opts)
	var names []string
	switch opts.exp {
	case "all":
		names = allOrder
	case "figures":
		names = figureOrder
	default:
		if _, ok := runners[opts.exp]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (want figures, all, or one that -list names)\n", opts.exp)
			return 2
		}
		names = []string{opts.exp}
	}
	for _, name := range names {
		if err := runners[name](); err != nil {
			fmt.Fprintln(os.Stderr, "gputn-bench:", err)
			return 1
		}
	}
	return 0
}

// printHeader states the run's fault, crash, topology, and NIC settings up
// front so saved outputs are self-describing.
func printHeader(cfg config.SystemConfig) {
	if cfg.Shards > 0 {
		fmt.Printf("engine: sharded (shards=%d, conservative bounded-window sync)\n", cfg.Shards)
	}
	fmt.Println(fault.NewInjector(cfg.Faults, 0).Summary())
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
	if r := cfg.NIC.Reliability; r.Enabled {
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
	if rc := cfg.NIC.Resources; rc.Enabled() || cfg.NIC.TriggerFIFODepth > 0 {
		fmt.Printf("resources: triggerEntries=%d placeholders=%d cmdq=%d trigFIFO=%d (0 = unbounded/default)\n",
			rc.TriggerEntries, rc.PlaceholderEntries, rc.CmdQueueDepth, cfg.NIC.TriggerFIFODepth)
	}
	fmt.Println()
}

// runners maps every experiment name to the closure that runs it under cfg.
func runners(cfg config.SystemConfig, opts options) map[string]func() error {
	return map[string]func() error{
		"fig1": func() error {
			series := bench.Figure1(cfg)
			fmt.Println(bench.RenderFigure1(series))
			return writeCSV(opts.out, "fig1", "queued", series)
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
			fmt.Println(bench.RenderFigure9(series))
			return writeCSV(opts.out, "fig9", "N", series)
		},
		"fig10": func() error {
			series := bench.Figure10(cfg)
			fmt.Println(bench.RenderFigure10(series))
			return writeCSV(opts.out, "fig10", "nodes", series)
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
		"timelines": func() error {
			res := bench.Figure8(cfg)
			fmt.Print(bench.RenderTimelines(res))
			if opts.out == "" {
				return nil
			}
			for _, kind := range bench.TimelineKinds {
				name := "fig8-" + strings.ToLower(strings.ReplaceAll(kind.String(), "-", "")) + ".trace.json"
				if err := writeFile(filepath.Join(opts.out, name), res.Runs[kind].Tracer.WriteChromeTrace); err != nil {
					return err
				}
			}
			return nil
		},
		"mlsweep": func() error {
			out, err := bench.RenderMLSweep(cfg)
			fmt.Print(out)
			return err
		},
		"mltrain": func() error {
			out, err := bench.RenderMLTrain(cfg)
			fmt.Print(out)
			return err
		},
		"sensitivity": func() error {
			grids := bench.Sensitivity(cfg)
			for _, base := range bench.SensitivityBaselines {
				fmt.Println(bench.RenderSensitivity(base, grids[base]))
				name := "sensitivity-" + strings.ToLower(base.String())
				if err := writeCSV(opts.out, name, "gbps", grids[base]); err != nil {
					return err
				}
			}
			return nil
		},
		"chaossearch": func() error {
			// Search mode samples -chaos-trials random composed scenarios and
			// shrinks the first auditor violation; replay mode reruns the
			// -scenario-* flags (a minimized reproducer) on every backend.
			if opts.chaosReplay {
				if !cfg.Scenario.Enabled() {
					return fmt.Errorf("chaossearch: -chaos-replay needs -scenario-domains/-scenario-events")
				}
				fmt.Println(bench.RenderChaosReplay(cfg, opts.chaos.Inject))
				return nil
			}
			fmt.Println(bench.RenderChaosSearch(cfg, opts.chaos))
			return nil
		},
		"perf": func() error {
			rep, err := bench.RunPerf(cfg, opts.perfPreset, perfRuns)
			if err != nil {
				return err
			}
			fmt.Println(rep.Render())
			var regressions []string
			if opts.benchBase != "" {
				base, err := bench.LoadPerfReport(opts.benchBase)
				if err != nil {
					return err
				}
				regressions = bench.ComparePerf(rep, base, perfTolerance)
			}
			if opts.benchOut != "" {
				if err := rep.WriteJSON(opts.benchOut); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "wrote %s\n", opts.benchOut)
			}
			if len(regressions) > 0 {
				for _, r := range regressions {
					fmt.Fprintln(os.Stderr, "perf regression:", r)
				}
				return fmt.Errorf("perf: %d gate failure(s) vs %s", len(regressions), opts.benchBase)
			}
			return nil
		},
	}
}
