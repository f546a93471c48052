package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/audit"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/sim"
)

// Run rules. A finished cluster leaves parked goroutines that keep it
// reachable, so ops run in short-lived child processes, one at a time.
const (
	opsPerChild = 25
	// minChildren fixes the set of ops every run makes, which the digest
	// and the per-layer counts cover: minChildren*opsPerChild = 100.
	minChildren = 4
	// runDeadline bounds one run, children included.
	runDeadline = 170 * time.Second
)

// warmupOp is the op index of child k's untimed warm-up op, outside the
// range timed ops use.
func warmupOp(k int) int { return 1_000_000 + k }

// opRecord is one timed op as a child reports it.
type opRecord struct {
	Op  int    `json:"op"`
	Err string `json:"err,omitempty"`
	// Host time in NewCluster, in the entry point, and in Audit.Finish.
	SetupNs  int64 `json:"setup_ns"`
	RunNs    int64 `json:"run_ns"`
	FinishNs int64 `json:"finish_ns"`
	// SetupBytes is allocated by NewCluster; Mallocs counts allocations
	// in the entry point.
	SetupBytes uint64 `json:"setup_bytes"`
	Mallocs    uint64 `json:"mallocs"`
	// Leaked is the growth in goroutines across the op.
	Leaked int `json:"leaked"`
	// Counts are exact for a given op and seed.
	Counts counts `json:"counts"`
}

// counts are the per-layer work counts of one op, read through each
// layer's public accessors once the simulation has drained.
type counts struct {
	SimPs       int64    `json:"sim_ps"`
	Events      uint64   `json:"events"`
	ShardEvents []uint64 `json:"shard_events"`
	Engines     int      `json:"engines"`
	Msgs        int64    `json:"msgs"`
	Bytes       int64    `json:"bytes"`
	Lost        int64    `json:"lost"`
	Cmds        int64    `json:"cmds"`
	Fires       int64    `json:"fires"`
	Retransmits int64    `json:"retransmits"`
	Kernels     int64    `json:"kernels"`
	Dropped     int64    `json:"dropped"`
	Beats       int64    `json:"beats"`
	Suspicions  int64    `json:"suspicions"`
	Attempts    int      `json:"attempts"`
	AttemptsOK  int      `json:"attempts_ok"`
	Checks      int64    `json:"checks"`
	Violations  int      `json:"violations"`
}

// childSummary closes a child's output.
type childSummary struct {
	PeakRSSKB     int64  `json:"peak_rss_kb"`
	AuditNewBytes uint64 `json:"audit_new_bytes"`
	// CPU is the percent of profile samples in each bucket (see
	// cpuBuckets), in a profiled child only.
	CPU map[string]float64 `json:"cpu,omitempty"`
}

// childLine is one line of a child's standard output.
type childLine struct {
	Op      *opRecord     `json:"op,omitempty"`
	Summary *childSummary `json:"summary,omitempty"`
}

// runOp builds a cluster, runs one op and checks it. Only NewCluster and
// the entry point are timed; generating inputs, counting and checking
// happen outside. A panic in the simulator fails the op.
func runOp(oc opCase, op int, sp *spanLog) (rec opRecord) {
	rec.Op = op
	opStart := time.Now()
	defer func() {
		if r := recover(); r != nil {
			rec.Err = fmt.Sprintf("panic: %v", r)
		}
		sp.add("op", op, opStart, time.Now())
	}()
	var ms runtime.MemStats
	goroutines := runtime.NumGoroutine()
	events := sim.TotalExecuted()
	shards := sim.ShardExecuted()
	runtime.ReadMemStats(&ms)
	allocated := ms.TotalAlloc

	t0 := time.Now()
	c := node.NewCluster(oc.cfg, oc.nodes)
	t1 := time.Now()
	// One P per engine: a single engine on two Ps hands its goroutines
	// between threads, which is slower and much noisier.
	runtime.GOMAXPROCS(len(c.Engines))
	runtime.ReadMemStats(&ms)
	rec.SetupBytes = ms.TotalAlloc - allocated
	mallocs := ms.Mallocs
	t2 := time.Now()
	res, err := oc.run(c)
	t3 := time.Now()
	runtime.ReadMemStats(&ms)
	rec.Mallocs = ms.Mallocs - mallocs
	t4 := time.Now()
	c.Audit.Finish(c.Eng.Now(), true)
	t5 := time.Now()
	rec.SetupNs, rec.RunNs, rec.FinishNs = t1.Sub(t0).Nanoseconds(), t3.Sub(t2).Nanoseconds(), t5.Sub(t4).Nanoseconds()
	sp.add("node.NewCluster", op, t0, t1)
	sp.add("entry", op, t2, t3)
	sp.add("audit.Finish", op, t4, t5)

	rec.Counts = countCluster(c, res, sim.TotalExecuted()-events, shards)
	if err == nil {
		err = verify(res)
	}
	if err == nil && !c.Audit.Clean() {
		err = fmt.Errorf("audit: %s", c.Audit.Report())
	}
	sp.add("verify", op, t5, time.Now())
	if err != nil {
		rec.Err = err.Error()
	}
	rec.Leaked = runtime.NumGoroutine() - goroutines
	return rec
}

// shardDelta returns the events each of the cluster's engines ran, from
// two snapshots of sim.ShardExecuted.
func shardDelta(before, after []uint64, engines int) []uint64 {
	d := make([]uint64, engines)
	for i := range d {
		if i < len(after) {
			d[i] = after[i]
		}
		if i < len(before) {
			d[i] -= before[i]
		}
	}
	return d
}

func countCluster(c *node.Cluster, res opResult, events uint64, shardsBefore []uint64) counts {
	k := counts{
		SimPs: int64(res.simDur), Events: events, Engines: len(c.Engines),
		Lost: c.Fabric.MessagesLost(), Dropped: c.Injector.Stats().PacketsDropped,
		Beats: res.beats, Suspicions: res.suspicions, Attempts: res.attempts, AttemptsOK: res.attemptsOK,
		Checks: c.Audit.ChecksEvaluated(),
	}
	// A serial cluster reports nothing to sim.ShardExecuted: its one
	// engine ran every event.
	k.ShardEvents = []uint64{events}
	if c.Sharded != nil {
		k.ShardEvents = shardDelta(shardsBefore, sim.ShardExecuted(), len(c.Engines))
	}
	vs, dropped := c.Audit.Violations()
	k.Violations = len(vs) + dropped
	for _, nd := range c.Nodes {
		id := network.NodeID(nd.Index)
		ns := nd.NIC.Stats()
		k.Msgs += c.Fabric.MessagesDelivered(id)
		k.Bytes += c.Fabric.BytesSent(id)
		k.Cmds += ns.CommandsExecuted
		k.Fires += ns.TriggerFires
		k.Retransmits += ns.Retransmits
		k.Kernels += nd.GPU.KernelsLaunched()
	}
	return k
}

// verify compares every rank's output with the reference, exactly.
func verify(res opResult) error {
	want := res.want()
	checked := 0
	for r, got := range res.got {
		if got == nil {
			continue
		}
		if r >= len(want) || len(want[r]) != len(got) {
			return fmt.Errorf("rank %d: output has %d elements, reference has none or another length", r, len(got))
		}
		for i, v := range got {
			if v != want[r][i] {
				return fmt.Errorf("rank %d elem %d: got %v want %v", r, i, v, want[r][i])
			}
		}
		checked++
	}
	if checked == 0 {
		return errors.New("no rank produced an output")
	}
	return nil
}

// runChild is the body of child process k: one untimed warm-up op, then
// sz.ops timed ops, each reported as a JSON line as it ends, then a
// summary line. A profiled child also records spans and writes them to
// traceFile.
func runChild(w io.Writer, wl *workload, sz sizes, seed int64, k int, traceFile string) error {
	enc := json.NewEncoder(w)
	runOp(wl.prepare(sz, opRand(seed, wl.name, warmupOp(k)), warmupOp(k)), warmupOp(k), nil)

	var sp *spanLog
	var prof bytes.Buffer
	if traceFile != "" {
		sp = &spanLog{epoch: time.Now()}
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	nodes := 0
	for i := 0; i < sz.ops; i++ {
		op := k*sz.ops + i
		oc := wl.prepare(sz, opRand(seed, wl.name, op), op)
		nodes = oc.nodes
		rec := runOp(oc, op, sp)
		if err := enc.Encode(childLine{Op: &rec}); err != nil {
			return err
		}
	}
	var sum childSummary
	if traceFile != "" {
		pprof.StopCPUProfile()
		cpu, err := layerShares(&prof)
		if err != nil {
			return fmt.Errorf("decode profile: %w", err)
		}
		sum.CPU = cpu
		if err := sp.write(traceFile); err != nil {
			return err
		}
	}
	sum.AuditNewBytes = auditNewBytes(nodes)
	rss, err := peakRSSKB()
	if err != nil {
		return err
	}
	sum.PeakRSSKB = rss
	return enc.Encode(childLine{Summary: &sum})
}

// auditNewBytes measures a standalone audit.New at the workload's size.
func auditNewBytes(n int) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	a := audit.New(n)
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(a)
	return ms.TotalAlloc - before
}

// peakRSSKB reads the process's peak resident set size (VmHWM).
func peakRSSKB() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// childOutput is what the parent collected from one child.
type childOutput struct {
	ops  int // timed ops the child was to run
	recs []opRecord
	sum  *childSummary
	err  error
}

// readChild collects the lines a child wrote.
func readChild(r io.Reader, ops int) childOutput {
	out := childOutput{ops: ops}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line childLine
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue
		}
		if line.Op != nil {
			out.recs = append(out.recs, *line.Op)
		}
		if line.Summary != nil {
			out.sum = line.Summary
		}
	}
	_, _ = io.Copy(io.Discard, r) // drain after a scan error so the child can exit
	return out
}

// spawnChild re-runs this binary as child k of a run and waits for it.
func spawnChild(ctx context.Context, wl *workload, seed int64, k int, traceFile string) childOutput {
	failed := func(err error) childOutput {
		return childOutput{ops: fullSize.ops, err: fmt.Errorf("child %d: %w", k, err)}
	}
	exe, err := os.Executable()
	if err != nil {
		return failed(err)
	}
	cmd := exec.CommandContext(ctx, exe, "-workload", wl.name, "-seed", strconv.FormatInt(seed, 10),
		"-child", strconv.Itoa(k), "-child-trace", traceFile)
	cmd.Stderr = os.Stderr
	// The child dies with the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return failed(err)
	}
	if err := cmd.Start(); err != nil {
		return failed(err)
	}
	out := readChild(stdout, fullSize.ops)
	if err := cmd.Wait(); err != nil {
		out.err = fmt.Errorf("child %d: %w", k, err)
	} else if out.sum == nil {
		out.err = fmt.Errorf("child %d ended without a summary", k)
	}
	return out
}

// runResult is everything one run measured.
type runResult struct {
	workload          *workload
	seed              int64
	children          int
	attempted, failed int
	recs              []opRecord
	peakRSSKB         int64
	auditNewBytes     uint64
	// traced is the profiled child's output (trace runs only).
	traced *childOutput
	errs   []string
}

// measure runs one workload: children of opsPerChild ops, one after
// another, until at least minChildren have run and seconds have passed
// (or the run's deadline); then, for a trace run, one profiled child that
// reruns child 0's ops, so that its times compare with child 0's.
func measure(wl *workload, seed int64, seconds int, traceFile string) *runResult {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	rr := &runResult{workload: wl, seed: seed}
	start := time.Now()
	for k := 0; k < minChildren || (time.Since(start) < time.Duration(seconds)*time.Second && ctx.Err() == nil); k++ {
		out := spawnChild(ctx, wl, seed, k, "")
		rr.add(out)
		rr.children++
	}
	if traceFile != "" {
		out := spawnChild(ctx, wl, seed, 0, traceFile)
		if out.err != nil {
			rr.errs = append(rr.errs, "profiled "+out.err.Error())
		}
		rr.traced = &out
	}
	return rr
}

func (rr *runResult) add(out childOutput) {
	rr.attempted += out.ops
	for _, rec := range out.recs {
		if rec.Err != "" {
			rr.failed++
			rr.errs = append(rr.errs, fmt.Sprintf("op %d: %s", rec.Op, rec.Err))
		}
	}
	// Every op a dead child had left counts as failed.
	rr.failed += out.ops - len(out.recs)
	rr.recs = append(rr.recs, out.recs...)
	if out.err != nil {
		rr.errs = append(rr.errs, out.err.Error())
	}
	if out.sum != nil {
		rr.peakRSSKB = max(rr.peakRSSKB, out.sum.PeakRSSKB)
		rr.auditNewBytes = out.sum.AuditNewBytes
	}
}

// fixed returns the records of the ops every run makes, in op order: the
// first minChildren children's.
func (rr *runResult) fixed() []opRecord {
	return rr.recs[:min(len(rr.recs), minChildren*opsPerChild)]
}
