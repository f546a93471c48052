package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// shardRigLookahead is the synthetic workload's minimum cross-node delay —
// the sharded group's lookahead.
const shardRigLookahead = Time(100)

// runShardRig drives a deterministic message-passing workload over nNodes
// nodes partitioned into nShards engines by assign (node -> shard). Each
// node's process sleeps, sends timestamped messages to other nodes (delay ≥
// lookahead, the fabric invariant), and every delivery schedules a local
// follow-up to exercise lane inheritance. It returns each node's event log
// and the final simulated time; both must be invariant under assign.
func runShardRig(nNodes, rounds int, assign []int, nShards int) ([][]string, Time) {
	engines := make([]*Engine, nShards)
	for i := range engines {
		engines[i] = NewEngine()
	}
	sh := NewSharded(engines, shardRigLookahead)
	logs := make([][]string, nNodes)
	engOf := func(n int) *Engine { return engines[assign[n]] }
	// deliver appends to the destination node's log and schedules a local
	// follow-up; it always runs on the destination engine under the
	// destination lane, whichever shard sent it.
	deliver := func(srcNode, dstNode, k int) func() {
		de := engOf(dstNode)
		return func() {
			logs[dstNode] = append(logs[dstNode], fmt.Sprintf("recv %d<-%d k=%d @%d lane=%d", dstNode, srcNode, k, de.Now(), de.Lane()))
			de.After(Time(5+k%3), func() {
				logs[dstNode] = append(logs[dstNode], fmt.Sprintf("fu %d k=%d @%d lane=%d", dstNode, k, de.Now(), de.Lane()))
			})
		}
	}
	for n := 0; n < nNodes; n++ {
		n := n
		e := engOf(n)
		lane := uint32(n + 1)
		e.SetLane(lane)
		e.GoLane(lane, fmt.Sprintf("node%d", n), func(p *Proc) {
			for k := 0; k < rounds; k++ {
				p.Sleep(Time((n*7+k*13)%50 + 1))
				dst := (n + k + 1) % nNodes
				d := shardRigLookahead + Time((n*3+k*5)%40)
				fn := deliver(n, dst, k)
				if de := engOf(dst); de == e {
					e.AfterLane(d, uint32(dst+1), fn)
				} else {
					sh.SendMail(e, de, d, uint32(dst+1), "", fn)
				}
				logs[n] = append(logs[n], fmt.Sprintf("sent %d->%d k=%d @%d", n, dst, k, p.Now()))
			}
		})
		e.SetLane(0)
	}
	sh.Run()
	return logs, engines[0].Now()
}

// shardAssignments enumerates the partitions the determinism tests compare:
// everything on one engine (the reference), a contiguous split, a strided
// split, and fully exploded one-node-per-shard.
func shardAssignments(nNodes int) []struct {
	name    string
	assign  []int
	nShards int
} {
	contig := make([]int, nNodes)
	strided := make([]int, nNodes)
	exploded := make([]int, nNodes)
	for i := 0; i < nNodes; i++ {
		contig[i] = i * 2 / nNodes
		strided[i] = i % 2
		exploded[i] = i
	}
	return []struct {
		name    string
		assign  []int
		nShards int
	}{
		{"1shard", make([]int, nNodes), 1},
		{"2contig", contig, 2},
		{"2strided", strided, 2},
		{"exploded", exploded, nNodes},
	}
}

// TestShardedDeterminism checks that every shard assignment of the rig
// produces node logs and a final clock identical to the single-engine run.
func TestShardedDeterminism(t *testing.T) {
	const nNodes, rounds = 6, 12
	refLogs, refNow := runShardRig(nNodes, rounds, make([]int, nNodes), 1)
	for _, n := range refLogs {
		if len(n) == 0 {
			t.Fatal("reference rig produced an empty node log")
		}
	}
	for _, tc := range shardAssignments(nNodes)[1:] {
		logs, now := runShardRig(nNodes, rounds, tc.assign, tc.nShards)
		if now != refNow {
			t.Errorf("%s: final time %d, want %d", tc.name, now, refNow)
		}
		if !reflect.DeepEqual(logs, refLogs) {
			for i := range logs {
				if !reflect.DeepEqual(logs[i], refLogs[i]) {
					t.Errorf("%s: node %d log diverges:\n got %v\nwant %v", tc.name, i, logs[i], refLogs[i])
				}
			}
		}
	}
}

// TestShardedDeterminismParallelWorkers re-runs the matrix with
// GOMAXPROCS raised so the coordinator takes the channel-worker path even
// on a single-CPU host; results must not change.
func TestShardedDeterminismParallelWorkers(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	const nNodes, rounds = 6, 12
	refLogs, refNow := runShardRig(nNodes, rounds, make([]int, nNodes), 1)
	for _, tc := range shardAssignments(nNodes)[1:] {
		logs, now := runShardRig(nNodes, rounds, tc.assign, tc.nShards)
		if now != refNow {
			t.Errorf("%s: final time %d, want %d", tc.name, now, refNow)
		}
		if !reflect.DeepEqual(logs, refLogs) {
			t.Errorf("%s: logs diverge from single-engine reference", tc.name)
		}
	}
}

// TestShardedLookaheadViolationPanics: mail below the lookahead window is a
// model bug (it could land inside a window already executing on the
// destination) and must panic loudly, not corrupt causality silently.
func TestShardedLookaheadViolationPanics(t *testing.T) {
	engines := []*Engine{NewEngine(), NewEngine()}
	sh := NewSharded(engines, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("SendMail below lookahead did not panic")
		}
	}()
	sh.SendMail(engines[0], engines[1], 50, 1, "", func() {})
}

// TestShardedSingleEngineMatchesRun: a one-engine group needs no lookahead
// and runs the golden workload exactly as the bare engine does — same
// trace, clock and TotalExecuted, through Run and through RunUntil (whose
// clock ends at the deadline) — and credits every executed event to
// shard 0.
func TestShardedSingleEngineMatchesRun(t *testing.T) {
	for _, deadline := range []Time{-1, 700} {
		drive := func(run func(e *Engine)) (trace []string, now Time, executed uint64) {
			e := NewEngine()
			goldenWorkload(e, &trace)
			before := TotalExecuted()
			run(e)
			return trace, e.Now(), TotalExecuted() - before
		}
		refTrace, refNow, refExec := drive(func(e *Engine) {
			if deadline < 0 {
				e.Run()
			} else {
				e.RunUntil(deadline)
			}
		})
		var shardBefore, shardAfter uint64
		trace, now, executed := drive(func(e *Engine) {
			sh := NewSharded([]*Engine{e}, 0)
			shardBefore = shardExecuted0()
			if deadline < 0 {
				sh.Run()
			} else {
				sh.RunUntil(deadline)
			}
			shardAfter = shardExecuted0()
		})
		if !reflect.DeepEqual(trace, refTrace) {
			t.Errorf("deadline %d: one-engine group trace diverges from Engine (%d vs %d events)", deadline, len(trace), len(refTrace))
		}
		if now != refNow {
			t.Errorf("deadline %d: clock %d, want %d", deadline, now, refNow)
		}
		if deadline >= 0 && now != deadline {
			t.Errorf("RunUntil(%d) left the clock at %d", deadline, now)
		}
		if executed != refExec || executed == 0 {
			t.Errorf("deadline %d: TotalExecuted grew by %d, want %d", deadline, executed, refExec)
		}
		if got := shardAfter - shardBefore; got != executed {
			t.Errorf("deadline %d: ShardExecuted()[0] grew by %d, want %d", deadline, got, executed)
		}
	}
}

func shardExecuted0() uint64 {
	if s := ShardExecuted(); len(s) > 0 {
		return s[0]
	}
	return 0
}

// TestShardedStopEndsRun: Stop ends a group run at every engine count — at
// once on one engine, at the next window barrier on several — leaving the
// stopping engine's clock at the stop, even under RunUntil; a later run
// resumes the queued work.
func TestShardedStopEndsRun(t *testing.T) {
	for _, deadline := range []Time{-1, 1000} {
		for _, nEngines := range []int{1, 2} {
			engines := make([]*Engine, nEngines)
			for i := range engines {
				engines[i] = NewEngine()
			}
			sh := NewSharded(engines, 100)
			run := sh.Run
			if deadline >= 0 {
				run = func() { sh.RunUntil(deadline) }
			}
			last := engines[nEngines-1]
			last.Schedule(50, last.Stop)
			// One counter per engine: engines run their windows in parallel.
			late := make([]int, nEngines)
			for i, e := range engines {
				i := i
				e.Schedule(500, func() { late[i]++ })
			}
			count := func() (n int) {
				for _, l := range late {
					n += l
				}
				return n
			}
			run()
			if n := count(); n != 0 {
				t.Fatalf("deadline %d, %d engines: %d events past the stop ran", deadline, nEngines, n)
			}
			if last.Now() != 50 {
				t.Fatalf("deadline %d, %d engines: stopping engine's clock at %d, want 50", deadline, nEngines, last.Now())
			}
			run()
			if n := count(); n != nEngines {
				t.Fatalf("deadline %d, %d engines: resumed run ran %d of %d queued events", deadline, nEngines, n, nEngines)
			}
		}
	}
}

// TestDiagnoseAllAggregates: a blocked waiter on any engine of a quiescent
// group must surface, and a pending event on any engine must defer the
// verdict.
func TestDiagnoseAllAggregates(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	a.Go("stuck", func(p *Proc) {
		p.parkWaiting("signal", func() string { return "never" })
	})
	a.Run()
	b.Run()
	he := DiagnoseAll([]*Engine{a, b}, nil)
	if he == nil || len(he.Blocked) != 1 || he.Blocked[0].Proc != "stuck" {
		t.Fatalf("DiagnoseAll = %v, want one blocked waiter %q", he, "stuck")
	}
	// Pending work anywhere defers the diagnosis.
	b.After(10, func() {})
	if he := DiagnoseAll([]*Engine{a, b}, nil); he != nil {
		t.Fatalf("DiagnoseAll with pending events = %v, want nil", he)
	}
}

// FuzzShardAssignment randomizes the node->shard partition and asserts the
// rig's logs are identical to the single-engine reference run.
func FuzzShardAssignment(f *testing.F) {
	f.Add(uint8(6), uint8(8), uint64(0x0102030405060708))
	f.Add(uint8(3), uint8(4), uint64(0))
	f.Add(uint8(8), uint8(6), uint64(0xdeadbeef))
	f.Fuzz(func(t *testing.T, nn, rr uint8, bits uint64) {
		nNodes := 2 + int(nn%7)  // 2..8
		rounds := 1 + int(rr%10) // 1..10
		assign := make([]int, nNodes)
		nShards := 1
		for i := range assign {
			assign[i] = int(bits>>(uint(i)*3)) % nNodes
			if assign[i] < 0 {
				assign[i] = 0
			}
			if assign[i]+1 > nShards {
				nShards = assign[i] + 1
			}
		}
		refLogs, refNow := runShardRig(nNodes, rounds, make([]int, nNodes), 1)
		logs, now := runShardRig(nNodes, rounds, assign, nShards)
		if now != refNow {
			t.Errorf("assign %v: final time %d, want %d", assign, now, refNow)
		}
		if !reflect.DeepEqual(logs, refLogs) {
			t.Errorf("assign %v: logs diverge from single-engine reference", assign)
		}
	})
}
