package collective

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/backends"
	"repro/internal/config"
	"repro/internal/node"
	"repro/internal/sim"
)

// resourceDeadline bounds the wall-clock of one chaos run: the acceptance
// bar is "complete or diagnose", never hang.
const resourceDeadline = 2 * time.Minute

func runWithDeadline(t *testing.T, name string, fn func() (Result, error)) (Result, error) {
	t.Helper()
	type outcome struct {
		res Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := fn()
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-time.After(resourceDeadline):
		t.Fatalf("%s: exceeded %v wall clock — simulation hang", name, resourceDeadline)
		return Result{}, nil
	}
}

// The tentpole acceptance matrix: every backend, every chaos seed, with the
// trigger list capped at 25%/50%/100% of the GPU-TN working set, under the
// PR 1 fault schedules with reliability on. Each run must either produce the
// exact element-wise sum or fail with a watchdog diagnosis naming the
// starved trigger entry. No hangs, no double-fires.
func TestChaosResourcePressure(t *testing.T) {
	const n, nelems = 4, 256
	ws := GPUTNWorkingSet(n)
	rounds := int64(2 * (n - 1)) // triggered registrations per rank
	for _, kind := range backends.All() {
		for _, seed := range chaosSeeds {
			for _, entries := range []int{max(1, ws/4), ws / 2, ws} {
				name := kind.String() + "/" + string(rune('0'+entries))
				data, want := makeInputs(n, nelems, seed)
				cfg := config.Default()
				cfg.Faults = chaosFaults(seed)
				cfg.NIC.Reliability = config.DefaultReliability()
				cfg.NIC.Resources.TriggerEntries = entries
				c := node.NewCluster(cfg, n)
				res, err := runWithDeadline(t, name, func() (Result, error) {
					return Run(c, Config{Kind: kind, TotalBytes: nelems * elemBytes, Data: data})
				})

				if err != nil {
					// Only the GPU-TN backend consumes trigger-list entries;
					// the others must ride out any cap untouched.
					if kind != backends.GPUTN {
						t.Fatalf("%s seed=%d cap=%d: %s backend failed under trigger cap: %v",
							kind, seed, entries, kind, err)
					}
					var hang *sim.HangError
					if !errors.As(err, &hang) {
						t.Fatalf("%s seed=%d cap=%d: failure without watchdog diagnosis: %v",
							kind, seed, entries, err)
					}
					if len(hang.Starved) == 0 {
						t.Fatalf("%s seed=%d cap=%d: diagnosis names no starved trigger entry: %v",
							kind, seed, entries, err)
					}
					continue
				}
				for r := 0; r < n; r++ {
					for i := range want {
						if res.Output[r][i] != want[i] {
							t.Fatalf("%s seed=%d cap=%d rank %d elem %d: got %v want %v",
								kind, seed, entries, r, i, res.Output[r][i], want[i])
						}
					}
				}
				// Zero double-fires: a trigger entry fires at most once, so a
				// rank can never fire more than it registered.
				for _, nd := range c.Nodes {
					if fires := nd.NIC.Stats().TriggerFires; fires > rounds {
						t.Fatalf("%s seed=%d cap=%d node %d: %d trigger fires for %d registrations",
							kind, seed, entries, nd.Index, fires, rounds)
					}
				}
			}
		}
	}
}

// End-to-end hang doctor: a depth-1 trigger FIFO drops most GPU trigger
// writes, permanently under-counting the registered entries. The old code
// hung with "(deadlock?)"; now the run returns a structured diagnosis
// naming the starved entries and the blocked ranks.
func TestChaosHangDiagnosisNamesStarvedEntry(t *testing.T) {
	const n, nelems = 4, 256
	data, _ := makeInputs(n, nelems, 1)
	cfg := config.Default()
	cfg.NIC.TriggerFIFODepth = 1
	c := node.NewCluster(cfg, n)
	_, err := runWithDeadline(t, "fifo-starved", func() (Result, error) {
		return Run(c, Config{Kind: backends.GPUTN, TotalBytes: nelems * elemBytes, Data: data})
	})
	if err == nil {
		t.Fatal("depth-1 FIFO run completed; expected starvation")
	}
	var hang *sim.HangError
	if !errors.As(err, &hang) {
		t.Fatalf("no HangError in: %v", err)
	}
	if len(hang.Starved) == 0 || len(hang.Blocked) == 0 {
		t.Fatalf("incomplete diagnosis: %+v", hang)
	}
	found := false
	for _, s := range hang.Starved {
		if s.Registered && s.Counter < s.Threshold {
			found = true
		}
	}
	if !found {
		t.Fatalf("no starved registered entry in diagnosis: %v", err)
	}
	for _, bad := range []string{"deadlock?"} {
		if strings.Contains(err.Error(), bad) {
			t.Fatalf("diagnosis still contains %q: %v", bad, err)
		}
	}
}
