package bench

import (
	"runtime"
	"testing"

	"repro/internal/backends"
	"repro/internal/collective"
	"repro/internal/config"
	"repro/internal/health"
	"repro/internal/node"
	"repro/internal/sim"
)

// lifecycleClusters is how many clusters the lifecycle test builds, runs
// and drops.
const lifecycleClusters = 60

// lifecycleHeapSlackMB bounds how far the live heap may drift between the
// first and the last cluster of the lifecycle test. The heap stays at
// about 1 MB when drained clusters are freed; with their service
// coroutines left parked it grew about 0.27 MB per cluster of this
// rotation, 15 MB over the compared span.
const lifecycleHeapSlackMB = 4

// Every cluster must be garbage once its run drains: no coroutine of it
// may stay parked, and the live heap must not grow with the number of
// clusters a process has run. The rotation covers each kind of service
// process: a GPU-TN ring (NIC command and trigger pipelines, GPU
// front-end), the GDS and GHN microbenchmarks (GPU streams, the GHN helper
// thread), and a crash-restart recoverable Allreduce (a GPU reset, the
// health layer's heartbeat processes).
func TestDrainedClustersLeaveNothingRunning(t *testing.T) {
	cfg := config.Default()
	runs := []struct {
		name string
		run  func()
	}{
		{"gputn-ring", func() {
			c := node.NewCluster(cfg, 16)
			if _, err := collective.Run(c, collective.Config{Kind: backends.GPUTN, TotalBytes: 128 << 10}); err != nil {
				t.Fatal(err)
			}
		}},
		{"gds", func() { figure8Run(cfg, backends.GDS) }},
		{"ghn", func() { figure8Run(cfg, backends.GHN) }},
		{"crash-restart", func() { crashRestartRun(t, cfg) }},
	}
	runtime.GC()
	goroutines := runtime.NumGoroutine()
	heap := make([]uint64, lifecycleClusters)
	for i := range heap {
		r := runs[i%len(runs)]
		r.run()
		if got := runtime.NumGoroutine(); got != goroutines {
			t.Fatalf("cluster %d (%s): %d goroutines after the run, want %d", i, r.name, got, goroutines)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap[i] = ms.HeapInuse
	}
	// Compare one full rotation in against the last cluster of the same
	// kind, so the baseline includes every run's one-time allocations.
	first, last := heap[len(runs)-1], heap[lifecycleClusters-1]
	if last > first+lifecycleHeapSlackMB<<20 {
		t.Fatalf("live heap grew from %.1f MB to %.1f MB over %d clusters",
			float64(first)/(1<<20), float64(last)/(1<<20), lifecycleClusters-len(runs))
	}
}

// crashRestartRun drives one GPU-TN recoverable Allreduce on the crash
// ablation's cluster, with its crashed node restarting in time to rejoin.
func crashRestartRun(t *testing.T, cfg config.SystemConfig) {
	t.Helper()
	cfg.Health = crashHealthOrDefault(cfg)
	cfg.NIC.Reliability = config.DefaultReliability()
	cfg.Crash = config.CrashConfig{Events: []config.CrashEvent{
		{Node: crashAblationNode, At: crashAt, RestartAfter: 30 * sim.Microsecond},
	}}
	cl := node.NewCluster(cfg, crashAblationNodes)
	suite := health.Start(cl)
	var err error
	cl.Eng.Go("lifecycle.crash.driver", func(p *sim.Proc) {
		_, err = collective.RunRecoverable(p, cl, suite.Membership, collective.RecoverConfig{
			Kind: backends.GPUTN, TotalBytes: crashAblationBytes, Timeout: crashTimeout,
		})
		suite.Stop()
	})
	cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if inc := cl.Nodes[crashAblationNode].NIC.Incarnation(); inc != 2 {
		t.Fatalf("crashed node incarnation %d, want 2 (restarted once)", inc)
	}
}
