package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

var spinSink uint64

// spin burns CPU in a function of this package for d.
func spin(d time.Duration) {
	x := spinSink
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1<<16; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

func TestProfileAttributesBusyLoop(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(500 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, err := layerShares(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, b := range cpuBuckets() {
		total += shares[b]
	}
	if len(shares) != len(cpuBuckets()) || math.Abs(total-100) > 1 {
		t.Errorf("%d buckets sum to %.2f%%, want %d summing to 100 +-1: %v", len(shares), total, len(cpuBuckets()), shares)
	}
	if shares[bucketBenchmark] < 80 {
		t.Errorf("busy loop in the benchmark got %.1f%% of samples: %v", shares[bucketBenchmark], shares)
	}
}

func TestAttribute(t *testing.T) {
	for _, tc := range []struct {
		frames []string // leaf first
		want   string
	}{
		{[]string{"repro/internal/sim.(*Engine).Run", "main.runOp"}, "sim"},
		{[]string{"runtime.mallocgc", "repro/internal/audit.New", "repro/internal/node.NewCluster"}, "audit"},
		{[]string{"repro/internal/backends.HostSend", "repro/internal/collective.runHDNRank"}, "collective"},
		{[]string{"repro/internal/workloads/jacobi.(*rankState).dataStep"}, "jacobi"},
		{[]string{"runtime.futex", "runtime.chansend", "runtime.chansend1", "repro/internal/sim.(*Engine).dispatch"}, bucketSched},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"runtime.memmove", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/nic.(*NIC).post"}, bucketGC},
		{[]string{"sort.Float64s", "main.median"}, bucketBenchmark},
		{[]string{"repro/benchmark.spin"}, bucketBenchmark},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.goexit"}, bucketOther},
	} {
		if got := attribute(tc.frames); got != tc.want {
			t.Errorf("attribute(%v) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}
