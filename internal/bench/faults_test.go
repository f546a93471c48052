package bench

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/backends"
	"repro/internal/collective"
	"repro/internal/config"
	"repro/internal/node"
)

// A short two-point sweep exercises the whole ablation path: the lossless
// row must be strictly fastest, and the lossy row must show recovery work.
func TestAblationFaultToleranceSmoke(t *testing.T) {
	pts := AblationFaultTolerance(config.Default(), []float64{0, 0.02})
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, k := range []backends.Kind{backends.HDN, backends.GDS, backends.GPUTN} {
		if pts[0].Latency[k] <= 0 {
			t.Fatalf("%s lossless latency = %v", k, pts[0].Latency[k])
		}
		if pts[1].Latency[k] < pts[0].Latency[k] {
			t.Fatalf("%s got faster under loss: %v < %v", k, pts[1].Latency[k], pts[0].Latency[k])
		}
		if pts[0].Retransmits[k] != 0 {
			t.Fatalf("%s lossless run retransmitted %d times", k, pts[0].Retransmits[k])
		}
	}
	var retx int64
	for _, k := range []backends.Kind{backends.HDN, backends.GDS, backends.GPUTN} {
		retx += pts[1].Retransmits[k]
	}
	if retx == 0 {
		t.Fatal("2%% drop produced no retransmits across all backends")
	}
}

// Pay-for-use: the ablation's zero-drop row must be bit-for-bit identical
// to a plain run with no fault plumbing at all — an armed-but-zero fault
// layer is indistinguishable from no fault layer.
func TestFaultAblationZeroRowBitIdentical(t *testing.T) {
	pts := AblationFaultTolerance(config.Default(), []float64{0})
	for _, k := range []backends.Kind{backends.HDN, backends.GDS, backends.GPUTN} {
		c := node.NewCluster(config.Default(), 4)
		res, err := collective.Run(c, collective.Config{Kind: k, TotalBytes: 256 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if res.Duration != pts[0].Latency[k] {
			t.Fatalf("%s: zero-fault ablation row %v != plain run %v", k, pts[0].Latency[k], res.Duration)
		}
	}
}

func TestRenderFaultToleranceAndLossReport(t *testing.T) {
	out := RenderFaultTolerance(config.Default())
	for _, want := range []string{"drop", "HDN", "GPU-TN", "retx", "10%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	cfg := config.Default()
	cfg.Faults = config.FaultConfig{Seed: 1, DropProb: 0.05}
	cfg.NIC.Reliability = config.DefaultReliability()
	c := node.NewCluster(cfg, 4)
	if _, err := collective.Run(c, collective.Config{Kind: backends.GPUTN, TotalBytes: 64 << 10}); err != nil {
		t.Fatal(err)
	}
	var retx, dead int64
	for _, nd := range c.Nodes {
		retx += nd.NIC.Stats().Retransmits
		dead += nd.NIC.Stats().PeersDeclaredDead
	}
	if c.Fabric.MessagesLost() == 0 || retx == 0 || dead != 0 {
		t.Fatalf("fabric lost=%d; recovery retx=%d peersDead=%d", c.Fabric.MessagesLost(), retx, dead)
	}
}

// Every fault verdict is drawn from the deciding node's own stream, so the
// fault experiments print the same rows at the default engine layout
// (Shards 0) and split over four engines. The arguments are the perf
// harness's, plus the gray-link rows at factor 10.
func TestFaultExperimentsShardCountInvariant(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(config.SystemConfig) any
	}{
		{"faults", func(c config.SystemConfig) any { return AblationFaultTolerance(c, []float64{0, 0.02, 0.05}) }},
		{"sdc", func(c config.SystemConfig) any { return AblationSDC(c, []float64{0.02, 0.10}) }},
		{"stragglers", func(c config.SystemConfig) any { return AblationStraggler(c, []float64{10}) }},
		{"degrade-rto", func(c config.SystemConfig) any { return AblationDegradeRTO(c, []float64{10}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.Default()
			want := tc.run(cfg)
			cfg.Shards = 4
			if got := tc.run(cfg); !reflect.DeepEqual(got, want) {
				t.Errorf("shards=4 diverged from shards=0:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
