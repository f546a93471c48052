package network

import (
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

// TestLookaheadPerTopology pins the conservative synchronization window to
// the cheapest per-hop flight of each topology: the star pays link + switch
// on its only hop, while the fat-tree's final ingress hop pays propagation
// only, so its window must shrink to LinkLatency alone.
func TestLookaheadPerTopology(t *testing.T) {
	cfg := config.Default().Network
	link, sw := cfg.LinkLatency, cfg.SwitchLatency
	if link <= 0 || sw <= 0 {
		t.Fatalf("degenerate default latencies: link=%v switch=%v", link, sw)
	}
	cases := []struct {
		topo string
		want sim.Time
	}{
		{"", link + sw}, // unset = star
		{config.TopologyStar, link + sw},
		{config.TopologyFatTree, link},
	}
	for _, tc := range cases {
		c := cfg
		c.Topology = tc.topo
		if got := Lookahead(c); got != tc.want {
			t.Errorf("Lookahead(%q) = %v, want %v", tc.topo, got, tc.want)
		}
	}
}

// TestLookaheadBoundsFatTreeHops guards the window invariant the sharded
// engine group relies on: no fat-tree hop may post a cross-engine event
// sooner than Lookahead. Every per-hop post in the fabric is at least one
// link propagation, so the lookahead must never exceed it.
func TestLookaheadBoundsFatTreeHops(t *testing.T) {
	cfg := config.Default().Network
	cfg.Topology = config.TopologyFatTree
	if la := Lookahead(cfg); la > cfg.LinkLatency {
		t.Fatalf("Lookahead %v exceeds the minimum fat-tree hop %v", la, cfg.LinkLatency)
	}
}
