package fault

import (
	"math/rand"

	"repro/internal/sim"
)

// counters is a per-node counter block that sums into a cluster total.
type counters[S any] interface{ plus(S) S }

// nodeStream is one node's private share of a fault plan: its RNG stream,
// counter block, and earliest injection time.
type nodeStream[S any] struct {
	rng   *rand.Rand
	stats S
	first sim.Time
	has   bool
}

// nodeStreams is the per-node bookkeeping every fault plan shares. A
// verdict attributed to node i draws from node i's stream, counts into node
// i's block, and notes node i's first injection — it never touches another
// node's state. Verdicts are therefore a function of (seed, node, that
// node's history) alone, which keeps them identical however the cluster's
// nodes are split across engines. The aggregate accessors read every node;
// they are for reporting between runs, not for concurrent model code.
type nodeStreams[S counters[S]] struct {
	seed  int64
	nodes []nodeStream[S]
}

func newNodeStreams[S counters[S]](seed int64, n int) nodeStreams[S] {
	return nodeStreams[S]{seed: seed, nodes: make([]nodeStream[S], n)}
}

// streamSeed derives node i's private stream seed from a base seed. Any
// deterministic injective-ish mix works; what matters is that every node
// gets an independent stream fixed by (base, i) alone.
func streamSeed(base int64, i int) int64 {
	return base*1000003 + int64(i)*7919 + 1
}

// r returns node's RNG stream, seeding it on the node's first draw (only
// the node's own engine ever reaches its slot).
func (s *nodeStreams[S]) r(node int) *rand.Rand {
	ns := &s.nodes[node]
	if ns.rng == nil {
		ns.rng = rand.New(rand.NewSource(streamSeed(s.seed, node)))
	}
	return ns.rng
}

// st returns node's counter block.
func (s *nodeStreams[S]) st(node int) *S { return &s.nodes[node].stats }

// note records an injection on node at now, keeping the earliest. Calls are
// not in time order: a GPU dilation is noted at the work-group's logical
// time, which can run ahead of the engine clock a later NIC or DMA
// slowdown is noted at (DESIGN.md §10.6).
func (s *nodeStreams[S]) note(now sim.Time, node int) {
	ns := &s.nodes[node]
	if !ns.has || now < ns.first {
		ns.has, ns.first = true, now
	}
}

// total sums every node's counter block.
func (s *nodeStreams[S]) total() S {
	var out S
	for i := range s.nodes {
		out = out.plus(s.nodes[i].stats)
	}
	return out
}

// firstInjection returns the earliest injection noted on any node; ok is
// false when nothing has been injected.
func (s *nodeStreams[S]) firstInjection() (first sim.Time, ok bool) {
	for i := range s.nodes {
		if ns := &s.nodes[i]; ns.has && (!ok || ns.first < first) {
			first, ok = ns.first, true
		}
	}
	return first, ok
}
