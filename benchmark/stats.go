package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// minTail is how many samples a reported percentile needs beyond it.
const minTail = 10

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1). It
// refuses a percentile with fewer than minTail samples beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 || n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", 100*p, n, n-rank, minTail)
	}
	s := sorted(xs)
	return s[rank-1], nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is
// how run-to-run spread is judged. It needs at least 2 values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// digest hashes every op's simulated duration and exact per-layer counts
// in op order. A change that only speeds the simulator up leaves it alone.
func digest(recs []opRecord) string {
	h := fnv.New64a()
	put := func(vs ...int64) {
		for _, v := range vs {
			_ = binary.Write(h, binary.LittleEndian, v)
		}
	}
	for _, r := range recs {
		k := r.Counts
		put(int64(r.Op), k.SimPs, int64(k.Events), int64(k.Engines), k.Msgs, k.Bytes, k.Lost,
			k.Cmds, k.Fires, k.Retransmits, k.Kernels, k.Dropped, k.Beats, k.Suspicions,
			int64(k.Attempts), int64(k.AttemptsOK), k.Checks, int64(k.Violations))
		for _, e := range k.ShardEvents {
			put(int64(e))
		}
		h.Write([]byte(r.Err))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
