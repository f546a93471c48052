package jacobi

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/sim"
)

// Overlap-enabled GPU-TN Jacobi. The paper notes its implementation "does
// not exploit overlap" (§5.3); intra-kernel networking makes overlap
// natural, so this extension implements it: each iteration triggers the
// halo sends, relaxes the *interior* (which reads no halo cells) while the
// edges fly, polls for the neighbours' halos, and only then relaxes the
// one-cell-deep boundary ring. The numerical result is identical to the
// non-overlapped protocol; only the schedule changes.

// RelaxInterior computes one Jacobi step for the interior cells that do
// not read the halo ring (rows/cols 2..N-1).
func RelaxInterior(dst, src *Grid) {
	if dst.N != src.N {
		panic("jacobi: grid size mismatch")
	}
	n := src.N
	for i := 2; i <= n-1; i++ {
		for j := 2; j <= n-1; j++ {
			dst.Set(i, j, 0.25*(src.At(i-1, j)+src.At(i+1, j)+src.At(i, j-1)+src.At(i, j+1)))
		}
	}
}

// RelaxBoundary computes the remaining one-cell-deep ring of interior
// cells (row 1, row N, col 1, col N), which read the halos.
func RelaxBoundary(dst, src *Grid) {
	if dst.N != src.N {
		panic("jacobi: grid size mismatch")
	}
	n := src.N
	point := func(i, j int) {
		dst.Set(i, j, 0.25*(src.At(i-1, j)+src.At(i+1, j)+src.At(i, j-1)+src.At(i, j+1)))
	}
	for j := 1; j <= n; j++ {
		point(1, j)
		point(n, j)
	}
	for i := 2; i <= n-1; i++ {
		point(i, 1)
		point(i, n)
	}
}

// dataStepOverlapInterior applies the halo-independent part of iteration
// iter; dataStepOverlapBoundary completes it. Together they equal
// dataStep, split at the compute schedule's overlap point.
func (st *rankState) dataStepOverlapInterior() {
	if st.cur == nil {
		return
	}
	RelaxInterior(st.next, st.cur)
}

func (st *rankState) dataStepOverlapBoundary(iter int) {
	if st.cur == nil {
		return
	}
	if iter != st.iterDone {
		panic(fmt.Sprintf("jacobi: overlap boundary step %d out of order, expected %d", iter, st.iterDone))
	}
	for d := range st.myHaloDirs() {
		k := haloKey{iter, d}
		vals, ok := st.pending[k]
		if !ok {
			panic(fmt.Sprintf("jacobi: rank %d iter %d missing %v halo", st.nd.Index, iter, d))
		}
		st.cur.SetHalo(d, vals)
		delete(st.pending, k)
	}
	RelaxBoundary(st.next, st.cur)
	st.cur, st.next = st.next, st.cur
	st.iterDone++
}

// boundaryFrac is the share of interior cells on the boundary ring.
func (st *rankState) boundaryFrac() float64 {
	n := st.params.N
	if n <= 2 {
		return 1
	}
	total := float64(n * n)
	inner := float64((n - 2) * (n - 2))
	return (total - inner) / total
}

// runGPUTNOverlap is the overlap-enabled persistent kernel: per iteration,
// trigger the halo sends, relax the interior while the edges are in
// flight, then wait for the neighbour halos and finish the boundary ring.
func (st *rankState) runGPUTNOverlap(p *sim.Proc) {
	host := core.NewHost(st.nd.Eng, st.nd.Ptl, st.nd.GPU)
	comp := host.NewCompletion()
	trig := host.GetTriggerAddr()
	n := int64(len(st.nbrs))
	wgs := st.stencilWGs()
	full := st.gpuStencilPerWGTime(wgs)
	bf := st.boundaryFrac()
	interior := sim.Time(float64(full) * (1 - bf))
	boundary := sim.Time(float64(full) * bf)
	iters := st.params.Iters
	dirs := orderedDirList(st.nbrs)

	kern := &gpu.Kernel{
		Name:       fmt.Sprintf("gputn.jacobi.overlap.%d", st.nd.Index),
		WorkGroups: wgs,
		Body: func(wg *gpu.WGCtx) {
			for k := 0; k < iters; k++ {
				for _, d := range dirs {
					core.TriggerKernel(wg, trig, tagFor(k, d))
				}
				// Interior relax needs no halos: overlap it with the wire.
				if wg.Group == 0 {
					st.dataStepOverlapInterior()
				}
				wg.Compute(interior)
				wg.PollUntil(st.recvCT.Raw(), int64(k+1)*n)
				if wg.Group == 0 {
					st.dataStepOverlapBoundary(k)
				}
				wg.Compute(boundary)
			}
		},
	}
	host.LaunchKern(kern)

	register := func(k int) {
		for _, d := range dirs {
			md := st.nd.Ptl.MDBind("tn.halo", st.haloBytes(), st.sendPayload(k, d), comp.CT)
			if err := host.TrigPut(p, tagFor(k, d), int64(wgs), md, st.haloBytes(), st.nbrs[d], haloMatchBits); err != nil {
				panic(fmt.Sprintf("jacobi: overlap rank %d iter %d dir %v: %v", st.nd.Index, k, d, err))
			}
		}
	}
	window := trigWindowIters
	if window > iters {
		window = iters
	}
	for k := 0; k < window; k++ {
		register(k)
	}
	for k := window; k < iters; k++ {
		comp.WaitHost(p, int64(k-window+1)*n)
		register(k)
	}
	kern.Wait(p)
}
