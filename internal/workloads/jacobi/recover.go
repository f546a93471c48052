// Crash-recoverable Jacobi: RunRecoverable drives relaxation attempts from
// inside the simulation against the heartbeat membership view, mirroring
// collective.RunRecoverable. A 2D stencil decomposition cannot heal over a
// hole the way a ring can — every rank owns an irreplaceable tile — so an
// attempt only starts when the stable view contains the full node grid, and
// recovery from a crash means waiting for the crashed node to restart and
// rejoin, then re-running the relaxation cold from pristine grids: the
// restarted node replays all CPU-side triggered-op registration on its
// fresh incarnation, and survivors' stale halo traffic from the aborted
// attempt is kept out of the new one by per-attempt match-bits/tag salting
// plus the NIC's epoch fencing.
package jacobi

import (
	"errors"
	"fmt"

	"repro/internal/backends"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/health"
	"repro/internal/nic"
	"repro/internal/node"
	"repro/internal/portals"
	"repro/internal/sim"
)

// recMatchBits returns attempt a's halo landing address, disjoint from the
// plain-run region (0x3AC) and the heartbeat region.
func recMatchBits(a int) uint64 { return 0x3AC_0000 | uint64(a) }

// recTagBase returns attempt a's first trigger tag. The 1<<26 offset and
// 1<<16 stride keep attempts disjoint from each other, from the plain
// run's small tags, and from the heartbeat tag range (0x4842xxxx).
func recTagBase(a int) uint64 { return 1<<26 + uint64(a)<<16 }

func recTagFor(base uint64, iter int, d Dir) uint64 {
	return base + uint64(iter)*uint64(numDirs) + uint64(d) + 1
}

// ErrGridIncomplete marks an attempt skipped because the membership view
// did not cover the full node grid (a rank is crashed or suspected).
var ErrGridIncomplete = errors.New("jacobi: membership does not cover the full node grid")

// RecoverParams configures a crash-recoverable Jacobi run. Only the GPU-TN
// backend is supported: recovery needs interruptible halo waits, which the
// persistent kernel provides via bounded polls.
type RecoverParams struct {
	Params
	// Timeout bounds every per-iteration halo wait. Required.
	Timeout sim.Time
	// MaxAttempts bounds the retry loop (default 8).
	MaxAttempts int
}

// RecoverAttempt records one attempt for traces and tests.
type RecoverAttempt struct {
	Start, End sim.Time
	ViewID     int64
	Completed  bool
	Err        error
}

// RecoverResult reports a recoverable Jacobi run.
type RecoverResult struct {
	Attempts []RecoverAttempt
	Duration sim.Time
	ViewID   int64
	// Grids holds each rank's final grid when WithData was set; the
	// successful attempt computed them from pristine initial grids.
	Grids []*Grid
}

// RunRecoverable executes Jacobi attempts until one completes over a
// stable full-grid membership view. It runs on the calling process
// (in-simulation): spawn it with eng.Go and read the result after the
// cluster drains.
func RunRecoverable(p *sim.Proc, c *node.Cluster, m *health.Membership, rp RecoverParams) (RecoverResult, error) {
	var res RecoverResult
	dec := Decomp{N: rp.N, PX: rp.PX, PY: rp.PY}
	if err := dec.Validate(); err != nil {
		return res, err
	}
	if c.Size() != dec.Nodes() {
		return res, fmt.Errorf("jacobi: cluster has %d nodes, decomposition needs %d", c.Size(), dec.Nodes())
	}
	if rp.Iters <= 0 {
		return res, fmt.Errorf("jacobi: iterations must be positive")
	}
	if rp.Kind != backends.GPUTN {
		return res, fmt.Errorf("jacobi: recoverable runs support only the GPU-TN backend, got %v", rp.Kind)
	}
	if rp.Timeout <= 0 {
		return res, fmt.Errorf("jacobi: recoverable runs need a Timeout to abort on a mid-attempt crash")
	}
	maxAttempts := rp.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 8
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		view, verr := m.WaitStable(p)
		if verr != nil {
			// Split-brain: no majority component, so no side may relax the
			// grid. Same bounded-poll shape as ErrGridIncomplete below.
			res.Attempts = append(res.Attempts, RecoverAttempt{
				Start: p.Now(), End: p.Now(), ViewID: view, Err: verr,
			})
			p.Sleep(m.Config().SuspectAfter)
			continue
		}
		alive := m.Alive()
		ready := len(alive) == dec.Nodes()
		for _, i := range alive {
			if c.Nodes[i].Down() {
				ready = false // view lags a crash the sweeper has not seen yet
			}
		}
		if !ready {
			// The stencil needs every tile: wait for the crashed rank to
			// restart and rejoin instead of attempting over a hole. The wait
			// is a bounded poll charged against the attempt budget — a node
			// that never restarts must fail the run, not park it forever
			// while heartbeats keep the simulation alive.
			rep := RecoverAttempt{Start: p.Now(), End: p.Now(), ViewID: view, Err: ErrGridIncomplete}
			res.Attempts = append(res.Attempts, rep)
			p.Sleep(m.Config().SuspectAfter)
			continue
		}
		rep := RecoverAttempt{Start: p.Now(), ViewID: view}
		grids, completed, err := runJacobiAttempt(p, c, dec, rp, attempt)
		rep.End, rep.Completed, rep.Err = p.Now(), completed, err
		res.Attempts = append(res.Attempts, rep)
		if completed && err == nil && m.ViewID() == view {
			res.Duration = p.Now()
			res.ViewID = view
			res.Grids = grids
			return res, nil
		}
	}
	return res, fmt.Errorf("jacobi: no attempt succeeded in %d tries", maxAttempts)
}

// runJacobiAttempt runs one cold relaxation over the full grid with
// attempt-salted match bits and trigger tags, waiting until every rank's
// runner has exited (normally or killed by a crash).
func runJacobiAttempt(p *sim.Proc, c *node.Cluster, dec Decomp, rp RecoverParams, attempt int) (grids []*Grid, completed bool, err error) {
	n := dec.Nodes()
	mb := recMatchBits(attempt)
	tagBase := recTagBase(attempt)

	// Withdraw earlier attempts' staged triggered ops and relaxed-sync
	// placeholders before staging new ones (PtlCTCancelTriggeredOps), or the
	// never-to-fire leftovers pin the NIC's associative list.
	if attempt > 0 {
		for _, nd := range c.Nodes {
			nd.Ptl.CancelTriggered(p, recTagBase(0), recTagBase(attempt))
		}
	}

	states := make([]*rankState, n)
	for r := 0; r < n; r++ {
		st := &rankState{
			nd:     c.Nodes[r],
			dec:    dec,
			params: rp.Params,
			nbrs:   dec.Neighbors(r),
			recvCT: c.Nodes[r].Ptl.CTAlloc(),
		}
		if rp.WithData {
			st.cur = dec.InitGrid(r) // pristine: recovery restarts cold
			st.next = NewGrid(rp.N)
			st.pending = map[haloKey][]float32{}
		}
		states[r] = st
	}
	for _, st := range states {
		st := st
		st.nd.Ptl.MEAppend(&portals.ME{
			MatchBits: mb,
			Length:    int64(rp.N) * 4,
			CT:        st.recvCT,
			OnDelivery: func(d nic.Delivery) {
				if st.pending == nil {
					return
				}
				msg := d.Data.(haloMsg)
				st.pending[haloKey{msg.iter, msg.dir}] = msg.vals
			},
		})
	}

	join := sim.NewCounter(c.Eng)
	errs := make([]error, n)
	finished := make([]bool, n)
	for r := 0; r < n; r++ {
		r := r
		st := states[r]
		pr := st.nd.Go(fmt.Sprintf("jacobi.rec.a%d.%d", attempt, r), func(p *sim.Proc) {
			errs[r] = st.runGPUTNRecover(p, mb, tagBase, rp.Timeout)
			finished[r] = true
		})
		// Exit hook, not a defer in the body: the join counter is bumped
		// even when a crash kills the runner before its first instruction.
		pr.OnExit(func() { join.Add(1) })
	}
	join.WaitGE(p, int64(n))

	completed = true
	for r := 0; r < n; r++ {
		if !finished[r] {
			completed = false
		}
		if errs[r] != nil && err == nil {
			err = errs[r]
		}
	}
	if rp.WithData && completed && err == nil {
		for _, st := range states {
			grids = append(grids, st.cur)
		}
	}
	return grids, completed, err
}

// dataStepRecover is dataStep for recovery attempts: a missing or
// out-of-order halo reports failure instead of panicking. The plain path
// treats that as a model bug, but once a neighbor crashes the aggregate
// receive counter can reach its target from the wrong mix of iterations.
func (st *rankState) dataStepRecover(iter int) bool {
	if st.cur == nil {
		return true
	}
	if iter != st.iterDone {
		return false
	}
	for d := range st.myHaloDirs() {
		if _, ok := st.pending[haloKey{iter, d}]; !ok {
			return false
		}
	}
	st.dataStep(iter)
	return true
}

// runGPUTNRecover is runGPUTN with the attempt-salted namespace and bounded
// waits: the persistent kernel gives up on a halo wait after timeout
// (sticky across work-groups), and the host registration loop gives up when
// local completions stop flowing.
func (st *rankState) runGPUTNRecover(p *sim.Proc, mb, tagBase uint64, timeout sim.Time) error {
	host := core.NewHost(st.nd.Eng, st.nd.Ptl, st.nd.GPU)
	comp := host.NewCompletion()
	trig := host.GetTriggerAddr()
	n := int64(len(st.nbrs))
	wgs := st.stencilWGs()
	perWG := st.gpuStencilPerWGTime(wgs)
	iters := st.params.Iters
	dirs := orderedDirList(st.nbrs)
	failedIter := -1

	kern := &gpu.Kernel{
		Name:       fmt.Sprintf("gputn.jacobi.rec.%d", st.nd.Index),
		WorkGroups: wgs,
		Body: func(wg *gpu.WGCtx) {
			for k := 0; k < iters; k++ {
				// A sibling's abort is shared state: read it at this
				// group's own time.
				wg.Sync()
				if failedIter >= 0 && failedIter <= k {
					return
				}
				for _, d := range dirs {
					core.TriggerKernel(wg, trig, recTagFor(tagBase, k, d))
				}
				if !wg.PollUntilFor(st.recvCT.Raw(), int64(k+1)*n, timeout) {
					if failedIter < 0 || k < failedIter {
						failedIter = k
					}
					return
				}
				if wg.Group == 0 && !st.dataStepRecover(k) {
					// The CT over-counts once a crashed neighbor stops
					// delivering (a live neighbor can run two iterations
					// ahead): a missing halo means the attempt is doomed.
					if failedIter < 0 || k < failedIter {
						failedIter = k
					}
					return
				}
				wg.Compute(perWG)
			}
		},
	}
	host.LaunchKern(kern)

	register := func(k int) error {
		for _, d := range dirs {
			md := st.nd.Ptl.MDBind("tn.rec", st.haloBytes(), st.sendPayload(k, d), comp.CT)
			if err := host.TrigPutPressure(p, comp, recTagFor(tagBase, k, d), int64(wgs), md, st.haloBytes(), st.nbrs[d], mb); err != nil {
				return fmt.Errorf("jacobi: rank %d iter %d dir %v: %w", st.nd.Index, k, d, err)
			}
		}
		return nil
	}
	window := trigWindowIters
	if window > iters {
		window = iters
	}
	for k := 0; k < window; k++ {
		if err := register(k); err != nil {
			return err
		}
	}
	for k := window; k < iters; k++ {
		if err := comp.CT.WaitTimeout(p, int64(k-window+1)*n, timeout); err != nil {
			break // the aborted kernel will never trigger the rest
		}
		if err := register(k); err != nil {
			return err
		}
	}
	kern.Wait(p)
	if failedIter >= 0 {
		return fmt.Errorf("jacobi: rank %d iter %d halo wait: %w", st.nd.Index, failedIter, portals.ErrTimeout)
	}
	return nil
}
