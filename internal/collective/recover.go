// Mid-collective crash recovery: RunRecoverable drives Allreduce attempts
// from inside the simulation, consulting the heartbeat membership view
// between attempts. An attempt runs over the ranks currently believed
// alive; if a participant crashes mid-attempt the survivors abort via
// their receive timeouts, the view destabilizes, and the driver retries
// once the view has been quiet for StabilizeDelay. A crashed-and-restarted
// node reappears in the view (its heartbeats carry the new incarnation
// epoch) and rejoins the ring at the next attempt boundary, replaying its
// CPU-side registration from scratch on the fresh incarnation — the
// paper's pre-registered triggered-op machinery rebuilt cold, including
// the relaxed-sync placeholder path when the restarted GPU ticks early.
//
// Every attempt salts its landing-region match bits and trigger-tag base,
// so frames and tag writes from an aborted attempt can never land in a
// later one: stale traffic either hits the old attempt's (still exposed)
// region on a survivor or is epoch-fenced at a restarted node.
package collective

import (
	"errors"
	"fmt"

	"repro/internal/backends"
	"repro/internal/health"
	"repro/internal/nic"
	"repro/internal/node"
	"repro/internal/portals"
	"repro/internal/sim"
)

// recoverMatchBits returns the landing-region address of run generation
// gen's attempt a, disjoint from the plain-run (0xA11), episode
// (0xA11_0000|e), and heartbeat namespaces. Generations start at 1 and
// stride by 1024 attempts, so the first run on a cluster uses exactly
// the pre-generation addresses (pay-for-use: single-run traces are
// untouched) and repeat runs get fresh namespaces — a predecessor's
// aborted attempt can leak a partially-consumed landing region that
// would shadow identically-addressed traffic forever.
func recoverMatchBits(gen int64, a int) uint64 {
	return 0x5EC_0000 + uint64(gen-1)*1024 + uint64(a)
}

// recoverTagBase returns the first trigger tag of run generation gen's
// attempt a; the 1<<26 offset keeps the range disjoint from episode tags
// (episode*4096) and heartbeat tags (0x48420000+peer). Like
// recoverMatchBits, generation 1 reproduces the pre-generation tags
// exactly and each generation strides by 1024 attempts.
func recoverTagBase(gen int64, a int) uint64 {
	return 1<<26 + (uint64(gen-1)*1024+uint64(a))*4096
}

// RecoverConfig describes a crash-recoverable Allreduce.
type RecoverConfig struct {
	// Kind selects the backend. GDS stream waits cannot be interrupted, so
	// GDS runs tolerate crashes only between attempts (before an attempt
	// starts); a mid-attempt crash hangs the attempt. The other backends
	// require Timeout > 0 and abort cleanly.
	Kind backends.Kind
	// TotalBytes is the per-rank payload.
	TotalBytes int64
	// Data supplies the full-world per-rank vectors; the successful attempt
	// reduces exactly the vectors of its (final) membership. Optional.
	Data [][]float32
	// Timeout bounds every per-round receive wait within an attempt.
	// Required for every backend except GDS.
	Timeout sim.Time
	// MaxAttempts bounds the retry loop (default 8).
	MaxAttempts int
	// ComputePhase, when > 0, models an application compute kernel of that
	// duration on each rank's GPU before the reduction rounds (the
	// training-step shape); every retry attempt recomputes it. Subject to
	// the fail-slow injector's compute dilation.
	ComputePhase sim.Time
}

// AttemptReport records one attempt for traces and tests.
type AttemptReport struct {
	Start, End sim.Time
	ViewID     int64
	Alive      []int
	// Completed is true when every participant's runner finished (no
	// runner was killed by a crash); Err collects runner errors.
	Completed bool
	Err       error
}

// RecoverResult reports a recoverable run.
type RecoverResult struct {
	// Attempts lists every attempt, successful last.
	Attempts []AttemptReport
	// Duration is the absolute completion time of the successful attempt.
	Duration sim.Time
	// ViewID and Alive identify the membership the result was computed
	// over.
	ViewID int64
	Alive  []int
	// Output carries the reduced vectors indexed by rank (nil entries for
	// ranks outside the final membership) when Data was provided.
	Output [][]float32
}

// RunRecoverable executes Allreduce attempts until one completes over a
// stable membership view. It runs on the calling process (in-simulation):
// spawn it with eng.Go and read the result after the cluster drains.
func RunRecoverable(p *sim.Proc, cl *node.Cluster, m *health.Membership, cfg RecoverConfig) (RecoverResult, error) {
	return runRecoverable(p, cl, m, cfg, nil, nil)
}

// runRecoverable is the shared attempt loop; ver (nil for plain
// recoverable runs) threads the verified layer's claim chain through every
// attempt and settles blame between attempts, and hedge (nil unless
// RunHedged) arms the fail-slow sliced waits.
func runRecoverable(p *sim.Proc, cl *node.Cluster, m *health.Membership, cfg RecoverConfig, ver *verifyRun, hedge *hedgeRun) (RecoverResult, error) {
	n := cl.Size()
	var res RecoverResult
	if n < 2 {
		return res, fmt.Errorf("collective: allreduce needs >= 2 nodes")
	}
	if cfg.Data != nil && len(cfg.Data) != n {
		return res, fmt.Errorf("collective: got %d data vectors for %d ranks", len(cfg.Data), n)
	}
	if cfg.Timeout <= 0 && cfg.Kind != backends.GDS {
		return res, fmt.Errorf("collective: recoverable %v runs need a Timeout to abort on a mid-attempt crash", cfg.Kind)
	}
	maxAttempts := cfg.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 8
	}
	// The run generation salts this run's landing regions and trigger tags
	// away from anything a previous run on this cluster staged (including
	// state a straggler's abandoned runner staged after that run's own
	// cleanup). Generation 1 — the only run on most clusters — reproduces
	// the unsalted addresses bit-for-bit.
	gen := cl.NextCollectiveGen()
	if maxAttempts > 1024 {
		return res, fmt.Errorf("collective: MaxAttempts %d exceeds the per-generation namespace (1024)", maxAttempts)
	}
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		view, verr := m.WaitStable(p)
		if verr != nil {
			// Split-brain: the view is stable but no component holds a
			// majority, so no side may reduce. Record the refused attempt,
			// back off one suspicion horizon (heartbeats may yet heal the
			// cut), and charge it against the attempt budget so a permanent
			// symmetric cut returns a named error instead of parking forever.
			lastErr = verr
			res.Attempts = append(res.Attempts, AttemptReport{
				Start: p.Now(), End: p.Now(), ViewID: view, Err: verr,
			})
			p.Sleep(m.Config().SuspectAfter)
			continue
		}
		alive := m.Alive()
		doomed := len(alive) < 2
		for _, i := range alive {
			// The view can briefly lag reality: a node that just crashed is
			// still listed until the sweeper notices. Building an attempt on
			// a down node would stage state into its *next* incarnation, so
			// wait out the detection instead.
			if cl.Nodes[i].Down() {
				doomed = true
			}
		}
		if doomed {
			m.Changed().Wait(p)
			continue
		}
		rep := AttemptReport{Start: p.Now(), ViewID: view, Alive: append([]int(nil), alive...)}
		out, completed, err := runAttempt(p, cl, cfg, alive, gen, attempt, ver, hedge)
		rep.End, rep.Completed, rep.Err = p.Now(), completed, err
		res.Attempts = append(res.Attempts, rep)
		if err != nil {
			lastErr = err
		}
		violations := 0
		if ver != nil {
			// Settle blame before judging the attempt: quarantine bumps the
			// view, so an attempt that reduced a corrupt rank's data fails
			// the view-unchanged check below and retries over the survivors.
			violations = ver.settle(cl, m)
			if violations > 0 {
				verr := fmt.Errorf("collective: attempt %d: %d integrity violations", attempt, violations)
				rep.Err = errors.Join(rep.Err, verr)
				res.Attempts[len(res.Attempts)-1] = rep
				lastErr = verr
			}
		}
		viewOK := m.ViewID() == view
		if !viewOK && hedge != nil {
			// Hedged runs tolerate benign view churn: a straggler outside
			// the ring recovering (or being re-condemned) mid-attempt bumps
			// the view without touching the participants. The attempt
			// stands as long as every participant stayed responsive; churn
			// that removed a participant still forces a retry.
			viewOK = true
			for _, i := range rep.Alive {
				if s := m.Member(i).Status; s != health.Alive && s != health.Slow {
					viewOK = false
				}
			}
		}
		if completed && err == nil && violations == 0 && viewOK {
			res.Duration = p.Now()
			res.ViewID = view
			res.Alive = rep.Alive
			res.Output = out
			if out != nil && len(rep.Alive) > 0 && !cl.Cfg.Faults.SDC.Enabled() {
				// Exact-reduction invariant: the committed result must be the
				// elementwise sum of the final membership's inputs. Skipped
				// under SDC injection — deliberately corrupted data is an
				// application-level wrong answer, not a protocol violation.
				cl.Audit.ReductionResult(p.Now(), gen, out[rep.Alive[0]], cfg.Data, rep.Alive)
			}
			return res, nil
		}
	}
	if lastErr != nil {
		return res, fmt.Errorf("collective: no attempt succeeded in %d tries (last: %w)", maxAttempts, lastErr)
	}
	return res, fmt.Errorf("collective: no attempt succeeded in %d tries", maxAttempts)
}

// runAttempt runs one Allreduce over the given ranks with attempt-salted
// match bits and trigger tags, waiting until every participant's runner
// has exited (normally or killed by a crash). completed reports whether
// all runners finished their backend code.
func runAttempt(p *sim.Proc, cl *node.Cluster, cfg RecoverConfig, alive []int, gen int64, attempt int, ver *verifyRun, hedge *hedgeRun) (out [][]float32, completed bool, err error) {
	n := cl.Size()
	ringSize := len(alive)
	if cfg.TotalBytes < int64(ringSize)*elemBytes {
		return nil, false, fmt.Errorf("collective: payload %dB too small for %d chunks", cfg.TotalBytes, ringSize)
	}
	nelems := int(cfg.TotalBytes / elemBytes)
	join := sim.NewCounter(cl.Eng)
	errs := make([]error, n)
	finished := make([]bool, n)
	states := make([]*rankState, n)

	// Withdraw every earlier attempt's staged triggered ops before staging
	// new ones (PtlCTCancelTriggeredOps). Aborted attempts leave entries
	// that will never fire — their thresholds wanted ticks from kernels
	// that timed out — plus relaxed-sync placeholders from tag writes that
	// outran cancellation; unreclaimed, they pin the NIC's small
	// associative list until registration itself fails. The range reaches
	// back to generation 1 because an abandoned runner of an EARLIER run
	// can stage entries after that run's final cleanup pass (a straggler
	// pinned in a dilated compute kernel registers whenever it wakes).
	// Landing regions are deliberately NOT unlinked: a stale region is the
	// absorber that soaks up an abandoned runner's late traffic — without
	// it, a late chunk is a protocol error at the destination NIC. The
	// first attempt of the cluster's first run skips the pass entirely, so
	// the seed trace stays untouched.
	if attempt > 0 || gen > 1 {
		for _, i := range alive {
			cl.Nodes[i].Ptl.CancelTriggered(p, recoverTagBase(1, 0), recoverTagBase(gen, attempt))
		}
	}

	for pos, i := range alive {
		rounds, rerr := RingSchedule(pos, ringSize)
		if rerr != nil {
			return nil, false, rerr
		}
		nd := cl.Nodes[i]
		st := &rankState{
			nd:      nd,
			rounds:  rounds,
			recvCT:  nd.Ptl.CTAlloc(),
			nelems:  nelems,
			nranks:  ringSize,
			chunk:   cfg.TotalBytes / int64(ringSize),
			mb:      recoverMatchBits(gen, attempt),
			tagBase: recoverTagBase(gen, attempt),
			ring:    alive,
			pos:     pos,
			timeout: cfg.Timeout,
			sdc:     nd.NIC.Injector().SDC(),
			hedge:   hedge,
			recycle: recycles(nd),
		}
		if cfg.Data != nil {
			if len(cfg.Data[i]) != nelems {
				return nil, false, fmt.Errorf("collective: rank %d vector has %d elems, want %d", i, len(cfg.Data[i]), nelems)
			}
			st.vec = append([]float32(nil), cfg.Data[i]...)
			if ver != nil {
				st.verify = ver.newState(ringSize, nelems, st.vec)
			}
		}
		states[i] = st
	}
	if hedge != nil {
		for _, i := range alive {
			states[i].peers = states
		}
	}
	for _, i := range alive {
		st := states[i]
		st.nd.Ptl.MEAppend(&portals.ME{
			MatchBits: st.mb,
			Length:    cfg.TotalBytes,
			CT:        st.recvCT,
			OnDelivery: func(d nic.Delivery) {
				if st.vec == nil {
					return
				}
				st.applyChunk(d.Data.(chunkMsg))
			},
		})
	}
	for _, i := range alive {
		i := i
		st := states[i]
		// Hedged GDS runs execute on the HDN path (GDSFallbackHDN): the
		// stream's waits cannot be sliced, the host's can.
		kind := hedge.effectiveKind(cfg.Kind)
		pr := st.nd.Go(fmt.Sprintf("recover.a%d.%s.%d", attempt, cfg.Kind, i), func(p *sim.Proc) {
			st.computePhase(p, cfg.ComputePhase)
			var rerr error
			switch kind {
			case backends.CPU:
				rerr = runCPURank(p, st)
			case backends.HDN:
				rerr = runHDNRank(p, st)
			case backends.GDS:
				rerr = runGDSRank(p, st)
			case backends.GPUTN:
				rerr = runGPUTNRank(p, st)
			default:
				panic(fmt.Sprintf("collective: unknown backend %v", cfg.Kind))
			}
			errs[i] = rerr
			finished[i] = true
		})
		// Goroutine-level exit hook: the join counter is bumped even when a
		// crash kills the runner (including before its first instruction),
		// so the driver never waits on a participant that can no longer
		// report.
		pr.OnExit(func() { join.Add(1) })
	}
	if hedge == nil {
		join.WaitGE(p, int64(ringSize))
	} else {
		// A confirmed straggler's runner can be pinned inside a dilated
		// kernel long after the verdict; the attempt is already doomed, so
		// the driver stops waiting on Slow participants (their stale
		// traffic is attempt-salted away and their runner abandons at its
		// next receive) and retries over the responsive ranks.
		for {
			exited := join.Value()
			if exited >= int64(ringSize) {
				break
			}
			stop := true
			for _, i := range alive {
				if !finished[i] && hedge.m.Member(i).Status != health.Slow {
					stop = false
					break
				}
			}
			if stop {
				break
			}
			// Wake on the next runner exit or after one hedge slice,
			// whichever comes first, to re-evaluate verdicts.
			join.WaitGEUntil(p, exited+1, p.Now()+hedge.after)
		}
	}

	completed = true
	for _, i := range alive {
		if !finished[i] {
			completed = false
		}
		if errs[i] != nil && err == nil {
			err = errs[i]
		}
	}
	if cfg.Data != nil && completed && err == nil {
		out = make([][]float32, n)
		for _, i := range alive {
			out[i] = states[i].vec
		}
	}
	return out, completed, err
}
