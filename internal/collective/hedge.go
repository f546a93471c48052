// Fail-slow mitigation: RunHedged is RunRecoverable with hedged receive
// waits. Each per-hop receive is sliced into soft deadlines; a slice that
// expires without the predecessor's chunk reports lag against that rank to
// the membership (the active detection feed complementing the passive
// heartbeat watermarks) and re-arms, up to the hard Timeout. Once the
// membership confirms the predecessor Slow, the hop aborts immediately
// with ErrSlowNeighbor and the attempt loop re-forms the ring over the
// responsive ranks — the PR-4/5 heal machinery reused as a bypass path, so
// the sum is computed exactly over the final responsive membership. A
// straggler whose windows end recovers (OnRecovered), turns Alive, and
// rejoins at the next attempt boundary like a restarted node.
//
// GDS cells cannot hedge in place: stream waits are uninterruptible, so a
// hedged GDS run must opt into GDSFallbackHDN, which executes its attempts
// on the host-driven (HDN) path where receives can be sliced.
package collective

import (
	"errors"
	"fmt"

	"repro/internal/backends"
	"repro/internal/health"
	"repro/internal/node"
	"repro/internal/portals"
	"repro/internal/sim"
)

// ErrSlowNeighbor reports that a hop was abandoned because the membership
// confirmed the ring predecessor Slow — the retry excludes it.
var ErrSlowNeighbor = errors.New("collective: ring predecessor confirmed slow")

// HedgeConfig describes a fail-slow-tolerant Allreduce (RunHedged).
type HedgeConfig struct {
	RecoverConfig
	// HedgeAfter is the soft per-hop deadline: a receive still outstanding
	// after it reports lag against the ring predecessor and re-arms, up to
	// Timeout. Zero defaults to Timeout/4.
	HedgeAfter sim.Time
	// GDSFallbackHDN runs GDS-kind attempts on the HDN path while hedging.
	// Without it a GDS hedged run is rejected: stream waits cannot be
	// interrupted, so GDS has no in-place hedge point.
	GDSFallbackHDN bool
}

// hedgeRun threads the hedging parameters through the attempt machinery;
// nil on plain recoverable/verified runs (pay-for-use: their waits and
// traces are untouched).
type hedgeRun struct {
	m        *health.Membership
	after    sim.Time
	fallback bool
}

// RunHedged executes hedged Allreduce attempts until one completes over a
// stable, responsive membership view. Like RunRecoverable it runs on the
// calling process; spawn it with eng.Go and read the result after the
// cluster drains.
func RunHedged(p *sim.Proc, cl *node.Cluster, m *health.Membership, cfg HedgeConfig) (RecoverResult, error) {
	if cfg.Timeout <= 0 {
		return RecoverResult{}, fmt.Errorf("collective: hedged runs need a Timeout bounding each hop")
	}
	if cfg.Kind == backends.GDS && !cfg.GDSFallbackHDN {
		return RecoverResult{}, fmt.Errorf("collective: GDS stream waits cannot be hedged; set GDSFallbackHDN to run hedged attempts on the HDN path")
	}
	after := cfg.HedgeAfter
	if after <= 0 {
		after = cfg.Timeout / 4
	}
	if after <= 0 {
		after = 1
	}
	h := &hedgeRun{m: m, after: after, fallback: cfg.GDSFallbackHDN}
	return runRecoverable(p, cl, m, cfg.RecoverConfig, nil, h)
}

// hopWatch is one hop's hedging state: whether the hedge was counted as
// engaged, and since when the ring predecessor has demonstrably held the
// awaited step's inputs without delivering (-1 = not yet seen ready).
type hopWatch struct {
	engaged    bool
	readySince sim.Time
}

func newHopWatch() hopWatch { return hopWatch{readySince: -1} }

// expire handles one expired hedge slice observed by rank st waiting on
// step: the first expiry of a hop marks the hedge engaged on the NIC,
// expiries file lag reports against the (still-Alive) predecessor once it
// is demonstrably the bottleneck, and a predecessor already confirmed Slow
// aborts the hop. report is false for redundant observers (sibling
// work-groups of a kernel) so one hop files one report per slice. Returns
// ErrSlowNeighbor to abort, nil to re-arm.
//
// Blame attribution matters because a ring has head-of-line blocking: one
// straggler stalls every rank behind it, and if each rank blamed its own
// predecessor the whole healthy tail would accumulate lag debt and be
// falsely condemned. Two conditions gate a report:
//
//   - the predecessor holds the inputs for the awaited step (its receive
//     counter reached the step) — otherwise it is starving upstream too,
//     and the report is left to whoever sits directly behind the real
//     bottleneck;
//   - it has held them for at least one full hedge slice (readySince) —
//     pipeline skew lets a rank that ran ahead start its wait long before
//     the predecessor's inputs even arrive, and the slice clock must not
//     charge the predecessor for time it spent starving.
func (h *hedgeRun) expire(st *rankState, step int, now sim.Time, w *hopWatch, report bool) error {
	pred := st.left()
	if report {
		if !w.engaged {
			w.engaged = true
			st.nd.NIC.NoteHedgedSend()
		}
		switch {
		case !predBottleneck(st, step):
			w.readySince = -1
		case w.readySince < 0:
			w.readySince = now
		case now-w.readySince >= h.after && h.m.Member(pred).Status == health.Alive:
			h.m.ReportLag(pred, 1)
		}
	}
	if h.m.Member(pred).Status == health.Slow {
		return ErrSlowNeighbor
	}
	// Any confirmed straggler in the attempt's ring dooms the attempt (its
	// verdict bumped the view), so every rank abandons at its next slice
	// instead of waiting out the hard timeout hop by hop.
	for _, r := range st.ring {
		if h.m.Member(r).Status == health.Slow {
			return ErrSlowNeighbor
		}
	}
	return nil
}

// predBottleneck reports whether st's ring predecessor can already produce
// the send st is waiting on at step: a step-s send depends on the step-s-1
// receive, so a predecessor whose receive counter reached s holds its
// inputs and owns the delay; one that hasn't is starving upstream.
func predBottleneck(st *rankState, step int) bool {
	ps := st.peers[st.left()]
	if ps == nil {
		return true
	}
	return step == 0 || ps.recvCT.Raw().Value() >= int64(step)
}

// recvHost is the host-side hedged receive: HostRecvWaitTimeout's contract
// (wait for the target-th delivery, then pay receive processing) with the
// wait sliced into hedge deadlines.
func (h *hedgeRun) recvHost(p *sim.Proc, st *rankState, target int64) error {
	deadline := p.Now() + st.timeout
	w := newHopWatch()
	for {
		slice := p.Now() + h.after
		if slice > deadline {
			slice = deadline
		}
		if st.recvCT.Raw().WaitGEUntil(p, target, slice) {
			st.nd.CPU.RecvProcessing(p)
			return nil
		}
		if err := h.expire(st, int(target)-1, p.Now(), &w, true); err != nil {
			return err
		}
		if p.Now() >= deadline {
			return portals.ErrTimeout
		}
	}
}

// waitComp is the GPU-TN host-side pacing wait under hedging: sliced like
// the receive waits so the registration loop notices a kernel that already
// abandoned its hop (stalled returns true) instead of burning the full
// Timeout against local completions that will never come.
func (h *hedgeRun) waitComp(p *sim.Proc, st *rankState, ct *sim.Counter, target int64, stalled func() bool) error {
	deadline := p.Now() + st.timeout
	for {
		slice := p.Now() + h.after
		if slice > deadline {
			slice = deadline
		}
		if ct.WaitGEUntil(p, target, slice) {
			return nil
		}
		if stalled() {
			return ErrSlowNeighbor
		}
		if p.Now() >= deadline {
			return portals.ErrTimeout
		}
	}
}

// effectiveKind resolves the backend an attempt actually runs: identity for
// plain runs, HDN for hedged GDS runs that opted into the fallback.
func (h *hedgeRun) effectiveKind(k backends.Kind) backends.Kind {
	if h != nil && h.fallback && k == backends.GDS {
		return backends.HDN
	}
	return k
}
