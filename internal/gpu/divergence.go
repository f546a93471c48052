package gpu

import "repro/internal/sim"

// Divergence modeling (§2.1.1): "if a work-item in a wavefront branches in
// a different direction than another work-item, then the wavefront is said
// to diverge and is executed twice with an execution mask used to ignore
// the unwanted results."

// Wavefronts returns the number of wavefronts in this work-group
// (ceil(WGSize / wavefront size)).
func (w *WGCtx) Wavefronts() int {
	ws := w.gpu.cfg.WavefrontSize
	return (w.WGSize + ws - 1) / ws
}

// Diverge models a data-dependent branch inside the work-group where
// takenFrac of the work-items take the then-path and the rest the
// else-path. Wavefronts whose items all agree execute one path; any
// wavefront with items on both sides executes both paths serially under
// an execution mask.
//
// The model assumes taken items are spread uniformly across wavefronts —
// the common (worst) case — so any 0 < takenFrac < 1 serializes every
// wavefront, while 0 and 1 cost a single path. A branch that partitions
// cleanly by wavefront should be expressed as two Compute calls instead.
func (w *WGCtx) Diverge(takenFrac float64, thenTime, elseTime sim.Time) {
	switch {
	case takenFrac <= 0:
		w.advance(elseTime)
	case takenFrac >= 1:
		w.advance(thenTime)
	default:
		// Mask serialization: both paths execute back to back.
		w.advance(thenTime + elseTime)
	}
}

// DivergeLeader models the ubiquitous "if (!get_local_id()) {...}" leader
// pattern of Figure 7: one work-item does the work while its wavefront's
// remaining lanes are masked off. The whole group advances by the leader's
// path time (other wavefronts skip the branch entirely).
func (w *WGCtx) DivergeLeader(leaderTime sim.Time) {
	w.advance(leaderTime)
}
