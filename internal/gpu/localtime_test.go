package gpu

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/sim"
)

// Work-group local time must be invisible: a body that runs ahead on its
// own clock and pays the lag only where another entity can observe it has
// to produce exactly the times of the eager model, in which every Compute,
// Barrier, FenceSystem and store cost is its own sleep and every store lands
// at once. The reference below is that eager model written as a running sum
// of costs, max'ed at polls.

// wgOp is one step of a generated kernel body.
type wgOp struct {
	kind   int      // opCompute ... opPoll
	d      sim.Time // opCompute duration
	target int64    // opPoll counter target
}

const (
	opCompute = iota
	opBarrier
	opFence
	opStore     // AtomicStoreSystem with an effect
	opStoreCost // AtomicStoreSystem(nil): cost only
	opStoreTag  // StoreTag: pending until the next step
	opPoll
	numOps
	// opPollFor is PollUntilFor with timeout d+1; the eager model has no
	// deadlines, so only TestStepKernelMatchesBodyKernel draws it.
	opPollFor = numOps
)

// genBody draws a random body of up to 24 steps whose polls target one of
// the bumps bump counter values.
func genBody(r *rand.Rand, bumps int) []wgOp {
	ops := make([]wgOp, r.Intn(24)+1)
	for i := range ops {
		ops[i].kind = r.Intn(numOps)
		ops[i].d = sim.Time(r.Intn(400)) * sim.Nanosecond
		ops[i].target = int64(r.Intn(bumps) + 1)
	}
	return ops
}

// genRounds draws the trigger loop of a persistent kernel: up to 8 rounds
// of barrier, fence, tag store and poll, each poll after its store, with a
// random Compute closing some rounds.
func genRounds(r *rand.Rand, bumps int) []wgOp {
	var ops []wgOp
	for range r.Intn(8) + 1 {
		ops = append(ops, wgOp{kind: opBarrier}, wgOp{kind: opFence}, wgOp{kind: opStoreTag},
			wgOp{kind: opPoll, target: int64(r.Intn(bumps) + 1)})
		if r.Intn(2) == 0 {
			ops = append(ops, wgOp{kind: opCompute, d: sim.Time(r.Intn(400)) * sim.Nanosecond})
		}
	}
	return ops
}

// wgTimes is what one work-group exposes: each effect's engine time, each
// poll's return time, and its end.
type wgTimes struct {
	effects, polls []sim.Time
	end            sim.Time
}

// eager is the reference: it walks the body from start on one clock,
// dilating a Compute by factor when its start is at or after window, and
// a poll for target returns at the later of now and the target-th bump.
func eager(g *GPU, ops []wgOp, start sim.Time, bumps []sim.Time, window sim.Time, factor sim.Time) wgTimes {
	cfg := g.Config()
	var w wgTimes
	t := start
	for _, op := range ops {
		switch op.kind {
		case opCompute:
			d := op.d
			if t >= window {
				d *= factor
			}
			t += d
		case opBarrier:
			t += cfg.BarrierWorkGroup
		case opFence:
			t += cfg.FenceSystemScope
		case opStore, opStoreTag:
			t += cfg.AtomicSystemStore
			w.effects = append(w.effects, t)
		case opStoreCost:
			t += cfg.AtomicSystemStore
		case opPoll:
			t = max(t, bumps[op.target-1])
			w.polls = append(w.polls, t)
		}
	}
	w.end = t
	return w
}

// effectLog is a tag store's target: it records the engine time each
// store lands at.
type effectLog struct {
	eng *sim.Engine
	w   *wgTimes
}

func (l effectLog) Write(uint64) { l.w.effects = append(l.w.effects, l.eng.Now()) }

// runBody runs the body on wg, recording effect times from the engine
// clock (what an effect's side effects would see).
func runBody(eng *sim.Engine, wg *WGCtx, ops []wgOp, c *sim.Counter, w *wgTimes) {
	for _, op := range ops {
		switch op.kind {
		case opCompute:
			wg.Compute(op.d)
		case opBarrier:
			wg.Barrier()
		case opFence:
			wg.FenceSystem()
		case opStore:
			wg.AtomicStoreSystem(func() { w.effects = append(w.effects, eng.Now()) })
		case opStoreCost:
			wg.AtomicStoreSystem(nil)
		case opStoreTag:
			wg.StoreTag(effectLog{eng, w}, 1)
		case opPoll:
			wg.PollUntil(c, op.target)
			w.polls = append(w.polls, wg.Now())
		case opPollFor:
			wg.PollUntilFor(c, op.target, op.d+1)
			w.polls = append(w.polls, wg.Now())
		}
	}
	w.end = wg.Now()
}

// stepBody is runBody as a Step kernel's step function: the same calls,
// with Land before any step but a poll, a store's effect after a Pause,
// Await, or Pause then AwaitUntil, for the polls, and a Pause before the
// end is read. i is the op the work-group is at and at how far into it:
// 0 before its call, 1 once the call (and its wait) is made, 2 once a
// timed poll's deadline wait is.
type stepBody struct {
	eng   *sim.Engine
	ops   []wgOp
	c     *sim.Counter
	w     *wgTimes
	i, at int
}

func (b *stepBody) step(wg *WGCtx) bool {
	if wg.tw != nil {
		// A store pending across a wait must have landed when it ended;
		// an impossible effect time makes the comparison fail.
		b.w.effects = append(b.w.effects, -1)
	}
	for ; b.i < len(b.ops); b.i, b.at = b.i+1, 0 {
		op := b.ops[b.i]
		if b.at == 0 {
			if op.kind != opPoll && wg.Land() {
				return true
			}
			b.at = 1
			switch op.kind {
			case opCompute:
				wg.Compute(op.d)
			case opBarrier:
				wg.Barrier()
			case opFence:
				wg.FenceSystem()
			case opStore, opPollFor:
				if op.kind == opStore {
					wg.AtomicStoreSystem(nil)
				}
				if wg.Pause() {
					return true
				}
			case opStoreCost:
				wg.AtomicStoreSystem(nil)
			case opStoreTag:
				wg.StoreTag(effectLog{b.eng, b.w}, 1)
			case opPoll:
				if wg.Await(b.c, op.target) {
					return true
				}
			}
		}
		if op.kind == opPollFor && b.at == 1 {
			b.at = 2
			if wg.AwaitUntil(b.c, op.target, wg.Now()+op.d+1) {
				return true
			}
		}
		switch op.kind {
		case opStore:
			b.w.effects = append(b.w.effects, b.eng.Now())
		case opPoll, opPollFor:
			b.w.polls = append(b.w.polls, wg.Now())
		}
	}
	if b.at == 0 {
		b.at = 1
		if wg.Pause() {
			return true
		}
	}
	b.w.end = wg.Now()
	return false
}
func sameTimes(a, b []sim.Time) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkAgainstEager runs groups work-groups, each with its own body drawn
// by gen, against a counter bumped by engine events at random times in the
// first 4 us of the bodies and under a dilation window opening at window,
// and compares every observable time with the eager reference. step runs
// the bodies as a Step kernel (stepBody) instead.
func checkAgainstEager(t *testing.T, seed int64, groups int, window sim.Time, gen func(*rand.Rand, int) []wgOp, step bool) bool {
	r := rand.New(rand.NewSource(seed))
	eng, g := newGPU(t)
	const factor = 3
	g.SetDilation(func(now, d sim.Time) sim.Time {
		if now >= window {
			return factor * d
		}
		return d
	})
	c := sim.NewCounter(eng)
	bumps := make([]sim.Time, r.Intn(6)+1)
	for i := range bumps {
		bumps[i] = g.Config().KernelLaunch + sim.Time(r.Intn(4000))*sim.Nanosecond
	}
	sort.Slice(bumps, func(i, j int) bool { return bumps[i] < bumps[j] })
	for _, at := range bumps {
		eng.Schedule(at, func() { c.Add(1) })
	}
	bodies := make([][]wgOp, groups)
	for i := range bodies {
		bodies[i] = gen(r, len(bumps))
	}
	got := make([]wgTimes, groups)
	starts := make([]sim.Time, groups)
	var done sim.Time
	k := &Kernel{
		Name: "k", WorkGroups: groups,
		Body: func(wg *WGCtx) {
			starts[wg.Group] = wg.Now()
			runBody(eng, wg, bodies[wg.Group], c, &got[wg.Group])
		},
	}
	if step {
		steps := make([]stepBody, groups)
		for i := range steps {
			steps[i] = stepBody{eng: eng, ops: bodies[i], c: c, w: &got[i]}
			starts[i] = -1
		}
		k = &Kernel{
			Name: "k", WorkGroups: groups,
			Step: func(wg *WGCtx) bool {
				if starts[wg.Group] < 0 {
					starts[wg.Group] = wg.Now()
				}
				return steps[wg.Group].step(wg)
			},
		}
	}
	eng.Go("host", func(p *sim.Proc) {
		g.LaunchSync(p, k)
		done = p.Now()
	})
	eng.Run()

	var last sim.Time
	for i := range bodies {
		want := eager(g, bodies[i], starts[i], bumps, window, factor)
		if !sameTimes(got[i].effects, want.effects) || !sameTimes(got[i].polls, want.polls) || got[i].end != want.end {
			t.Logf("seed %d group %d: got %+v, want %+v", seed, i, got[i], want)
			return false
		}
		last = max(last, want.end)
	}
	if want := last + g.Config().KernelTeardown; done != want {
		t.Logf("seed %d: kernel done at %v, want %v", seed, done, want)
		return false
	}
	return true
}

func TestLocalTimeMatchesEagerModel(t *testing.T) {
	// Windows open anywhere in the first ~4 us of the bodies.
	launch := config.Default().GPU.KernelLaunch
	tests := []struct {
		name string
		fn   interface{}
	}{}
	// Each case runs as a body and as a Step kernel, whose Await, Pause
	// and Land must keep the body's times.
	for _, step := range []bool{false, true} {
		form := ""
		if step {
			form = " (step)"
		}
		tests = append(tests, []struct {
			name string
			fn   interface{}
		}{
			{
				name: "one work-group" + form,
				fn: func(seed int64, window uint16) bool {
					return checkAgainstEager(t, seed, 1, launch+64*sim.Time(window), genBody, step)
				},
			},
			{
				name: "concurrent work-groups on one counter" + form,
				fn: func(seed int64, groups uint8, window uint16) bool {
					return checkAgainstEager(t, seed, int(groups%4)+2, launch+64*sim.Time(window), genBody, step)
				},
			},
			{
				// Each tag store lands in the wake of the poll after it.
				name: "store then poll" + form,
				fn: func(seed int64, groups uint8, window uint16) bool {
					return checkAgainstEager(t, seed, int(groups%4)+1, launch+64*sim.Time(window), genRounds, step)
				},
			},
		}...)
	}
	tests = append(tests, []struct {
		name string
		fn   interface{}
	}{
		{
			// The window opens while the Barrier is still lag (or just
			// after it): the following Compute must be dilated exactly when
			// the eager model, whose clock has passed the barrier, would
			// dilate it.
			name: "window opening in a lagged barrier",
			fn: func(c1raw, into uint16) bool {
				eng, g := newGPU(t)
				b := g.Config().BarrierWorkGroup
				start := g.Config().KernelLaunch
				c1 := 16 * sim.Time(c1raw)
				window := start + c1 + sim.Time(into)%(2*b+1)
				g.SetDilation(func(now, d sim.Time) sim.Time {
					if now >= window {
						return 2 * d
					}
					return d
				})
				const c2 = 100 * sim.Nanosecond
				var end sim.Time
				eng.Go("host", func(p *sim.Proc) {
					g.LaunchSync(p, &Kernel{
						Name: "k", WorkGroups: 1,
						Body: func(wg *WGCtx) {
							wg.Compute(c1)
							wg.Barrier()
							wg.Compute(c2)
							end = wg.Now()
						},
					})
				})
				eng.Run()
				// c1 starts at start, before the window unless it is empty
				// and the window opens at start.
				d1 := c1
				if start >= window {
					d1 *= 2
				}
				want := start + d1 + b + c2
				if start+d1+b >= window {
					want += c2
				}
				return end == want
			},
		},
	}...)
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := quick.Check(tt.fn, nil); err != nil {
				t.Error(err)
			}
		})
	}
}
