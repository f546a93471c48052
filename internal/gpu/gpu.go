// Package gpu models the paper's GPU: a front-end hardware scheduler that
// consumes in-memory command queues (whose dispatch latency is the subject
// of Figure 1), a pool of compute units executing work-groups, the scoped
// memory-model operations of §4.2.6 (system-scope fences and atomics), and
// in-order streams with network-initiation points for the GDS baseline.
//
// Kernel bodies are Go functions executed per work-group inside simulation
// processes, so intra-kernel behaviour — polling on flags, triggering the
// NIC mid-kernel, work-group barriers — composes naturally with the rest
// of the simulated node. A kernel can instead give a step function, whose
// work-groups are stackless processes that wait without a coroutine.
package gpu

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/memsys"
	"repro/internal/sim"
)

// Kernel describes one GPU kernel dispatch.
type Kernel struct {
	Name       string
	WorkGroups int
	WGSize     int
	// Body runs once per work-group. A kernel with none of Body, Step and
	// WGTime is an empty kernel (used by the Figure 1 launch-latency
	// study).
	Body func(wg *WGCtx)
	// Step, in place of Body, is a work-group's step function: it runs at
	// the group's start (with its CU slot held) and again when each wait
	// it began ends, and reports true when it began one (Pause, Land,
	// Await or AwaitUntil reported true) and false when the group is done.
	// Its work-groups are stackless processes (sim.Engine.GoStep), so a
	// wait resumes no coroutine; the step keeps its place per Group in
	// state of its own. Between waits it runs exactly as a body would.
	Step func(wg *WGCtx) bool
	// WGTime, for a kernel with no body, is each work-group's duration:
	// it holds a CU slot for WGTime (stretched by a fail-slow dilation
	// hook, as Compute is) and does nothing else, so its work-groups run
	// on plain events, not processes (see wgStart).
	WGTime sim.Time
	// OnComplete, when non-nil, runs after teardown finishes.
	OnComplete func()

	done *sim.Counter // counts 1 when the kernel has fully completed
}

// WGCtx is the execution context handed to a kernel body for one
// work-group: the paper's kernel API surface (§4.2) plus cost accounting.
//
// A work-group runs ahead on its own clock. Compute, Barrier, FenceSystem
// and the cost of a store add to lag instead of sleeping, because
// no other entity can observe a work-group between them. A StoreTag is
// recorded, not applied: it is pending until the work-group's next step.
// The lag is paid as one sleep at the next point that is observable:
// before a store's effect, before a poll, in Now, Proc and Sync, and when
// the body returns. A pending tag store lands at the end of that sleep,
// before the step goes on. When the next step is an untimed poll
// (PollUntil, or PollUntilFor with no timeout), the sleep, the store and
// the poll are one counter wait, and the work-group's coroutine resumes
// only once the counter is reached. So a kernel body reads time through
// wg.Now(), and a body that reads or writes state shared with other
// entities does so inside a store's effect or after wg.Sync() (or
// wg.Now()).
//
// A Step kernel's work-group cannot park, so it waits through the forms
// that return instead: Pause for Sync, Land before any step but a poll
// while a tag store is pending, Await for PollUntil, and Pause then
// AwaitUntil for PollUntilFor. Sync, Proc, PollUntil, PollUntilFor, an
// effect's AtomicStoreSystem, and any step that would flush a pending
// store panic there if they have lag to pay; Now is for a paid lag.
type WGCtx struct {
	gpu *GPU
	p   *sim.Proc
	// lag is the local time the work-group has run ahead of the engine
	// clock: its logical time is p.Now() + lag.
	lag sim.Time
	// tw, when non-nil, is a pending StoreTag of tag, due at the end of
	// the lag.
	tw  sim.TagWriter
	tag uint64
	// k is the kernel of a Step work-group (nil for a body), and stage
	// where its process is.
	k     *Kernel
	stage wgStage

	// Group is the work-group id (get_group_id), NumGroups the dispatch
	// width in work-groups, and WGSize the work-items per group.
	Group     int
	NumGroups int
	WGSize    int
}

// Sync pays the work-group's lag, bringing the engine clock up to its
// local time, and lands a pending tag store. Call it before reading or
// writing state other entities can see. It costs no event when there is
// no lag.
func (w *WGCtx) Sync() {
	if d := w.lag; d > 0 {
		w.lag = 0
		w.p.Sleep(d)
	}
	w.landNow()
}

// advance lands a pending tag store, then adds d of unobservable
// work-group time to the lag.
func (w *WGCtx) advance(d sim.Time) {
	if d < 0 {
		panic("gpu: negative work-group duration")
	}
	w.land()
	w.lag += d
}

// land syncs the work-group if a tag store is pending.
func (w *WGCtx) land() {
	if w.tw != nil {
		w.Sync()
	}
}

// Proc exposes the underlying simulation process for advanced waits,
// synced to the work-group's local time.
func (w *WGCtx) Proc() *sim.Proc {
	w.Sync()
	return w.p
}

// Now returns the work-group's simulated time, syncing the engine to it.
func (w *WGCtx) Now() sim.Time {
	w.Sync()
	return w.p.Now()
}

// Compute advances the work-group by d of pure computation. An installed
// dilation hook (a fail-slow window) can stretch the duration; it sees the
// work-group's local time.
func (w *WGCtx) Compute(d sim.Time) {
	w.land()
	if w.gpu.dilate != nil {
		d = w.gpu.dilate(w.p.Now()+w.lag, d)
	}
	w.advance(d)
}

// Barrier executes a work-group barrier (work_group_barrier).
func (w *WGCtx) Barrier() { w.advance(w.gpu.cfg.BarrierWorkGroup) }

// FenceSystem executes an atomic_work_item_fence to system scope with
// release/acquire semantics — required before the trigger write so the
// send buffer is visible to the NIC (§4.2.6).
func (w *WGCtx) FenceSystem() { w.advance(w.gpu.cfg.FenceSystemScope) }

// AtomicStoreSystem performs an atomic store with
// memory_scope_all_svm_devices: it pays the cache-bypassing store cost and
// then applies the store's effect (e.g. a doorbell ring) at the
// work-group's local time. A nil effect only adds the cost.
func (w *WGCtx) AtomicStoreSystem(effect func()) {
	w.advance(w.gpu.cfg.AtomicSystemStore)
	if effect != nil {
		w.Sync()
		effect()
	}
}

// StoreTag is AtomicStoreSystem(func() { t.Write(tag) }) without the
// closure: the leader's store of a tag to the NIC's trigger address
// (§4.2.6). It pays the store cost and leaves the store pending; it lands
// at the work-group's local time when the next step syncs, or in the wake
// of the untimed poll that directly follows it.
func (w *WGCtx) StoreTag(t sim.TagWriter, tag uint64) {
	w.advance(w.gpu.cfg.AtomicSystemStore)
	w.tw, w.tag = t, tag
}

// PollUntil blocks the work-group until the counter reaches target,
// modeling a spin on a memory flag updated by the NIC or a peer (§4.2.5).
func (w *WGCtx) PollUntil(c *sim.Counter, target int64) {
	if t := w.tw; t != nil {
		d := w.lag
		w.tw, w.lag = nil, 0
		c.WaitGEAfter(w.p, d, t, w.tag, target)
		return
	}
	w.Sync()
	c.WaitGE(w.p, target)
}

// Pause is Sync for a Step kernel: it pays the lag as a sleep and reports
// true, and a pending tag store lands when the sleep ends, before the next
// step; with no lag it lands the store at once and reports false.
func (w *WGCtx) Pause() bool {
	if d := w.lag; d > 0 {
		w.lag = 0
		w.p.After(d)
		return true
	}
	w.landNow()
	return false
}

// Land is the flush a body's next step makes after a StoreTag, for a Step
// kernel, which makes it itself before any step but a poll: Pause when a
// tag store is pending, and nothing (false) otherwise.
func (w *WGCtx) Land() bool { return w.tw != nil && w.Pause() }

// landNow applies a pending tag store.
func (w *WGCtx) landNow() {
	if t := w.tw; t != nil {
		w.tw = nil
		t.Write(w.tag)
	}
}

// Await is PollUntil for a Step kernel: it reports true when the
// work-group waits, and its next step runs once the counter reaches
// target. A pending tag store lands in the wake that pays the lag, as it
// does in PollUntil; a writer that takes stores ahead (the NIC's trigger
// address, sim.AheadWriter) books it at issue time instead, and the wait
// then wakes the work-group no earlier than the store's time.
func (w *WGCtx) Await(c *sim.Counter, target int64) bool {
	t, d := w.tw, w.lag
	w.tw, w.lag = nil, 0
	return c.AwaitGEAfter(w.p, d, t, w.tag, target)
}

// AwaitUntil is the deadline wait of PollUntilFor for a Step kernel, at
// an absolute deadline: it reports true when the work-group waits, until
// the counter reaches target or the deadline passes; then, or at once,
// Reached tells which. The lag must be paid first (Pause).
func (w *WGCtx) AwaitUntil(c *sim.Counter, target int64, deadline sim.Time) bool {
	if w.lag > 0 || w.tw != nil {
		panic("gpu: AwaitUntil with unpaid work-group lag; Pause first")
	}
	return c.AwaitGEUntil(w.p, target, deadline)
}

// Reached reports whether the last AwaitUntil reached its target.
func (w *WGCtx) Reached() bool { return w.p.Reached() }

// PollUntilFor is PollUntil with a deadline: it reports whether the target
// was reached before timeout elapsed. A non-positive timeout waits forever
// (and reports true), so fault-free code paths stay unchanged.
func (w *WGCtx) PollUntilFor(c *sim.Counter, target int64, timeout sim.Time) bool {
	if timeout <= 0 {
		w.PollUntil(c, target)
		return true
	}
	w.Sync()
	return c.WaitGEUntil(w.p, target, w.p.Now()+timeout)
}

// GPU is one node's GPU device.
type GPU struct {
	eng *sim.Engine
	cfg config.GPUConfig
	mem *memsys.Hierarchy

	slots *sim.Resource // work-group occupancy: CUs x MaxWGPerCU
	queue *sim.Queue[*Kernel]

	// The front-end runs on plain events (see feStep): feBusy is set
	// while a step is scheduled or a kernel is in flight, feAt names the
	// step the next feStep event runs and feEv is that event, cur is the
	// kernel in flight and wgLeft counts its unfinished work-groups.
	// feStepFn is feStep, bound once; lane is the front-end's event lane.
	feBusy   bool
	feAt     feStage
	feEv     sim.Event
	cur      *Kernel
	wgLeft   int
	feStepFn func()
	lane     uint32

	// The work-groups of a kernel with WGTime and no body run on plain
	// events: wgStartFn takes a CU slot, wgGrantFn is the slot resource's
	// admission callback, wgRunFn starts a group's time and wgEndFn ends
	// it (wgStart, wgGrant, wgRun, wgEnd, bound at the GPU's first such
	// kernel, so a GPU that runs none pays nothing). wgEvs holds the
	// kernel's events for Reset to cancel, and wgHeld counts the CU slots
	// its work-groups hold.
	wgStartFn, wgGrantFn, wgRunFn, wgEndFn func()
	wgEvs                                  []sim.Event
	wgHeld                                 int64

	// launchModel, when non-nil, replaces the fixed KernelLaunch cost with
	// a queue-depth-dependent one (Figure 1 presets).
	launchModel func(queued int) sim.Time

	// dilate, when non-nil, stretches every WGCtx.Compute duration — the
	// fail-slow GPU class (fault.SlowPlan) — given the work-group's local
	// time. A struct field rather than per-kernel state so it survives
	// Reset: a restarted node's silicon is still throttled.
	dilate func(now, d sim.Time) sim.Time

	// live tracks the in-flight work-group processes so a node crash can
	// take them all down.
	live []*sim.Proc

	kernelsLaunched int64
}

// New creates a GPU whose front-end scheduler idles until a kernel is
// launched.
func New(eng *sim.Engine, cfg config.GPUConfig, mem *memsys.Hierarchy) *GPU {
	slots := cfg.ComputeUnits * cfg.MaxWGPerCU
	if slots <= 0 {
		panic("gpu: non-positive work-group occupancy")
	}
	g := &GPU{
		eng:   eng,
		cfg:   cfg,
		mem:   mem,
		slots: sim.NewResource(eng, int64(slots)),
		queue: sim.NewQueue[*Kernel](eng),
		lane:  eng.Lane(),
	}
	g.feStepFn = g.feStep
	return g
}

// Reset models the GPU side of a node crash: every in-flight work-group
// process is killed and a busy front-end scheduler drops its kernel (an
// in-flight kernel is lost, never completing), and the kernel queue is
// cleared. Work-group slots held by killed processes are released by
// their deferred cleanup, and those of a kernel's event-run work-groups
// at once, with their pending events cancelled, so the CU pool comes
// back whole.
func (g *GPU) Reset() {
	if g.cur != nil {
		// Mid-kernel: cancel the front-end's pending step, if any (none
		// while it waits for work-groups). A scheduled start is left to
		// find the queue empty, or the next launch in it.
		g.feEv.Cancel()
		g.cur, g.feBusy = nil, false
	}
	for _, p := range g.live {
		g.eng.Kill(p)
	}
	g.live = g.live[:0]
	for _, ev := range g.wgEvs {
		ev.Cancel()
	}
	g.wgEvs = g.wgEvs[:0]
	g.slots.DropFuncs()
	if n := g.wgHeld; n > 0 {
		g.wgHeld = 0
		g.slots.Release(n)
	}
	for {
		if _, ok := g.queue.TryPop(); !ok {
			break
		}
	}
}

// track records a live work-group process, compacting dead entries so
// long-running simulations do not accumulate garbage.
func (g *GPU) track(p *sim.Proc) {
	if len(g.live) >= 64 {
		keep := g.live[:0]
		for _, q := range g.live {
			if !q.Dead() {
				keep = append(keep, q)
			}
		}
		g.live = keep
	}
	g.live = append(g.live, p)
}

// RunResident runs a single-work-group resident task directly on the CU
// pool, bypassing the front-end queue — modeling a persistent background
// kernel dispatched on its own hardware queue (the heartbeat ticker of
// internal/health). It occupies one work-group slot for its lifetime and
// dies with the node on Reset.
func (g *GPU) RunResident(name string, body func(wg *WGCtx)) *sim.Proc {
	p := g.eng.Go("gpu."+name, func(wp *sim.Proc) {
		wp.Sleep(g.cfg.KernelLaunch)
		g.kernelsLaunched++
		g.slots.Acquire(wp, 1)
		defer g.slots.Release(1)
		ctx := &WGCtx{gpu: g, p: wp, Group: 0, NumGroups: 1, WGSize: g.cfg.WavefrontSize}
		body(ctx)
		ctx.Sync()
	})
	g.track(p)
	return p
}

// Config returns the GPU configuration.
func (g *GPU) Config() config.GPUConfig { return g.cfg }

// KernelsLaunched reports how many kernels the front-end has dispatched.
func (g *GPU) KernelsLaunched() int64 { return g.kernelsLaunched }

// SetLaunchModel installs a queue-depth-dependent launch-latency model
// (the Figure 1 scheduler presets). Pass nil to restore the fixed cost.
func (g *GPU) SetLaunchModel(f func(queued int) sim.Time) { g.launchModel = f }

// SetDilation installs a compute-time dilation hook (the fail-slow GPU
// class). The hook gets the work-group's local time, which can be ahead of
// the engine clock. Pass nil to restore full speed.
func (g *GPU) SetDilation(f func(now, d sim.Time) sim.Time) { g.dilate = f }

// Launch enqueues a kernel on the GPU's command queue. The front-end
// scheduler dispatches it in FIFO order. Completion is observable via
// k.OnComplete or LaunchSync.
func (g *GPU) Launch(k *Kernel) {
	if k.WorkGroups <= 0 {
		panic(fmt.Sprintf("gpu: kernel %q with %d work-groups", k.Name, k.WorkGroups))
	}
	if k.WGTime < 0 {
		panic(fmt.Sprintf("gpu: kernel %q with negative WGTime %v", k.Name, k.WGTime))
	}
	if k.Body != nil && k.Step != nil || k.WGTime > 0 && (k.Body != nil || k.Step != nil) {
		panic(fmt.Sprintf("gpu: kernel %q has more than one of Body, Step and WGTime", k.Name))
	}
	if k.WGSize <= 0 {
		k.WGSize = g.cfg.WavefrontSize
	}
	k.done = sim.NewCounter(g.eng)
	g.queue.Push(k)
	if !g.feBusy {
		g.feBusy, g.feAt = true, feStart
		g.feEv = g.eng.AfterLane(0, g.lane, g.feStepFn)
	}
}

// Wait parks p until the kernel (previously launched) fully completes.
func (k *Kernel) Wait(p *sim.Proc) {
	if k.done == nil {
		panic(fmt.Sprintf("gpu: waiting on kernel %q that was never launched", k.Name))
	}
	k.done.WaitGE(p, 1)
}

// LaunchSync launches k and parks p until it completes — the host-blocking
// dispatch used by HDN-style code.
func (g *GPU) LaunchSync(p *sim.Proc, k *Kernel) {
	g.Launch(k)
	k.Wait(p)
}

// The front-end (the hardware scheduler) runs one kernel command at a
// time: it pays the launch latency, spawns the kernel's work-groups on the
// CU pool, waits for the last to finish, pays teardown and signals
// completion, then starts the next kernel or goes idle until Launch queues
// another. It waits on nothing but time and a work-group count, so it runs
// on plain events: each wait ends in one feStep event on the front-end's
// lane, and feAt names the step that event runs.

// feStage names a step of the front-end.
type feStage uint8

const (
	feStart    feStage = iota // pop the next kernel
	feLaunched                // launch latency paid: run the work-groups
	feTeardown                // last work-group done: tear down
	feDone                    // teardown paid: complete the kernel
)

// feStep runs the step the front-end waited for.
func (g *GPU) feStep() {
	switch g.feAt {
	case feStart:
		g.fePop()
	case feLaunched:
		g.feLaunch()
	case feTeardown:
		g.feWait(g.cfg.KernelTeardown, feDone)
	case feDone:
		k := g.cur
		g.cur = nil
		if k.OnComplete != nil {
			k.OnComplete()
		}
		k.done.Add(1)
		g.fePop()
	}
}

// feWait schedules the front-end's next step, at, after a wait of d. It
// runs on the front-end's lane even when a work-group schedules it.
func (g *GPU) feWait(d sim.Time, at feStage) {
	g.feAt = at
	g.feEv = g.eng.AfterLane(d, g.lane, g.feStepFn)
}

// fePop starts the next queued kernel's launch, or idles the front-end.
func (g *GPU) fePop() {
	k, ok := g.queue.TryPop()
	if !ok {
		g.feBusy = false
		return
	}
	g.cur = k
	// Queue depth seen by the scheduler includes the popped command.
	depth := g.queue.Len() + 1
	launch := g.cfg.KernelLaunch
	if g.launchModel != nil {
		launch = g.launchModel(depth)
	}
	g.feWait(launch, feLaunched)
}

// feLaunch runs the launched kernel's work-groups, or goes straight to
// teardown for an empty kernel.
func (g *GPU) feLaunch() {
	g.kernelsLaunched++
	k := g.cur
	if k.Body == nil && k.Step == nil && k.WGTime == 0 {
		g.feWait(g.cfg.KernelTeardown, feDone)
		return
	}
	g.wgLeft = k.WorkGroups
	if k.WGTime > 0 {
		if g.wgStartFn == nil {
			g.wgStartFn, g.wgGrantFn, g.wgRunFn, g.wgEndFn = g.wgStart, g.wgGrant, g.wgRun, g.wgEnd
		}
		// Each start event is born where a body's work-group process is
		// spawned, so the groups keep its birth keys and lane.
		g.wgEvs = g.wgEvs[:0]
		for range k.WorkGroups {
			g.wgEvs = append(g.wgEvs, g.eng.AfterLane(0, g.lane, g.wgStartFn))
		}
		return
	}
	for wg := 0; wg < k.WorkGroups; wg++ {
		// Per-work-group names only matter to trace output and
		// hang diagnostics; untraced runs share the kernel name
		// instead of paying a Sprintf per work-group.
		name := k.Name
		if g.eng.Trace != nil {
			name = fmt.Sprintf("gpu.%s.wg%d", k.Name, wg)
		}
		if k.Step != nil {
			ctx := &WGCtx{gpu: g, k: k, Group: wg, NumGroups: k.WorkGroups, WGSize: k.WGSize}
			ctx.p = g.eng.GoStep(name, ctx.run)
			g.track(ctx.p)
			continue
		}
		g.track(g.eng.Go(name, func(wp *sim.Proc) {
			g.slots.Acquire(wp, 1)
			defer g.slots.Release(1)
			ctx := &WGCtx{gpu: g, p: wp, Group: wg, NumGroups: k.WorkGroups, WGSize: k.WGSize}
			k.Body(ctx)
			ctx.Sync()
			g.wgDone(k)
		}))
	}
}

// wgStage is where a Step kernel's work-group process is.
type wgStage uint8

const (
	wgStart wgStage = iota // not started
	wgAdmit                // queued for a CU slot
	wgRun                  // holding its slot, running the kernel's step
	wgEnd                  // the step is done: paying the last lag
)

// run is the stackless process of a Step kernel's work-group. It does what
// a body's work-group process does around the body, one dispatch at a
// time: take a CU slot (or queue for one), run the step until it is done,
// pay the lag left (Sync), count the group done and free the slot. A
// Pause's wait ends with its pending store landing before the step goes
// on. A Kill (Reset) after the slot was taken frees it, as the body's
// deferred Release does; one that finds the group queued leaves the
// request to the engine, as Acquire's own cleanup does.
func (w *WGCtx) run(p *sim.Proc) bool {
	g := w.gpu
	if p.Dead() {
		if w.stage >= wgRun {
			g.slots.Release(1)
		}
		return false
	}
	switch w.stage {
	case wgStart:
		if g.slots.AwaitAcquire(p, 1) {
			w.stage = wgAdmit
			return true
		}
	case wgRun, wgEnd:
		w.landNow()
	}
	if w.stage != wgEnd {
		w.stage = wgRun
		if w.k.Step(w) {
			return true
		}
		w.stage = wgEnd
		if w.Pause() {
			return true
		}
	}
	g.wgDone(w.k)
	g.slots.Release(1)
	return false
}

// wgDone counts down a finished work-group of k; the last one schedules
// teardown at the current time.
func (g *GPU) wgDone(k *Kernel) {
	if g.cur != k {
		return // k was lost to a Reset
	}
	if g.wgLeft--; g.wgLeft == 0 {
		g.feWait(0, feTeardown)
	}
}

// A work-group of a kernel with WGTime and no body does what a work-group
// process whose body is wg.Compute(k.WGTime) does, with one event wherever
// the process would be woken: its start takes a CU slot, or queues for
// one in the slots' FIFO among the processes, and its end counts the group
// done, then frees the slot. The groups of the one kernel in flight are
// interchangeable, so the four steps are bound once per GPU and carry no
// group id.

// wgStart is a work-group's start: take a slot and run, or queue for one.
func (g *GPU) wgStart() {
	if g.slots.AcquireFunc(1, g.wgGrantFn) {
		g.wgHeld++
		g.wgRun()
	}
}

// wgGrant admits a queued work-group: like a process's admission wake, it
// schedules the group's run at the admission time on the GPU's lane.
func (g *GPU) wgGrant() {
	g.wgHeld++
	g.wgEvs = append(g.wgEvs, g.eng.AfterLane(0, g.lane, g.wgRunFn))
}

// wgRun starts a slotted work-group's (possibly dilated) time.
func (g *GPU) wgRun() {
	d := g.cur.WGTime
	if g.dilate != nil {
		d = g.dilate(g.eng.Now(), d)
	}
	if d == 0 {
		g.wgEnd()
		return
	}
	g.wgEvs = append(g.wgEvs, g.eng.AfterLane(d, g.lane, g.wgEndFn))
}

// wgEnd counts a work-group done and frees its slot, in a process's
// order: the last group schedules teardown before the slot admits anyone.
func (g *GPU) wgEnd() {
	g.wgHeld--
	g.wgDone(g.cur)
	g.slots.Release(1)
}

// ComputeTime estimates the time for one work-group to execute the given
// number of scalar operations: the group's work-items retire
// WGSize-wide vector operations at the GPU clock.
func (g *GPU) ComputeTime(ops int64, wgSize int) sim.Time {
	if ops <= 0 {
		return 0
	}
	if wgSize <= 0 {
		wgSize = g.cfg.WavefrontSize
	}
	cyclesF := float64(ops) / float64(wgSize)
	return sim.Nanoseconds(cyclesF / g.cfg.ClockGHz)
}

// MemoryTime estimates the time for one work-group to touch the given
// bytes out of a working set of the given size, assuming the memory system
// overlaps several outstanding cache-line requests.
func (g *GPU) MemoryTime(bytes, workingSet int64) sim.Time {
	if bytes <= 0 {
		return 0
	}
	const mlp = 8 // outstanding misses the CU can sustain
	lines := g.mem.LineTransfers(bytes)
	lat := g.mem.AvgAccessLatency(workingSet)
	return sim.Time((float64(lines) / mlp) * float64(lat))
}
