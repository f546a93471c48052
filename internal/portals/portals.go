// Package portals provides a Portals-4-flavored host networking API on top
// of the NIC model, mirroring the paper's experimental setup: "The NIC model
// implements the Portals 4 network programming specification with custom
// GPU-TN functions implemented using an API similar to existing Portals 4
// triggered operations" (§5.1).
//
// The package exposes memory descriptors (MD), match entries (ME), counting
// events (CT), classic Put/Get/TriggeredPut, and the paper's additions:
// TrigPut (tag-triggered put) and GetTriggerAddr (the memory-mapped trigger
// address handed to GPU kernels).
package portals

import (
	"errors"
	"fmt"

	"repro/internal/network"
	"repro/internal/nic"
	"repro/internal/sim"
)

// ErrTimeout is returned by deadline-bounded waits when the counting event
// fails to reach its target in time. Callers unwrap it with errors.Is.
var ErrTimeout = errors.New("portals: counting-event wait timed out")

// CT is a counting event, the Portals-4 lightweight completion primitive.
type CT struct {
	ctr *sim.Counter
}

// Value returns the current count.
func (c *CT) Value() int64 { return c.ctr.Value() }

// Wait parks p until the count reaches at least target (PtlCTWait).
func (c *CT) Wait(p *sim.Proc, target int64) { c.ctr.WaitGE(p, target) }

// WaitTimeout parks p until the count reaches target or timeout elapses.
// A non-positive timeout means wait forever. On expiry it returns an error
// wrapping ErrTimeout that records the observed and expected counts.
func (c *CT) WaitTimeout(p *sim.Proc, target int64, timeout sim.Time) error {
	if timeout <= 0 {
		c.ctr.WaitGE(p, target)
		return nil
	}
	if c.ctr.WaitGEUntil(p, target, p.Now()+timeout) {
		return nil
	}
	return fmt.Errorf("%w: ct=%d target=%d after %v", ErrTimeout, c.ctr.Value(), target, timeout)
}

// Inc adds to the count from model code (PtlCTInc).
func (c *CT) Inc(n int64) { c.ctr.Add(n) }

// Raw exposes the underlying simulator counter for wiring into NIC hooks.
func (c *CT) Raw() *sim.Counter { return c.ctr }

// MD is a memory descriptor: a registered local buffer with an optional CT
// counting local completions (send-buffer reuse safety, §4.2.4).
type MD struct {
	Name   string
	Length int64
	Data   any
	CT     *CT
}

// ME is a match entry: a region exposed for one-sided access, with an
// optional CT counting deliveries (target-side notification, §4.2.5).
type ME struct {
	MatchBits uint64
	Length    int64
	CT        *CT
	// OnDelivery observes each landing (e.g. to store incoming data).
	OnDelivery func(d nic.Delivery)
	// ReadBack serves get operations against this entry.
	ReadBack func(size int64) any
}

// TriggerAddr is the memory-mapped trigger address (§3.1). GPU kernel code
// receives it as a kernel argument and activates pre-registered operations
// by writing tags to it. Write is the modeled MMIO store — callers account
// for their own store issue cost; the flight time to the NIC is the NIC's.
type TriggerAddr struct {
	n *nic.NIC
}

// Write stores a tag to the trigger address.
func (t TriggerAddr) Write(tag uint64) { t.n.TriggerWrite(tag) }

// WriteAhead books the store Write(tag) would make at time at, so the NIC
// counts it without a wake of the storing work-group (sim.AheadWriter).
func (t TriggerAddr) WriteAhead(tag uint64, at sim.Time) bool {
	return t.n.TriggerWriteAhead(nic.DynamicWrite{Tag: tag}, at)
}

// Withdraw takes back a store booked by WriteAhead that was never made.
func (t TriggerAddr) Withdraw(tag uint64, at sim.Time) {
	t.n.WithdrawTriggerWrite(nic.DynamicWrite{Tag: tag}, at)
}

// WriteDynamic stores a tag plus GPU-computed override fields (§3.4).
// The caller models the extra store costs (one per present field).
func (t TriggerAddr) WriteDynamic(w nic.DynamicWrite) { t.n.TriggerWriteDynamic(w) }

// Runtime is one node's Portals-style communication runtime.
type Runtime struct {
	eng  *sim.Engine
	nic  *nic.NIC
	rank int
	size int
}

// Init creates the runtime for a node — the RdmaInit() of Figure 6.
func Init(eng *sim.Engine, n *nic.NIC, rank, size int) *Runtime {
	if rank < 0 || rank >= size {
		panic(fmt.Sprintf("portals: rank %d outside world of %d", rank, size))
	}
	return &Runtime{eng: eng, nic: n, rank: rank, size: size}
}

// Rank returns this node's rank.
func (r *Runtime) Rank() int { return r.rank }

// Size returns the world size.
func (r *Runtime) Size() int { return r.size }

// NIC returns the underlying NIC model.
func (r *Runtime) NIC() *nic.NIC { return r.nic }

// CTAlloc allocates a counting event (PtlCTAlloc).
func (r *Runtime) CTAlloc() *CT {
	return &CT{ctr: sim.NewCounter(r.eng)}
}

// MDBind registers a local buffer (PtlMDBind). The CT, when non-nil,
// counts local completions of operations using this MD.
func (r *Runtime) MDBind(name string, length int64, data any, ct *CT) *MD {
	if length < 0 {
		panic("portals: negative MD length")
	}
	return &MD{Name: name, Length: length, Data: data, CT: ct}
}

// MEAppend exposes a match entry on this node (PtlMEAppend).
func (r *Runtime) MEAppend(me *ME) {
	region := &nic.Region{
		MatchBits:  me.MatchBits,
		OnDelivery: me.OnDelivery,
		ReadBack:   me.ReadBack,
	}
	if me.CT != nil {
		region.Counter = me.CT.Raw()
	}
	r.nic.ExposeRegion(region)
}

func (r *Runtime) buildPut(md *MD, size int64, target int, matchBits uint64) *nic.Command {
	if size < 0 || size > md.Length {
		panic(fmt.Sprintf("portals: put size %d exceeds MD %q length %d", size, md.Name, md.Length))
	}
	if target < 0 || target >= r.size || target == r.rank {
		panic(fmt.Sprintf("portals: invalid put target %d from rank %d", target, r.rank))
	}
	c := &nic.Command{
		Kind:      nic.OpPut,
		Target:    network.NodeID(target),
		MatchBits: matchBits,
		Size:      size,
		Data:      md.Data,
	}
	if md.CT != nil {
		c.LocalCompletion = md.CT.Raw()
	}
	return c
}

// Put performs a one-sided put of size bytes from md to the target rank's
// match entry (PtlPut). Asynchronous: completion is observed via the MD's
// CT (local) or the target ME's CT (remote).
func (r *Runtime) Put(p *sim.Proc, md *MD, size int64, target int, matchBits uint64) {
	r.nic.PostCommand(p, r.buildPut(md, size, target, matchBits))
}

// PutAsync performs a one-sided put without a calling process: the
// doorbell is rung fire-and-forget (the GDS front-end initiation path).
func (r *Runtime) PutAsync(md *MD, size int64, target int, matchBits uint64) {
	r.nic.RingDoorbell(r.buildPut(md, size, target, matchBits))
}

// Get performs a one-sided get of size bytes from the target rank's match
// entry into md (PtlGet). The fetched payload is stored into md.Data by
// onData when provided.
func (r *Runtime) Get(p *sim.Proc, md *MD, size int64, target int, matchBits uint64, onData func(any)) {
	if target < 0 || target >= r.size || target == r.rank {
		panic(fmt.Sprintf("portals: invalid get target %d", target))
	}
	c := &nic.Command{
		Kind:      nic.OpGet,
		Target:    network.NodeID(target),
		MatchBits: matchBits,
		Size:      size,
	}
	if md.CT != nil {
		c.LocalCompletion = md.CT.Raw()
	}
	if onData != nil {
		cc := c
		c.OnLocalComplete = func() { onData(cc.Data) }
	}
	r.nic.PostCommand(p, c)
}

// TriggeredPut is the classic Portals-4 triggered operation: the staged put
// launches when ct reaches threshold (PtlTriggeredPut). The NIC progresses
// it without host involvement.
func (r *Runtime) TriggeredPut(p *sim.Proc, md *MD, size int64, target int, matchBits uint64, ct *CT, threshold int64) {
	cmd := r.buildPut(md, size, target, matchBits)
	// Registration cost on the host, as for any command post.
	p.Sleep(50 * sim.Nanosecond)
	n := r.nic
	r.eng.Go(fmt.Sprintf("ptl.trigput.%d", r.rank), func(tp *sim.Proc) {
		ct.Wait(tp, threshold)
		n.PostCommandAsync(cmd)
	})
}

// TrigPut is the paper's GPU-TN registration call (Figure 6): stage a put
// on the NIC that fires when the trigger address receives `threshold`
// writes of `tag`. Under relaxed synchronization (§3.2) the GPU may write
// the tag before or after this call.
func (r *Runtime) TrigPut(p *sim.Proc, tag uint64, threshold int64, md *MD, size int64, target int, matchBits uint64) error {
	return r.nic.RegisterTriggered(p, tag, threshold, r.buildPut(md, size, target, matchBits))
}

// CancelTriggered withdraws staged triggered operations whose tag lies in
// [lo, hi) — PtlCTCancelTriggeredOps. An aborted workload (timeout,
// neighbor failure) must call this before its tags are abandoned, or its
// never-to-fire entries pin the NIC's small associative list. Returns the
// number of pending entries removed.
func (r *Runtime) CancelTriggered(p *sim.Proc, lo, hi uint64) int {
	return r.nic.CancelTriggered(p, lo, hi)
}

// GetTriggerAddr returns the NIC's memory-mapped trigger address, to be
// passed to GPU kernels as an argument (Figure 6 step 3).
func (r *Runtime) GetTriggerAddr() TriggerAddr {
	return TriggerAddr{n: r.nic}
}
