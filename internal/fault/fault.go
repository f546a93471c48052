// Package fault is the deterministic fault-injection subsystem: a single
// seeded Injector threaded through the fabric and the NICs that decides,
// per packet / trigger write / command, whether to drop, corrupt, delay,
// or stall. Each node draws from its own seeded stream, and a node's
// events run in a deterministic order on its engine lane, so the same
// seed and configuration always reproduce the same fault schedule and
// therefore the same event trace, at any engine count.
//
// The zero-valued config disables every fault, and a nil *Injector is a
// valid no-op receiver, so the hot paths stay byte-identical to the
// fault-free model when injection is off (pay-for-use).
package fault

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/sim"
)

// PacketFate is the injector's verdict for one packet at its egress point.
type PacketFate struct {
	// Drop discards the packet; the owning message is lost.
	Drop bool
	// Corrupt flags the message as corrupted; receivers without a
	// reliability layer discard it, receivers with one NACK it.
	Corrupt bool
	// Delay is extra flight time added to the packet (jitter).
	Delay sim.Time
	// DelayFactor, when > 1, multiplies the packet's base flight latency
	// (propagation + switching) before Delay is added — the link-degradation
	// verdict. 0 and 1 both mean "no scaling".
	DelayFactor float64
}

// Stats counts injected faults.
type Stats struct {
	PacketsDropped   int64
	FlapDrops        int64 // subset of PacketsDropped due to link flaps
	PartitionDrops   int64 // subset of PacketsDropped blackholed by a cut
	DegradeDrops     int64 // subset of PacketsDropped lost inside a degradation window
	PacketsCorrupted int64
	PacketsDelayed   int64
	DegradeSlowed    int64 // packets whose flight was stretched by a degradation window
	TriggerDrops     int64
	TriggerDelays    int64
	CommandStalls    int64
}

// Injector makes all fault decisions for one cluster. Its methods are
// nil-safe: a nil receiver returns the zero (fault-free) verdict, so model
// code calls them unconditionally. Every random verdict draws from the
// deciding node's own stream (see nodeStreams).
type Injector struct {
	cfg  config.FaultConfig
	plan *PartitionPlan
	sdc  *SDCPlan
	slow *SlowPlan
	nodeStreams[Stats]
}

func (a Stats) plus(b Stats) Stats {
	a.PacketsDropped += b.PacketsDropped
	a.FlapDrops += b.FlapDrops
	a.PartitionDrops += b.PartitionDrops
	a.DegradeDrops += b.DegradeDrops
	a.PacketsCorrupted += b.PacketsCorrupted
	a.PacketsDelayed += b.PacketsDelayed
	a.DegradeSlowed += b.DegradeSlowed
	a.TriggerDrops += b.TriggerDrops
	a.TriggerDelays += b.TriggerDelays
	a.CommandStalls += b.CommandStalls
	return a
}

// NewInjector builds an injector for an enabled fault configuration over
// an n-node cluster. It returns nil when the configuration injects nothing,
// which keeps the fault-free hot paths allocation- and event-free.
func NewInjector(cfg config.FaultConfig, n int) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{
		cfg:         cfg,
		plan:        NewPartitionPlan(cfg.Partition),
		sdc:         NewSDCPlan(cfg.SDC, n),
		slow:        NewSlowPlan(cfg.Slow, n),
		nodeStreams: newNodeStreams[Stats](cfg.Seed, n),
	}
}

// Partitions returns the compiled partition schedule (nil for nil or when
// none is configured); the watchdog reads it to name unhealed cuts.
func (in *Injector) Partitions() *PartitionPlan {
	if in == nil {
		return nil
	}
	return in.plan
}

// SDC returns the compiled silent-data-corruption plan (nil for nil or
// when none is configured); NICs and collectives consult it directly.
func (in *Injector) SDC() *SDCPlan {
	if in == nil {
		return nil
	}
	return in.sdc
}

// Slow returns the compiled fail-slow plan (nil for nil or when none is
// configured); GPUs and NICs consult it directly.
func (in *Injector) Slow() *SlowPlan {
	if in == nil {
		return nil
	}
	return in.slow
}

// Stats returns a snapshot of the injected-fault counters summed over
// every node. Read between runs, not from concurrent model code.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return in.total()
}

// Config returns the injector's configuration (zero for nil).
func (in *Injector) Config() config.FaultConfig {
	if in == nil {
		return config.FaultConfig{}
	}
	return in.cfg
}

// Packet decides the fate of one packet from src to dst at simulated time
// now. The RNG-free verdicts come first — flap windows, then partition
// blackholes — so arming them never shifts the stream of random draws.
// Then, in a fixed order: degradation loss/latency (drawn only for packets
// inside an armed window), drop, corruption, and jitter.
func (in *Injector) Packet(now sim.Time, src, dst int) PacketFate {
	if in == nil {
		return PacketFate{}
	}
	// Packet verdicts are drawn at the source's egress, so they attribute
	// to src.
	c, rng, st := &in.cfg, in.r(src), in.st(src)
	if c.FlapEnd > c.FlapStart && now >= c.FlapStart && now < c.FlapEnd &&
		(src == c.FlapNode || dst == c.FlapNode) {
		st.PacketsDropped++
		st.FlapDrops++
		return PacketFate{Drop: true}
	}
	if in.plan.Blackholed(now, src, dst) {
		st.PacketsDropped++
		st.PartitionDrops++
		return PacketFate{Drop: true}
	}
	var f PacketFate
	for i := range c.Degrade.Windows {
		w := &c.Degrade.Windows[i]
		if !degradeMatch(w, now, src, dst) {
			continue
		}
		if loss := degradeLoss(w, now); loss > 0 && rng.Float64() < loss {
			st.PacketsDropped++
			st.DegradeDrops++
			return PacketFate{Drop: true}
		}
		if w.LatencyFactor > f.DelayFactor {
			f.DelayFactor = w.LatencyFactor
		}
	}
	if f.DelayFactor > 1 {
		st.DegradeSlowed++
	}
	if c.DropProb > 0 && rng.Float64() < c.DropProb {
		st.PacketsDropped++
		f.Drop = true
		return f
	}
	if c.CorruptProb > 0 && rng.Float64() < c.CorruptProb {
		st.PacketsCorrupted++
		f.Corrupt = true
	}
	if c.DelayJitter > 0 {
		f.Delay = sim.Time(rng.Int63n(int64(c.DelayJitter) + 1))
		if f.Delay > 0 {
			st.PacketsDelayed++
		}
	}
	return f
}

// TriggerFault decides whether a GPU trigger write to the given node's NIC
// is lost on the MMIO path, and how much extra flight delay it suffers.
func (in *Injector) TriggerFault(node int) (drop bool, delay sim.Time) {
	if in == nil {
		return false, 0
	}
	c, rng, st := &in.cfg, in.r(node), in.st(node)
	if c.TrigDropProb > 0 && rng.Float64() < c.TrigDropProb {
		st.TriggerDrops++
		return true, 0
	}
	if c.TrigDelayJitter > 0 {
		delay = sim.Time(rng.Int63n(int64(c.TrigDelayJitter) + 1))
		if delay > 0 {
			st.TriggerDelays++
		}
	}
	return false, delay
}

// CommandStall returns a stall duration for the given node's NIC command
// pipeline before it parses its next command (0 = no stall).
func (in *Injector) CommandStall(node int) sim.Time {
	if in == nil {
		return 0
	}
	c := &in.cfg
	if c.CmdStallProb > 0 && c.CmdStallTime > 0 && in.r(node).Float64() < c.CmdStallProb {
		in.st(node).CommandStalls++
		return c.CmdStallTime
	}
	return 0
}

// Summary renders a one-line human-readable description of the active
// fault schedule (used by run headers).
func (in *Injector) Summary() string {
	if in == nil {
		return "faults: none"
	}
	c := &in.cfg
	s := fmt.Sprintf("faults: seed=%d drop=%.2f%% corrupt=%.2f%% jitter=%v",
		c.Seed, 100*c.DropProb, 100*c.CorruptProb, c.DelayJitter)
	if c.FlapEnd > c.FlapStart {
		s += fmt.Sprintf(" flap[node %d %v..%v]", c.FlapNode, c.FlapStart, c.FlapEnd)
	}
	if c.CmdStallProb > 0 {
		s += fmt.Sprintf(" cmd-stall=%.2f%%x%v", 100*c.CmdStallProb, c.CmdStallTime)
	}
	if c.TrigDropProb > 0 || c.TrigDelayJitter > 0 {
		s += fmt.Sprintf(" trig[drop=%.2f%% jitter=%v]", 100*c.TrigDropProb, c.TrigDelayJitter)
	}
	if in.plan != nil {
		s += " " + in.plan.Summary()
	}
	if ds := degradeSummary(c.Degrade); ds != "" {
		s += " " + ds
	}
	if in.sdc != nil {
		s += " " + in.sdc.Summary()
	}
	if in.slow != nil {
		s += " " + in.slow.Summary()
	}
	return s
}
