// Package config holds the simulated system configuration, mirroring
// Table 2 of the paper ("GPU-TN simulation configuration"), plus the GPU
// front-end scheduler presets used to regenerate Figure 1.
package config

import (
	"fmt"

	"repro/internal/sim"
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes int64
	Ways      int
	LineBytes int64
	Latency   sim.Time // hit latency
}

// CPUConfig mirrors the "CPU and Memory Configuration" block of Table 2:
// 8-wide OOO, 4 GHz, 8 cores.
type CPUConfig struct {
	Cores     int
	ClockGHz  float64
	IssueWide int
	L1D       CacheConfig
	L2        CacheConfig
	L3        CacheConfig
	// DRAM model: DDR4, 8 channels, 2133 MHz.
	DRAMLatency  sim.Time
	DRAMGBps     float64
	RuntimeCall  sim.Time // cost of a user/runtime API call (driver entry)
	SendOverhead sim.Time // software send/recv processing on the host
}

// GPUConfig mirrors the "GPU Configuration" block of Table 2: 1 GHz,
// 24 CUs, plus the calibrated 1.5 µs launch / 1.5 µs teardown latencies.
type GPUConfig struct {
	ComputeUnits   int
	ClockGHz       float64
	WavefrontSize  int
	MaxWGPerCU     int
	L1D            CacheConfig
	L1I            CacheConfig
	L2             CacheConfig
	KernelLaunch   sim.Time // front-end dispatch cost per kernel
	KernelTeardown sim.Time // context teardown cost per kernel
	// Memory-model operation costs (§4.2.6): system-scope operations
	// bypass the GPU caches and are substantially slower than the
	// work-group-scope defaults.
	FenceSystemScope  sim.Time // release/acquire fence to system scope
	AtomicSystemStore sim.Time // atomic store with all-svm-devices scope
	BarrierWorkGroup  sim.Time // hardware work-group barrier
}

// ReliabilityConfig describes the NIC's reliable-delivery layer: per-
// (src,dst) sequence numbers, cumulative ACK / NACK, and a sliding
// retransmit window with exponential backoff. Disabled by default so the
// Table 2 lossless configuration reproduces the paper's numbers
// bit-for-bit; fault-injection runs enable it to recover from loss without
// host involvement.
type ReliabilityConfig struct {
	Enabled bool
	// WindowSize bounds unacknowledged messages per (src,dst) channel;
	// further sends queue on the NIC.
	WindowSize int
	// RTOBase is the fixed part of the retransmission timeout.
	RTOBase sim.Time
	// RTOPerKB scales the timeout with message size (serialization slack).
	RTOPerKB sim.Time
	// MaxBackoff caps the exponentially backed-off timeout (0 = uncapped).
	MaxBackoff sim.Time
	// RetryBudget is the maximum transmission attempts per message; when
	// exhausted the peer is declared dead and its channel drained.
	RetryBudget int
	// AdaptiveRTO replaces the static size-scaled timeout with per-peer
	// Jacobson/Karels SRTT/RTTVAR estimation fed by NIC timestamp echoes
	// (each data frame carries its transmit time, echoed in the ACK, so
	// retransmission never produces an ambiguous sample). False keeps the
	// fixed RTOBase+RTOPerKB formula bit-for-bit (tested).
	AdaptiveRTO bool
	// MinRTO floors the adaptive timeout so a string of identical RTT
	// samples cannot collapse the timer onto the ACK arrival instant.
	// 0 defaults to 1 us. Ignored when AdaptiveRTO is false.
	MinRTO sim.Time
}

// DefaultReliability returns the reliable-delivery parameters used by the
// fault-tolerance experiments: a 32-message window, a 30 us + 400 ns/KB
// timeout doubling per attempt up to 500 us, and 64 attempts per message.
// The budget must absorb whole-frame loss: a 64 KB frame spans ~16 MTU
// packets, so at 10% per-packet drop an attempt survives only ~18% of the
// time and double-digit attempt counts are routine.
func DefaultReliability() ReliabilityConfig {
	return ReliabilityConfig{
		Enabled:     true,
		WindowSize:  32,
		RTOBase:     30 * sim.Microsecond,
		RTOPerKB:    400 * sim.Nanosecond,
		MaxBackoff:  500 * sim.Microsecond,
		RetryBudget: 64,
	}
}

// FaultConfig configures the deterministic fault-injection layer
// (internal/fault). The zero value injects nothing and costs nothing; any
// non-zero field arms the injector, which is seeded by Seed so the same
// configuration reproduces the same fault schedule and event trace.
type FaultConfig struct {
	// Seed seeds the injector's RNG.
	Seed int64
	// DropProb is the per-packet drop probability on the fabric.
	DropProb float64
	// CorruptProb is the per-packet corruption probability; a corrupted
	// packet marks its whole message corrupt (checksum failure at the
	// receiving NIC). Like gray-link loss, the draw is per MTU packet, so
	// the chance a multi-packet chunk arrives corrupt compounds across its
	// ceil(bytes/MTU) packets: 1-(1-p)^packets, the per-chunk rate
	// ablations should quote (e.g. 2% per packet over a 64KB/4KB chunk is
	// 1-(1-0.02)^16 ~ 28% per chunk).
	CorruptProb float64
	// DelayJitter adds a uniform random [0, DelayJitter] flight delay per
	// packet.
	DelayJitter sim.Time
	// FlapNode's links drop every packet during [FlapStart, FlapEnd).
	// The window is armed only when FlapEnd > FlapStart.
	FlapNode  int
	FlapStart sim.Time
	FlapEnd   sim.Time
	// CmdStallProb stalls the NIC command pipeline for CmdStallTime before
	// parsing a command, with the given probability.
	CmdStallProb float64
	CmdStallTime sim.Time
	// TrigDropProb loses a GPU trigger write on the MMIO path with the
	// given probability; TrigDelayJitter adds uniform random flight delay.
	TrigDropProb    float64
	TrigDelayJitter sim.Time
	// Partition schedules deterministic network partitions; the zero value
	// schedules nothing and is pay-for-use.
	Partition PartitionConfig
	// Degrade schedules deterministic link-degradation windows (gray
	// failures); the zero value schedules nothing and is pay-for-use.
	Degrade DegradeConfig
	// SDC schedules silent-data-corruption injection — corruption the link
	// checksum does NOT catch; the zero value schedules nothing and is
	// pay-for-use.
	SDC SDCConfig
	// Slow schedules deterministic fail-slow (straggler) windows; the zero
	// value schedules nothing and is pay-for-use.
	Slow SlowConfig
	// Switch schedules deterministic switch/trunk failures on the fat-tree
	// fabric; the zero value schedules nothing and is pay-for-use.
	Switch SwitchConfig
	// DebugDoubleFire seeds a known invariant violation for auditor
	// regression tests and chaos search: the first trigger-list fire on a
	// restarted incarnation launches its staged operation twice. Requires
	// a crash-restart scenario with post-restart triggered traffic to
	// manifest, which is what makes shrinking toward it meaningful.
	DebugDoubleFire bool
	// DebugStaleDeliver seeds the complementary violation: the first
	// inbound frame addressed to a previous incarnation of the receiver
	// is dispatched instead of epoch-fenced. Requires a crash-restart with
	// traffic in flight across the restart.
	DebugStaleDeliver bool
}

// Enabled reports whether any fault is armed.
func (f FaultConfig) Enabled() bool {
	return f.DropProb > 0 || f.CorruptProb > 0 || f.DelayJitter > 0 ||
		f.FlapEnd > f.FlapStart ||
		(f.CmdStallProb > 0 && f.CmdStallTime > 0) ||
		f.TrigDropProb > 0 || f.TrigDelayJitter > 0 ||
		f.Partition.Enabled() || f.Degrade.Enabled() || f.SDC.Enabled() ||
		f.Slow.Enabled() || f.Switch.Enabled() ||
		f.DebugDoubleFire || f.DebugStaleDeliver
}

// SDCConfig schedules deterministic silent-data-corruption injection:
// corruption the link-level checksum does not catch, so it reaches the
// application unless the end-to-end integrity layer (NICConfig.E2EChecksum,
// collective.RunVerified) detects it. Three corruption classes, each
// seed-reproducible and pay-for-use (the zero value draws no RNG and
// replays the seed trace bit-for-bit, tested):
//
//   - wire: each delivered packet silently flips payload bits with
//     probability WireProb, without setting the link Corrupt flag;
//   - buffer: node BufferNode's send buffer flips bits at rest between
//     compute and DMA with probability BufferProb per send;
//   - reducer: rank FaultyRank's reduction combines produce wrong values
//     during [FaultyFrom, FaultyUntil) — a "core that doesn't count".
type SDCConfig struct {
	// Seed seeds the SDC plan's private RNG; drawing SDC fates never
	// perturbs the main injector's stream.
	Seed int64
	// WireProb is the per-packet silent wire-corruption probability.
	WireProb float64
	// BufferNode selects the node whose send buffers corrupt at rest;
	// BufferProb is the per-send corruption probability.
	BufferNode int
	BufferProb float64
	// FaultyRank's reductions are wrong during [FaultyFrom, FaultyUntil);
	// the window is armed only when FaultyUntil > FaultyFrom.
	FaultyRank  int
	FaultyFrom  sim.Time
	FaultyUntil sim.Time
}

// Enabled reports whether any corruption class is armed.
func (s SDCConfig) Enabled() bool {
	return s.WireProb > 0 || s.BufferProb > 0 || s.FaultyUntil > s.FaultyFrom
}

func (s SDCConfig) validate() error {
	switch {
	case s.WireProb < 0 || s.WireProb > 1:
		return fmt.Errorf("config: Faults.SDC.WireProb = %v outside [0, 1]", s.WireProb)
	case s.BufferProb < 0 || s.BufferProb > 1:
		return fmt.Errorf("config: Faults.SDC.BufferProb = %v outside [0, 1]", s.BufferProb)
	case s.BufferProb > 0 && s.BufferNode < 0:
		return fmt.Errorf("config: Faults.SDC.BufferNode = %d", s.BufferNode)
	case s.FaultyUntil < s.FaultyFrom:
		return fmt.Errorf("config: Faults.SDC.FaultyUntil %v before FaultyFrom %v", s.FaultyUntil, s.FaultyFrom)
	case s.FaultyUntil > s.FaultyFrom && s.FaultyRank < 0:
		return fmt.Errorf("config: Faults.SDC.FaultyRank = %d", s.FaultyRank)
	}
	return nil
}

// SlowWindow schedules one fail-slow window on one node during [From,
// Until): the node keeps making progress — no verdict the fail-stop,
// partition, or integrity layers own applies — it is just slower, through
// up to three independent component classes:
//
//   - gpu: every WGCtx.Compute on the node is dilated by GPUFactor
//     (kernel clock throttling, thermal capping, a compute-hogging
//     co-tenant);
//   - nic: command parsing stretches by CmdFactor, and each command
//     additionally stalls for CmdStallTime with probability CmdStallProb
//     (a wedged firmware path, PCIe credit starvation) — stall fates draw
//     from the plan's private RNG, so arming them never perturbs the main
//     injector stream;
//   - dma: every DMA transfer (send-side staging and receive-side
//     delivery) stretches by DMAFactor (a degraded copy engine).
//
// A factor of 0 or 1 leaves that class untouched. The window is armed only
// when Until > From.
type SlowWindow struct {
	Node int
	From sim.Time
	// Until bounds the window; 0 with From 0 disarms it. Use a very large
	// Until for a persistent straggler.
	Until sim.Time
	// GPUFactor multiplies GPU compute time (≥ 1 to slow; 0/1 = off).
	GPUFactor float64
	// CmdFactor multiplies NIC command-parse latency (≥ 1 to slow).
	CmdFactor float64
	// CmdStallProb adds a CmdStallTime stall per NIC command with the
	// given probability (drawn from the plan's private RNG).
	CmdStallProb float64
	CmdStallTime sim.Time
	// DMAFactor multiplies DMA/copy transfer time (≥ 1 to slow).
	DMAFactor float64
}

// armed reports whether the window has a live time span.
func (w SlowWindow) armed() bool { return w.Until > w.From }

// SlowConfig schedules deterministic fail-slow injection (internal/fault's
// SlowPlan). The zero value schedules nothing and costs nothing: no RNG
// draws, no events, a bit-for-bit identical trace (tested) — the same
// pay-for-use contract as every other plan.
type SlowConfig struct {
	// Seed seeds the slow plan's private RNG (used only for CmdStallProb
	// draws inside armed windows).
	Seed int64
	// Windows lists the straggler windows; they may overlap on a node, in
	// which case factors multiply and stall draws accumulate.
	Windows []SlowWindow
}

// Enabled reports whether any straggler window is armed.
func (s SlowConfig) Enabled() bool {
	for _, w := range s.Windows {
		if w.armed() {
			return true
		}
	}
	return false
}

func (s SlowConfig) validate() error {
	for i, w := range s.Windows {
		switch {
		case w.Node < 0:
			return fmt.Errorf("config: Faults.Slow.Windows[%d].Node = %d", i, w.Node)
		case w.Until < w.From:
			return fmt.Errorf("config: Faults.Slow.Windows[%d].Until %v before From %v", i, w.Until, w.From)
		case w.GPUFactor < 0 || w.CmdFactor < 0 || w.DMAFactor < 0:
			return fmt.Errorf("config: Faults.Slow.Windows[%d] negative factor", i)
		case (w.GPUFactor > 0 && w.GPUFactor < 1) ||
			(w.CmdFactor > 0 && w.CmdFactor < 1) ||
			(w.DMAFactor > 0 && w.DMAFactor < 1):
			return fmt.Errorf("config: Faults.Slow.Windows[%d] factor in (0, 1) — fail-slow factors are >= 1 (0 or 1 = off)", i)
		case w.CmdStallProb < 0 || w.CmdStallProb > 1:
			return fmt.Errorf("config: Faults.Slow.Windows[%d].CmdStallProb = %v outside [0, 1]", i, w.CmdStallProb)
		case w.CmdStallTime < 0:
			return fmt.Errorf("config: Faults.Slow.Windows[%d].CmdStallTime = %v", i, w.CmdStallTime)
		}
	}
	return nil
}

// PartitionEvent schedules one deterministic network cut {A}|{B} starting
// at At: every packet from a node in A to a node in B (and, unless
// Asymmetric, from B to A) is blackholed at its fabric egress port. When
// HealAfter > 0 the cut heals at At+HealAfter; 0 means it never heals.
type PartitionEvent struct {
	// A is one side of the cut. B is the other; when B is empty it is the
	// complement of A (every node not in A).
	A  []int
	B  []int
	At sim.Time
	// HealAfter is the cut duration; 0 = never heals.
	HealAfter sim.Time
	// Asymmetric blackholes only the A-to-B direction: B's packets to A
	// still deliver — the gray-failure shape where heartbeats flow one way.
	Asymmetric bool
}

// PartitionConfig holds the deterministic partition schedule. The zero
// value schedules nothing and costs nothing: no RNG draws, no events, a
// bit-for-bit identical trace (tested).
type PartitionConfig struct {
	Events []PartitionEvent
}

// Enabled reports whether any partition is scheduled.
func (p PartitionConfig) Enabled() bool { return len(p.Events) > 0 }

func (p PartitionConfig) validate() error {
	for i, ev := range p.Events {
		if len(ev.A) == 0 {
			return fmt.Errorf("config: Faults.Partition.Events[%d]: side A is empty", i)
		}
		if ev.At <= 0 {
			return fmt.Errorf("config: Faults.Partition.Events[%d].At = %v (must be > 0)", i, ev.At)
		}
		if ev.HealAfter < 0 {
			return fmt.Errorf("config: Faults.Partition.Events[%d].HealAfter = %v", i, ev.HealAfter)
		}
		seen := map[int]bool{}
		for _, n := range ev.A {
			if n < 0 {
				return fmt.Errorf("config: Faults.Partition.Events[%d]: node %d in A", i, n)
			}
			seen[n] = true
		}
		for _, n := range ev.B {
			if n < 0 {
				return fmt.Errorf("config: Faults.Partition.Events[%d]: node %d in B", i, n)
			}
			if seen[n] {
				return fmt.Errorf("config: Faults.Partition.Events[%d]: node %d on both sides", i, n)
			}
		}
	}
	return nil
}

// DegradeWindow degrades one directed link (or a wildcard set of links)
// during [From, Until): flight latency is multiplied by LatencyFactor and
// packets are lost with probability up to LossProb. This is the gray-failure
// model — the link stays up, just slow and lossy.
type DegradeWindow struct {
	// Src and Dst select the directed link; -1 is a wildcard matching any
	// node, so {Src: 2, Dst: -1} degrades everything node 2 transmits.
	Src, Dst int
	// From and Until bound the window; it is armed only when Until > From.
	From, Until sim.Time
	// LatencyFactor multiplies per-packet flight latency (propagation +
	// switching) while the window is active. Values <= 1 add no delay.
	LatencyFactor float64
	// LossProb is the packet-loss probability while active. With Ramp the
	// loss ramps linearly from 0 at From up to LossProb at Until, modeling
	// a link that decays rather than steps.
	LossProb float64
	Ramp     bool
}

// Enabled reports whether this window can affect any packet.
func (w DegradeWindow) Enabled() bool {
	return w.Until > w.From && (w.LatencyFactor > 1 || w.LossProb > 0)
}

// DegradeConfig holds the deterministic link-degradation schedule. The zero
// value schedules nothing and costs nothing; RNG is drawn only for packets
// inside an armed window, so traces outside the windows are untouched.
type DegradeConfig struct {
	Windows []DegradeWindow
}

// Enabled reports whether any degradation window is armed.
func (d DegradeConfig) Enabled() bool {
	for _, w := range d.Windows {
		if w.Enabled() {
			return true
		}
	}
	return false
}

func (d DegradeConfig) validate() error {
	for i, w := range d.Windows {
		switch {
		case w.Src < -1 || w.Dst < -1:
			return fmt.Errorf("config: Faults.Degrade.Windows[%d]: src=%d dst=%d", i, w.Src, w.Dst)
		case w.Until < w.From:
			return fmt.Errorf("config: Faults.Degrade.Windows[%d]: Until %v before From %v", i, w.Until, w.From)
		case w.LossProb < 0 || w.LossProb > 1:
			return fmt.Errorf("config: Faults.Degrade.Windows[%d].LossProb = %v outside [0, 1]", i, w.LossProb)
		case w.LatencyFactor < 0:
			return fmt.Errorf("config: Faults.Degrade.Windows[%d].LatencyFactor = %v", i, w.LatencyFactor)
		}
	}
	return nil
}

// CrashEvent schedules one deterministic crash-stop: node Node dies at
// simulated time At, losing all NIC trigger-list, placeholder,
// command-queue, and reliable-layer state plus in-flight GPU kernels and
// bound processes. When RestartAfter > 0 the node restarts cold at
// At+RestartAfter under a new incarnation epoch; 0 means it never comes
// back.
type CrashEvent struct {
	Node         int
	At           sim.Time
	RestartAfter sim.Time
}

// CrashConfig holds the deterministic crash-stop/restart schedule. The zero
// value schedules nothing and costs nothing: without events no epochs ever
// advance and the event trace is bit-for-bit the crash-free one (tested).
type CrashConfig struct {
	Events []CrashEvent
}

// Enabled reports whether any crash is scheduled.
func (c CrashConfig) Enabled() bool { return len(c.Events) > 0 }

func (c CrashConfig) validate() error {
	for i, ev := range c.Events {
		switch {
		case ev.Node < 0:
			return fmt.Errorf("config: Crash.Events[%d].Node = %d", i, ev.Node)
		case ev.At <= 0:
			return fmt.Errorf("config: Crash.Events[%d].At = %v (must be > 0)", i, ev.At)
		case ev.RestartAfter < 0:
			return fmt.Errorf("config: Crash.Events[%d].RestartAfter = %v", i, ev.RestartAfter)
		}
	}
	return nil
}

// Switch tier names for SwitchEvent.Tier.
const (
	// SwitchTierLeaf names a leaf (top-of-rack) switch.
	SwitchTierLeaf = "leaf"
	// SwitchTierSpine names a pod-local spine switch (global index).
	SwitchTierSpine = "spine"
	// SwitchTierCore names a core switch.
	SwitchTierCore = "core"
	// SwitchTierTrunk names one inter-switch link, identified by its two
	// endpoint refs (A, B) like "leaf0"/"spine1".
	SwitchTierTrunk = "trunk"
)

// ParseSwitchRef splits a switch reference like "spine2" into its tier
// name and index. Only leaf/spine/core refs are valid (a trunk is a pair
// of refs, not a ref itself).
func ParseSwitchRef(ref string) (tier string, index int, err error) {
	for _, t := range []string{SwitchTierLeaf, SwitchTierSpine, SwitchTierCore} {
		if len(ref) > len(t) && ref[:len(t)] == t {
			idx := 0
			for _, c := range ref[len(t):] {
				if c < '0' || c > '9' {
					return "", 0, fmt.Errorf("config: bad switch ref %q", ref)
				}
				idx = idx*10 + int(c-'0')
			}
			return t, idx, nil
		}
	}
	return "", 0, fmt.Errorf("config: bad switch ref %q (want leaf<k>, spine<k>, or core<k>)", ref)
}

// SwitchEvent schedules one deterministic switch-domain failure on the
// fat-tree fabric: at At the named switch (Tier leaf/spine/core, Index)
// or trunk (Tier trunk, endpoints A and B) goes dark — every frame queued
// in or arriving at its ports is dropped with reason "switchdown" — and,
// when RestoreAfter > 0, comes back empty at At+RestoreAfter. Routing
// fails over deterministically to surviving paths; when none remain the
// affected messages are counted Unrouteable and surface in the watchdog
// diagnosis instead of hanging.
type SwitchEvent struct {
	// Tier is SwitchTierLeaf/Spine/Core (with Index) or SwitchTierTrunk
	// (with A and B endpoint refs).
	Tier  string
	Index int
	// A and B name the trunk endpoints, e.g. "leaf0" and "spine1"; used
	// only when Tier is SwitchTierTrunk. Order is irrelevant — both
	// directions of the link die.
	A, B string
	At   sim.Time
	// RestoreAfter is the outage duration; 0 = never restored.
	RestoreAfter sim.Time
}

// SwitchConfig holds the deterministic switch/trunk failure schedule. The
// zero value schedules nothing and costs nothing: no RNG draws, no
// events, a bit-for-bit identical trace (tested).
type SwitchConfig struct {
	Events []SwitchEvent
}

// Enabled reports whether any switch failure is scheduled.
func (s SwitchConfig) Enabled() bool { return len(s.Events) > 0 }

func (s SwitchConfig) validate() error {
	for i, ev := range s.Events {
		switch ev.Tier {
		case SwitchTierLeaf, SwitchTierSpine, SwitchTierCore:
			if ev.Index < 0 {
				return fmt.Errorf("config: Faults.Switch.Events[%d].Index = %d", i, ev.Index)
			}
		case SwitchTierTrunk:
			if _, _, err := ParseSwitchRef(ev.A); err != nil {
				return fmt.Errorf("config: Faults.Switch.Events[%d].A: %v", i, err)
			}
			if _, _, err := ParseSwitchRef(ev.B); err != nil {
				return fmt.Errorf("config: Faults.Switch.Events[%d].B: %v", i, err)
			}
		default:
			return fmt.Errorf("config: Faults.Switch.Events[%d].Tier = %q", i, ev.Tier)
		}
		if ev.At <= 0 {
			return fmt.Errorf("config: Faults.Switch.Events[%d].At = %v (must be > 0)", i, ev.At)
		}
		if ev.RestoreAfter < 0 {
			return fmt.Errorf("config: Faults.Switch.Events[%d].RestoreAfter = %v", i, ev.RestoreAfter)
		}
	}
	return nil
}

// HealthConfig configures heartbeat-based membership (internal/health):
// each node's CPU pre-registers triggered-op heartbeat Puts that a GPU
// counter tick fires (the paper's own mechanism), and silence beyond
// SuspectAfter marks a node suspect in the shared membership view. The zero
// value starts no agents and costs nothing.
type HealthConfig struct {
	Enabled bool
	// Period is the GPU tick interval driving heartbeat emission.
	Period sim.Time
	// SuspectAfter is the silence threshold before a node is suspected dead.
	SuspectAfter sim.Time
	// StabilizeDelay is how long the membership view must stay unchanged
	// before recovery drivers trust it for a reintegration attempt.
	StabilizeDelay sim.Time
	// QuarantineStrikes is how many independent corruption reports against
	// a node the membership tolerates before quarantining it (verdict
	// Quarantined, permanent: heartbeats cannot revive it). 0 = 3.
	QuarantineStrikes int
	// SlowDetect arms progress-based fail-slow detection: heartbeat
	// payloads carry progress watermarks (GPU tick count, NIC completion
	// counter), the membership sweep maintains a relative-progress EWMA
	// score per peer, and a peer whose score stays below SlowThreshold for
	// SlowGrace is declared Slow (verdict distinct from Suspect /
	// Partitioned / Quarantined: the peer is alive but off the fast path).
	// Off by default — scoring never runs and traces stay bit-for-bit
	// identical to the detection-free seed.
	SlowDetect bool
	// SlowThreshold is the EWMA relative-progress score below which a peer
	// is straggling (1.0 = full speed). 0 = 0.5.
	SlowThreshold float64
	// SlowRecover is the score a Slow peer must regain before the verdict
	// lifts (hysteresis: must exceed SlowThreshold). 0 = 0.8.
	SlowRecover float64
	// SlowGrace is how long the score must stay below SlowThreshold before
	// the Slow verdict lands — transient jitter never flaps. 0 = 2×Period.
	SlowGrace sim.Time
}

// EffectiveSlowThreshold returns the armed Slow entry score (default 0.5).
func (h HealthConfig) EffectiveSlowThreshold() float64 {
	if h.SlowThreshold > 0 {
		return h.SlowThreshold
	}
	return 0.5
}

// EffectiveSlowRecover returns the armed Slow exit score (default 0.8).
func (h HealthConfig) EffectiveSlowRecover() float64 {
	if h.SlowRecover > 0 {
		return h.SlowRecover
	}
	return 0.8
}

// EffectiveSlowGrace returns the armed verdict grace period (default
// 2×Period).
func (h HealthConfig) EffectiveSlowGrace() sim.Time {
	if h.SlowGrace > 0 {
		return h.SlowGrace
	}
	return 2 * h.Period
}

// EffectiveQuarantineStrikes returns the armed strike budget (default 3).
func (h HealthConfig) EffectiveQuarantineStrikes() int {
	if h.QuarantineStrikes > 0 {
		return h.QuarantineStrikes
	}
	return 3
}

// DefaultHealth returns the heartbeat parameters used by the crash-recovery
// experiments: a 10 us GPU tick, suspicion after 40 us of silence, and a
// 60 us view-stability window before reintegration attempts.
func DefaultHealth() HealthConfig {
	return HealthConfig{
		Enabled:        true,
		Period:         10 * sim.Microsecond,
		SuspectAfter:   40 * sim.Microsecond,
		StabilizeDelay: 60 * sim.Microsecond,
	}
}

// Validate checks the heartbeat timing parameters. Exported because
// internal/health validates configurations handed to it directly.
func (h HealthConfig) Validate() error {
	if !h.Enabled {
		return nil
	}
	switch {
	case h.Period <= 0:
		return fmt.Errorf("config: Health.Period = %v", h.Period)
	case h.SuspectAfter <= h.Period:
		return fmt.Errorf("config: Health.SuspectAfter = %v must exceed Period = %v", h.SuspectAfter, h.Period)
	case h.StabilizeDelay <= 0:
		return fmt.Errorf("config: Health.StabilizeDelay = %v", h.StabilizeDelay)
	case h.QuarantineStrikes < 0:
		return fmt.Errorf("config: Health.QuarantineStrikes = %d", h.QuarantineStrikes)
	case h.SlowThreshold < 0 || h.SlowThreshold > 1:
		return fmt.Errorf("config: Health.SlowThreshold = %v outside [0, 1]", h.SlowThreshold)
	case h.SlowRecover < 0 || h.SlowRecover > 1:
		return fmt.Errorf("config: Health.SlowRecover = %v outside [0, 1]", h.SlowRecover)
	case h.SlowGrace < 0:
		return fmt.Errorf("config: Health.SlowGrace = %v", h.SlowGrace)
	case h.SlowDetect && h.EffectiveSlowRecover() <= h.EffectiveSlowThreshold():
		return fmt.Errorf("config: Health.SlowRecover = %v must exceed SlowThreshold = %v (hysteresis)",
			h.EffectiveSlowRecover(), h.EffectiveSlowThreshold())
	}
	return nil
}

// ResourceConfig bounds the NIC's finite structures — the paper is explicit
// that "the trigger list can be held in a small amount of NIC memory", so a
// robust model must degrade gracefully (typed errors, flow control, drop
// counters) when pre-registered state outruns capacity instead of growing
// silently. Every field is pay-for-use: the zero value reproduces the seed
// behavior bit-for-bit (tested), with MaxTriggerEntries remaining the only
// trigger-list bound and every queue unbounded.
type ResourceConfig struct {
	// TriggerEntries caps simultaneously active trigger-list entries.
	// 0 falls back to NICConfig.MaxTriggerEntries (the seed behavior).
	TriggerEntries int
	// PlaceholderEntries separately caps relaxed-sync placeholder entries
	// (§3.2) inside the trigger list, so a burst of early tag writes cannot
	// evict capacity needed by host registrations. 0 = no separate cap;
	// placeholders compete with registrations for the whole list.
	PlaceholderEntries int
	// CmdQueueDepth bounds the NIC command queue. A full queue applies
	// backpressure: host posts block on the doorbell until a slot frees,
	// and NIC-internal pushes (trigger fires, pre-posted doorbells) are
	// deferred in arrival order. Commands are never dropped. 0 = unbounded.
	CmdQueueDepth int
}

// Enabled reports whether any capacity bound is armed.
func (r ResourceConfig) Enabled() bool {
	return r.TriggerEntries > 0 || r.PlaceholderEntries > 0 || r.CmdQueueDepth > 0
}

// NICConfig describes the RDMA NIC and the GPU-TN trigger hardware.
type NICConfig struct {
	// DoorbellLatency is the MMIO write cost from an agent to the NIC.
	DoorbellLatency sim.Time
	// CommandLatency is the time to parse and start a posted command.
	CommandLatency sim.Time
	// DMAStartup is the fixed cost to begin a DMA of the payload.
	DMAStartup sim.Time
	// DMAGBps is host-memory read/write bandwidth for payload DMA.
	DMAGBps float64
	// TriggerMatchLatency is the trigger-list lookup cost per tag write
	// with the associative-lookup optimization (§3.3).
	TriggerMatchLatency sim.Time
	// TriggerFIFODepth bounds buffered trigger writes (0 = unbounded).
	TriggerFIFODepth int
	// MaxTriggerEntries caps simultaneously active trigger entries for the
	// associative lookup; the paper's prototype uses 16.
	MaxTriggerEntries int
	// CompletionWriteLatency is the cost of the NIC writing a local
	// completion flag (§4.2.4) into host/GPU-visible memory.
	CompletionWriteLatency sim.Time
	// Reliability configures the NIC-level reliable-delivery layer.
	Reliability ReliabilityConfig
	// E2EChecksum arms the end-to-end payload checksum: a CRC32C over the
	// message body computed at the source before trigger-fire, carried in
	// the frame, and verified at the destination after reassembly —
	// distinct from the link checksum, so it catches corruption the link
	// CRC passes (device-buffer flips, DMA errors). Failures NACK for
	// retransmission and count an SDC strike against the sender. Off by
	// default: the zero value adds no latency and no trace changes.
	E2EChecksum bool
	// E2EChecksumLatency is the modeled per-message cost of computing or
	// verifying the payload checksum (0 = free); only drawn when
	// E2EChecksum is armed, so the ablation can price the overhead.
	E2EChecksumLatency sim.Time
	// Resources bounds the NIC's finite structures; the zero value keeps
	// the unbounded seed behavior.
	Resources ResourceConfig
}

// Topology names for NetworkConfig.Topology.
const (
	// TopologyStar is the paper's single-switch star (Table 2).
	TopologyStar = "star"
	// TopologyFatTree is the three-tier leaf/spine/core fat-tree with
	// per-hop flow control and switch failure domains.
	TopologyFatTree = "fattree"
)

// NetworkConfig mirrors the "Network Configuration" block of Table 2.
type NetworkConfig struct {
	LinkLatency   sim.Time // 100 ns per link
	SwitchLatency sim.Time // 100 ns through the switch
	BandwidthGbps float64  // 100 Gb/s
	MTUBytes      int64    // packetization unit
	// Topology selects the interconnect: TopologyStar (default, the
	// paper's configuration) or TopologyFatTree.
	Topology string
	// FatTree shapes the TopologyFatTree fabric; the zero value takes the
	// WithDefaults layout and is pay-for-use (ignored unless Topology is
	// TopologyFatTree).
	FatTree TopologyConfig
}

// TopologyConfig shapes the fat-tree fabric: nodes attach to leaf
// switches, PodLeaves leaves plus Spines pod-local spine switches form a
// pod, and Cores core switches join the pods. Routing is up/down ECMP:
// same-leaf traffic turns at the leaf, intra-pod traffic at a pod spine,
// cross-pod traffic at a core. The zero value is pay-for-use — with
// Topology unset or TopologyStar it draws nothing and changes nothing
// (tested bit-for-bit against the star seed trace).
type TopologyConfig struct {
	// LeafSize is the number of nodes per leaf switch. 0 = 4.
	LeafSize int
	// PodLeaves is the number of leaf switches per pod. 0 = 2.
	PodLeaves int
	// Spines is the number of spine switches per pod — the intra-pod ECMP
	// width, and the pod's redundancy against a spine kill. 0 = 2.
	Spines int
	// Cores is the number of core switches joining the pods — the
	// cross-pod ECMP width. 0 = Spines.
	Cores int
	// QueueCredits bounds each switch transmit port to that many frames
	// queued-or-in-service; a sender hop blocks (backpressure, never drop)
	// until a credit frees. 0 = unbounded, the seed behavior.
	QueueCredits int
	// ECNThreshold marks a frame's message when it enqueues on a port
	// already holding that many frames; the receiving NIC echoes the mark
	// in its ACK and the sender's adaptive RTO backs off. 0 = never mark.
	ECNThreshold int
}

// WithDefaults returns the topology with zero fields replaced by the
// default k=4-ish layout (4 nodes/leaf, 2 leaves/pod, 2 spines/pod,
// cores = spines).
func (t TopologyConfig) WithDefaults() TopologyConfig {
	if t.LeafSize <= 0 {
		t.LeafSize = 4
	}
	if t.PodLeaves <= 0 {
		t.PodLeaves = 2
	}
	if t.Spines <= 0 {
		t.Spines = 2
	}
	if t.Cores <= 0 {
		t.Cores = t.Spines
	}
	return t
}

// Leaves returns the number of leaf switches needed for n nodes.
func (t TopologyConfig) Leaves(n int) int {
	t = t.WithDefaults()
	return (n + t.LeafSize - 1) / t.LeafSize
}

// Pods returns the number of pods needed for n nodes.
func (t TopologyConfig) Pods(n int) int {
	t = t.WithDefaults()
	return (t.Leaves(n) + t.PodLeaves - 1) / t.PodLeaves
}

// LeafOf returns the leaf switch index of a node.
func (t TopologyConfig) LeafOf(node int) int {
	return node / t.WithDefaults().LeafSize
}

// PodOf returns the pod index of a node.
func (t TopologyConfig) PodOf(node int) int {
	t = t.WithDefaults()
	return t.LeafOf(node) / t.PodLeaves
}

// PodNodes returns the nodes of pod p among n total, in ascending order.
func (t TopologyConfig) PodNodes(p, n int) []int {
	t = t.WithDefaults()
	per := t.LeafSize * t.PodLeaves
	var nodes []int
	for i := p * per; i < (p+1)*per && i < n; i++ {
		nodes = append(nodes, i)
	}
	return nodes
}

func (t TopologyConfig) validate() error {
	switch {
	case t.LeafSize < 0:
		return fmt.Errorf("config: Network.FatTree.LeafSize = %d", t.LeafSize)
	case t.PodLeaves < 0:
		return fmt.Errorf("config: Network.FatTree.PodLeaves = %d", t.PodLeaves)
	case t.Spines < 0:
		return fmt.Errorf("config: Network.FatTree.Spines = %d", t.Spines)
	case t.Cores < 0:
		return fmt.Errorf("config: Network.FatTree.Cores = %d", t.Cores)
	case t.QueueCredits < 0:
		return fmt.Errorf("config: Network.FatTree.QueueCredits = %d", t.QueueCredits)
	case t.ECNThreshold < 0:
		return fmt.Errorf("config: Network.FatTree.ECNThreshold = %d", t.ECNThreshold)
	case t.QueueCredits > 0 && t.ECNThreshold > t.QueueCredits:
		return fmt.Errorf("config: Network.FatTree.ECNThreshold = %d exceeds QueueCredits = %d",
			t.ECNThreshold, t.QueueCredits)
	}
	return nil
}

// SystemConfig aggregates a full node + fabric configuration.
type SystemConfig struct {
	Name    string
	CPU     CPUConfig
	GPU     GPUConfig
	NIC     NICConfig
	Network NetworkConfig
	// DiscreteGPU, when true, adds an IO-bus hop (PCIe-like) between
	// CPU/GPU/NIC interactions instead of the coherent-APU default (§5.1).
	DiscreteGPU  bool
	IOBusLatency sim.Time
	// Faults arms the deterministic fault-injection layer; the zero value
	// is fault-free and pay-for-use.
	Faults FaultConfig
	// Crash schedules deterministic node crash-stop/restart events; the
	// zero value schedules nothing and is pay-for-use.
	Crash CrashConfig
	// Health starts heartbeat-based membership agents; the zero value
	// starts nothing and is pay-for-use.
	Health HealthConfig
	// Scenario composes the single-class fault plans into one correlated
	// timeline over named failure domains; the zero value composes nothing
	// and is pay-for-use. Expansion happens once, before plans are built
	// (fault.Scenario.Apply), so each sub-plan keeps its private RNG
	// stream.
	Scenario ScenarioConfig
	// Shards selects how many engines a run's nodes are split over. Every
	// node runs on its own event lane; 0 (the default) and 1 both mean one
	// engine, and N ≥ 2 round-robins nodes over N engines synchronized by
	// bounded-window lookahead. Every value prints the same results: only
	// wall time changes. Features that need one global event order (health
	// membership, crash schedules, fat-tree topology) force the effective
	// engine count to 1 regardless.
	Shards int
}

// Default returns the Table 2 configuration used for all headline results.
func Default() SystemConfig {
	return SystemConfig{
		Name: "table2",
		CPU: CPUConfig{
			Cores:        8,
			ClockGHz:     4,
			IssueWide:    8,
			L1D:          CacheConfig{SizeBytes: 64 << 10, Ways: 2, LineBytes: 64, Latency: cycles(2, 4)},
			L2:           CacheConfig{SizeBytes: 2 << 20, Ways: 8, LineBytes: 64, Latency: cycles(4, 4)},
			L3:           CacheConfig{SizeBytes: 16 << 20, Ways: 16, LineBytes: 64, Latency: cycles(20, 4)},
			DRAMLatency:  80 * sim.Nanosecond,
			DRAMGBps:     8 * 17.0, // DDR4-2133 x 8 channels
			RuntimeCall:  250 * sim.Nanosecond,
			SendOverhead: 300 * sim.Nanosecond,
		},
		GPU: GPUConfig{
			ComputeUnits:      24,
			ClockGHz:          1,
			WavefrontSize:     64,
			MaxWGPerCU:        8,
			L1D:               CacheConfig{SizeBytes: 16 << 10, Ways: 16, LineBytes: 64, Latency: cycles(25, 1)},
			L1I:               CacheConfig{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, Latency: cycles(25, 1)},
			L2:                CacheConfig{SizeBytes: 768 << 10, Ways: 16, LineBytes: 64, Latency: cycles(150, 1)},
			KernelLaunch:      1500 * sim.Nanosecond,
			KernelTeardown:    1500 * sim.Nanosecond,
			FenceSystemScope:  120 * sim.Nanosecond,
			AtomicSystemStore: 60 * sim.Nanosecond,
			BarrierWorkGroup:  20 * sim.Nanosecond,
		},
		NIC: NICConfig{
			DoorbellLatency: 40 * sim.Nanosecond,
			CommandLatency:  50 * sim.Nanosecond,
			DMAStartup:      60 * sim.Nanosecond,
			DMAGBps:         50,
			// The associative lookup matches one trigger write per NIC
			// clock or two: §3.3 requires "absorbing triggers from
			// potentially thousands of GPU threads in quick succession".
			TriggerMatchLatency:    2 * sim.Nanosecond,
			TriggerFIFODepth:       0,
			MaxTriggerEntries:      16,
			CompletionWriteLatency: 30 * sim.Nanosecond,
		},
		Network: NetworkConfig{
			LinkLatency:   100 * sim.Nanosecond,
			SwitchLatency: 100 * sim.Nanosecond,
			BandwidthGbps: 100,
			MTUBytes:      4096,
		},
	}
}

// cycles converts a cycle count at a clock in GHz to simulated time.
func cycles(n int, ghz float64) sim.Time {
	return sim.Nanoseconds(float64(n) / ghz)
}

// Validate performs basic sanity checks; experiment drivers call it after
// mutating a preset.
func (c *SystemConfig) Validate() error {
	switch {
	case c.CPU.Cores <= 0:
		return fmt.Errorf("config: CPU.Cores = %d", c.CPU.Cores)
	case c.GPU.ComputeUnits <= 0:
		return fmt.Errorf("config: GPU.ComputeUnits = %d", c.GPU.ComputeUnits)
	case c.GPU.WavefrontSize <= 0:
		return fmt.Errorf("config: GPU.WavefrontSize = %d", c.GPU.WavefrontSize)
	case c.Network.BandwidthGbps <= 0:
		return fmt.Errorf("config: Network.BandwidthGbps = %v", c.Network.BandwidthGbps)
	case c.Network.MTUBytes <= 0:
		return fmt.Errorf("config: Network.MTUBytes = %d", c.Network.MTUBytes)
	case c.Network.Topology != "" && c.Network.Topology != TopologyStar &&
		c.Network.Topology != TopologyFatTree:
		return fmt.Errorf("config: unknown topology %q", c.Network.Topology)
	case c.Faults.Switch.Enabled() && c.Network.Topology != TopologyFatTree:
		return fmt.Errorf("config: Faults.Switch events require Network.Topology = %q", TopologyFatTree)
	case c.NIC.MaxTriggerEntries <= 0:
		return fmt.Errorf("config: NIC.MaxTriggerEntries = %d", c.NIC.MaxTriggerEntries)
	case c.DiscreteGPU && c.IOBusLatency <= 0:
		return fmt.Errorf("config: DiscreteGPU requires IOBusLatency > 0")
	case c.NIC.E2EChecksumLatency < 0:
		return fmt.Errorf("config: NIC.E2EChecksumLatency = %v", c.NIC.E2EChecksumLatency)
	case c.Shards < 0:
		return fmt.Errorf("config: Shards = %d", c.Shards)
	case c.Shards > 0 && c.Network.LinkLatency+c.Network.SwitchLatency <= 0:
		return fmt.Errorf("config: sharding requires a positive cross-node latency (LinkLatency+SwitchLatency)")
	case c.Shards > 0 && c.Network.Topology == TopologyFatTree && c.Network.LinkLatency <= 0:
		// The fat-tree's final ingress hop pays propagation only, so its
		// cross-node lookahead is LinkLatency alone.
		return fmt.Errorf("config: sharding a fat-tree requires LinkLatency > 0")
	}
	if err := c.Network.FatTree.validate(); err != nil {
		return err
	}
	if err := c.NIC.Reliability.validate(); err != nil {
		return err
	}
	if err := c.NIC.Resources.validate(); err != nil {
		return err
	}
	if err := c.Crash.validate(); err != nil {
		return err
	}
	if err := c.Health.Validate(); err != nil {
		return err
	}
	if err := c.Scenario.validate(); err != nil {
		return err
	}
	return c.Faults.validate()
}

func (r ResourceConfig) validate() error {
	switch {
	case r.TriggerEntries < 0:
		return fmt.Errorf("config: Resources.TriggerEntries = %d", r.TriggerEntries)
	case r.PlaceholderEntries < 0:
		return fmt.Errorf("config: Resources.PlaceholderEntries = %d", r.PlaceholderEntries)
	case r.CmdQueueDepth < 0:
		return fmt.Errorf("config: Resources.CmdQueueDepth = %d", r.CmdQueueDepth)
	case r.PlaceholderEntries > 0 && r.TriggerEntries > 0 && r.PlaceholderEntries > r.TriggerEntries:
		return fmt.Errorf("config: Resources.PlaceholderEntries = %d exceeds TriggerEntries = %d",
			r.PlaceholderEntries, r.TriggerEntries)
	}
	return nil
}

func (r ReliabilityConfig) validate() error {
	if !r.Enabled {
		return nil
	}
	switch {
	case r.WindowSize <= 0:
		return fmt.Errorf("config: Reliability.WindowSize = %d", r.WindowSize)
	case r.RTOBase <= 0:
		return fmt.Errorf("config: Reliability.RTOBase = %v", r.RTOBase)
	case r.RTOPerKB < 0:
		return fmt.Errorf("config: Reliability.RTOPerKB = %v", r.RTOPerKB)
	case r.RetryBudget <= 0:
		return fmt.Errorf("config: Reliability.RetryBudget = %d", r.RetryBudget)
	case r.MinRTO < 0:
		return fmt.Errorf("config: Reliability.MinRTO = %v", r.MinRTO)
	}
	return nil
}

func (f FaultConfig) validate() error {
	prob := func(name string, p float64) error {
		if p < 0 || p > 1 {
			return fmt.Errorf("config: Faults.%s = %v outside [0, 1]", name, p)
		}
		return nil
	}
	if err := prob("DropProb", f.DropProb); err != nil {
		return err
	}
	if err := prob("CorruptProb", f.CorruptProb); err != nil {
		return err
	}
	if err := prob("CmdStallProb", f.CmdStallProb); err != nil {
		return err
	}
	if err := prob("TrigDropProb", f.TrigDropProb); err != nil {
		return err
	}
	switch {
	case f.DelayJitter < 0:
		return fmt.Errorf("config: Faults.DelayJitter = %v", f.DelayJitter)
	case f.TrigDelayJitter < 0:
		return fmt.Errorf("config: Faults.TrigDelayJitter = %v", f.TrigDelayJitter)
	case f.CmdStallTime < 0:
		return fmt.Errorf("config: Faults.CmdStallTime = %v", f.CmdStallTime)
	case f.FlapEnd > f.FlapStart && f.FlapNode < 0:
		return fmt.Errorf("config: Faults.FlapNode = %d", f.FlapNode)
	}
	if err := f.Partition.validate(); err != nil {
		return err
	}
	if err := f.Degrade.validate(); err != nil {
		return err
	}
	if err := f.SDC.validate(); err != nil {
		return err
	}
	if err := f.Switch.validate(); err != nil {
		return err
	}
	return f.Slow.validate()
}

// SchedulerPreset models one GPU front-end hardware scheduler for the
// Figure 1 launch-latency study. Launch latency depends on how many kernel
// commands are exposed to the scheduler at once: with a deep queue the
// scheduler pipelines dispatch (amortizing per-command work), while a
// shallow queue pays full serialization each time.
type SchedulerPreset struct {
	Name string
	// BaseLatency is the un-pipelined cost of launching one kernel.
	BaseLatency sim.Time
	// PipelinedLatency is the asymptotic per-kernel cost with a full queue.
	PipelinedLatency sim.Time
	// PipelineDepth is the queue depth at which amortization saturates.
	PipelineDepth int
	// QueueScanPerCmd adds cost per queued command for schedulers whose
	// dispatch logic scans the queue (observed as *rising* latency with
	// depth on some devices in Figure 1).
	QueueScanPerCmd sim.Time
}

// Figure1Presets returns three anonymized GPU presets ("GPU 1..3")
// qualitatively matching Figure 1: latencies between 3 µs and 20 µs, with
// different shapes versus queue depth.
func Figure1Presets() []SchedulerPreset {
	return []SchedulerPreset{
		{
			// Discrete flagship: expensive single launch, amortizes well.
			Name:             "GPU 1",
			BaseLatency:      20 * sim.Microsecond,
			PipelinedLatency: 7 * sim.Microsecond,
			PipelineDepth:    64,
		},
		{
			// Mid-range: moderate base cost, mild queue-scan growth.
			Name:             "GPU 2",
			BaseLatency:      9 * sim.Microsecond,
			PipelinedLatency: 5 * sim.Microsecond,
			PipelineDepth:    16,
			QueueScanPerCmd:  8 * sim.Nanosecond,
		},
		{
			// Integrated APU: best case ~3-4 µs, nearly flat.
			Name:             "GPU 3",
			BaseLatency:      4 * sim.Microsecond,
			PipelinedLatency: 3 * sim.Microsecond,
			PipelineDepth:    8,
		},
	}
}

// LaunchLatency returns the per-kernel launch latency this scheduler
// exhibits when presented with queued kernel commands at the given depth.
func (s SchedulerPreset) LaunchLatency(queued int) sim.Time {
	if queued < 1 {
		queued = 1
	}
	depth := s.PipelineDepth
	if depth < 1 {
		depth = 1
	}
	frac := float64(queued-1) / float64(depth)
	if frac > 1 {
		frac = 1
	}
	lat := sim.Time(float64(s.BaseLatency) - frac*float64(s.BaseLatency-s.PipelinedLatency))
	lat += sim.Time(queued) * s.QueueScanPerCmd
	return lat
}
