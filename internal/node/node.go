// Package node composes the simulated subsystems — host CPU, GPU, RDMA NIC
// with GPU-TN trigger hardware, and the Portals-style runtime — into nodes,
// and wires nodes into a cluster over the star or fat-tree fabric.
package node

import (
	"fmt"
	"strings"

	"repro/internal/audit"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/memsys"
	"repro/internal/network"
	"repro/internal/nic"
	"repro/internal/portals"
	"repro/internal/sim"
)

// Node is one compute node: a coherent APU (CPU+GPU sharing system memory,
// §5.1) attached to an RDMA NIC.
type Node struct {
	Index int
	Eng   *sim.Engine
	// Lane is the node's event lane: Index+1, with 0 reserved as the
	// ambient lane. Every event the node's processes schedule carries it,
	// so the node's event order is the same on any engine count.
	Lane uint32

	CPU *cpu.CPU
	GPU *gpu.GPU
	NIC *nic.NIC
	Ptl *portals.Runtime

	HostMem *memsys.Hierarchy
	GPUMem  *memsys.Hierarchy

	// procs are the simulation processes bound to this node's current
	// incarnation (spawned via Node.Go or registered with Bind); a crash
	// kills them all.
	procs []*sim.Proc
	// onRestart hooks run after the node comes back up — services
	// (heartbeat agents, recovery drivers) use them to re-establish state
	// on the fresh incarnation.
	onRestart []func(nd *Node)
}

// Go spawns a process bound to this node: it dies with the node on Crash.
// Experiment code that models software running *on* a node (rank loops,
// progress threads) should use this instead of Eng.Go so crashes take it
// down realistically.
func (nd *Node) Go(name string, fn func(p *sim.Proc)) *sim.Proc {
	p := nd.Eng.GoLane(nd.Lane, fmt.Sprintf("n%d.%s", nd.Index, name), fn)
	nd.Bind(p)
	return p
}

// Bind registers an externally spawned process as belonging to this node,
// so it is killed on Crash.
func (nd *Node) Bind(p *sim.Proc) {
	if len(nd.procs) >= 64 {
		keep := nd.procs[:0]
		for _, q := range nd.procs {
			if !q.Dead() {
				keep = append(keep, q)
			}
		}
		nd.procs = keep
	}
	nd.procs = append(nd.procs, p)
}

// OnRestart registers a hook invoked (in registration order) each time the
// node restarts after a crash.
func (nd *Node) OnRestart(fn func(nd *Node)) {
	nd.onRestart = append(nd.onRestart, fn)
}

// Down reports whether the node is crashed and not yet restarted.
func (nd *Node) Down() bool { return nd.NIC.Down() }

// Crash crash-stops the node at the current instant: every bound process
// is killed, the GPU loses its in-flight kernels and queue, and the NIC
// goes down losing trigger-list, placeholder, command-queue, and
// reliable-delivery state (see nic.Crash). Idempotent while down.
func (nd *Node) Crash() {
	if nd.NIC.Down() {
		return
	}
	for _, p := range nd.procs {
		nd.Eng.Kill(p)
	}
	nd.procs = nd.procs[:0]
	nd.GPU.Reset()
	nd.NIC.Crash()
}

// Restart brings a crashed node back cold under a new incarnation epoch.
// The caller (normally the cluster's crash plan) is responsible for
// announcing the epoch to peers; registered OnRestart hooks then rebuild
// software state on the fresh incarnation.
func (nd *Node) Restart() {
	if !nd.NIC.Down() {
		return
	}
	nd.NIC.Restart()
	for _, fn := range nd.onRestart {
		fn(nd)
	}
}

// Cluster is a set of nodes on one fabric.
type Cluster struct {
	// Eng is the primary engine — shard 0, and the only engine unless the
	// cluster is split (cfg.Shards ≥ 2). Ambient (non-node) work runs here.
	Eng *sim.Engine
	// Engines holds every engine, indexed by shard; Engines[0] == Eng.
	Engines []*sim.Engine
	// Sharded drives Engines: straight through when there is one, in
	// deterministic bounded-window lockstep otherwise. Never nil.
	Sharded *sim.Sharded
	Cfg     config.SystemConfig
	Fabric  *network.Fabric
	Nodes   []*Node
	// Injector is the cluster-wide fault injector; nil when cfg.Faults is
	// zero-valued (the lossless default).
	Injector *fault.Injector
	// Plan is the armed crash-stop/restart schedule; nil when cfg.Crash is
	// zero-valued (no crashes).
	Plan *fault.CrashPlan
	// SwitchPlan is the armed switch/trunk failure schedule; nil when
	// cfg.Faults.Switch is zero-valued (no switch failures).
	SwitchPlan *fault.SwitchPlan
	// Scenario is the composed correlated-failure scenario that was expanded
	// into the fault plans above; nil when cfg.Scenario is zero-valued.
	Scenario *fault.Scenario
	// Audit is the always-on invariant auditor threaded through the NIC,
	// fabric, health, and collective hot paths. Never nil.
	Audit *audit.Auditor

	// collectiveGen counts recover-family collective runs launched on this
	// cluster (see NextCollectiveGen).
	collectiveGen int64
	// quiescent records whether the last drive drained the event queues
	// completely (Run, not RunUntil) — the precondition for the auditor's
	// message-conservation reconciliation.
	quiescent bool
}

// NextCollectiveGen returns the next collective run generation, starting
// at 1. Recover-family runs (RunRecoverable / RunVerified / RunHedged)
// salt their landing regions and trigger tags with it so a repeat run on
// the same cluster never collides with state leaked by a predecessor —
// an aborted attempt's runner can stage its ring long after the attempt
// was abandoned (e.g. a straggler pinned in a dilated kernel), leaving
// entries the earlier run's own cleanup pass never saw.
func (c *Cluster) NextCollectiveGen() int64 {
	c.collectiveGen++
	return c.collectiveGen
}

// serialRequired reports whether the configuration uses a feature that
// needs one global event order. Heartbeat membership and crash schedules
// mutate cross-node state through direct calls, not fabric messages, and
// the fat-tree's switch ports are shared by every node pair, so none of
// them can be split across engines. A cluster with such a feature runs on
// a single engine regardless of cfg.Shards, which keeps every shard count
// trivially identical.
func serialRequired(cfg *config.SystemConfig) bool {
	return cfg.Health.Enabled || cfg.Crash.Enabled() ||
		cfg.Network.Topology == config.TopologyFatTree
}

// NewCluster builds an n-node cluster from the configuration. The
// configuration is validated; experiment drivers pass mutated presets.
// The topology is selected by cfg.Network.Topology: the Table 2 star by
// default, or the fat-tree shaped by cfg.Network.FatTree.
func NewCluster(cfg config.SystemConfig, n int) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("node: %v", err))
	}
	if n < 1 {
		panic("node: cluster needs at least one node")
	}
	// Compose the correlated-failure scenario (if any) into the crash,
	// partition, degrade, and slow schedules BEFORE any plan or engine-layout
	// decision reads the config: an expanded crash schedule must flip
	// serialRequired exactly as a hand-written one would.
	scen, serr := fault.ApplyScenario(&cfg, n)
	if serr != nil {
		panic(fmt.Sprintf("node: %v", serr))
	}
	// Engine layout: node i runs on event lane i+1 (lane 0 is the ambient
	// lane), and nodes are round-robined over min(Shards, n) engines — one
	// engine when Shards ≤ 1 or a serial-required feature is armed.
	nshards := 1
	if cfg.Shards > 1 && !serialRequired(&cfg) {
		nshards = min(cfg.Shards, n)
	}
	engines := make([]*sim.Engine, nshards)
	for k := range engines {
		engines[k] = sim.NewEngine()
	}
	eng := engines[0]
	sharded := sim.NewSharded(engines, network.Lookahead(cfg.Network))
	engOf := func(i int) *sim.Engine { return engines[i%nshards] }
	laneOf := func(i int) uint32 { return uint32(i + 1) }

	fab := network.New(eng, cfg.Network, n)
	engTab := make([]*sim.Engine, n)
	laneTab := make([]uint32, n)
	for i := 0; i < n; i++ {
		engTab[i], laneTab[i] = engOf(i), laneOf(i)
	}
	fab.SetSharding(sharded, engTab, laneTab)
	// Fault verdicts are drawn on the deciding node's engine, so every
	// verdict stream and counter is per-node.
	inj := fault.NewInjector(cfg.Faults, n)
	fab.SetInjector(inj)
	au := audit.New(n)
	if cfg.Network.Topology == config.TopologyFatTree {
		au.RegisterHops(fab.SwitchCount())
	}
	fab.SetAuditor(au)
	c := &Cluster{Eng: eng, Engines: engines, Sharded: sharded, Cfg: cfg, Fabric: fab, Injector: inj, Scenario: scen, Audit: au}
	for i := 0; i < n; i++ {
		e := engOf(i)
		// Bracket construction with the node's lane: the NIC's service
		// processes and any setup events spawned here must be born on (and
		// execute under) the node's lane, not the ambient one.
		e.SetLane(laneOf(i))
		hostMem := memsys.FromCPU(cfg.CPU)
		gpuMem := memsys.FromGPU(cfg.GPU, cfg.CPU)
		nc := nic.New(e, cfg.NIC, network.NodeID(i), fab)
		nc.SetInjector(inj)
		nc.SetAuditor(au)
		if cfg.DiscreteGPU {
			nc.SetIOBusLatency(cfg.IOBusLatency)
		}
		nd := &Node{
			Index:   i,
			Eng:     e,
			Lane:    laneOf(i),
			CPU:     cpu.New(e, cfg.CPU, hostMem),
			GPU:     gpu.New(e, cfg.GPU, gpuMem),
			NIC:     nc,
			Ptl:     portals.Init(e, nc, i, n),
			HostMem: hostMem,
			GPUMem:  gpuMem,
		}
		if slow := inj.Slow(); slow.AffectsGPU(i) {
			// Fail-slow GPU class: dilate every Compute on this node at the
			// work-group's local time. The hook is installed once and
			// survives GPU.Reset — a restarted straggler is still a
			// straggler until its window closes.
			idx := i
			nd.GPU.SetDilation(func(now, d sim.Time) sim.Time {
				return slow.GPUDilate(now, idx, d)
			})
		}
		c.Nodes = append(c.Nodes, nd)
		e.SetLane(0)
	}
	if plan := fault.NewCrashPlan(cfg.Crash); plan != nil {
		c.Plan = plan
		plan.Arm(eng, c.CrashNode, c.RestartNode)
	}
	if plan := fault.NewSwitchPlan(cfg.Faults.Switch); plan != nil {
		// Validate() rejects switch events off the fat-tree.
		c.SwitchPlan = plan
		plan.Arm(eng, fab.KillSwitch, fab.RestoreSwitch, fab.KillTrunk, fab.RestoreTrunk)
	}
	return c
}

// CrashNode crash-stops one node and propagates link-down to every
// surviving peer: their reliability layers declare the node dead with
// reason PeerDeadCrash immediately, so blocked collectives abort instead
// of burning retry budgets.
func (c *Cluster) CrashNode(i int) {
	nd := c.Nodes[i]
	if nd.Down() {
		return
	}
	nd.Crash()
	for _, other := range c.Nodes {
		if other.Index != i && !other.NIC.Down() {
			other.NIC.MarkPeerCrashed(network.NodeID(i))
		}
	}
}

// RestartNode restarts a crashed node cold: the NIC comes back under a new
// incarnation epoch, which is announced to every peer (stopping stale
// retransmits against the dead incarnation), and OnRestart hooks rebuild
// the node's software state.
func (c *Cluster) RestartNode(i int) {
	nd := c.Nodes[i]
	if !nd.Down() {
		return
	}
	nd.Restart()
	for _, other := range c.Nodes {
		if other.Index != i {
			nd.NIC.AnnounceEpoch(network.NodeID(other.Index))
		}
	}
}

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.Nodes) }

// Run drives the simulation until the event queues drain.
func (c *Cluster) Run() {
	c.Sharded.Run()
	c.quiescent = true
}

// RunUntil drives the simulation to the deadline. Messages legitimately
// stranded in flight at the cutoff exempt the run from the auditor's full
// conservation reconciliation (over-delivery is still checked).
func (c *Cluster) RunUntil(t sim.Time) {
	c.Sharded.RunUntil(t)
	c.quiescent = false
}

// GoRank spawns the driver process for one rank's software, pinned to the
// rank's engine and lane. Collective and workload drivers must use it (or
// Node.Go) rather than Eng.Go, so a sharded cluster runs each rank's loop on
// the engine owning its node.
func (c *Cluster) GoRank(i int, name string, fn func(p *sim.Proc)) *sim.Proc {
	nd := c.Nodes[i]
	return nd.Eng.GoLane(nd.Lane, name, fn)
}

// Diagnose builds a hang diagnosis after a run that left ranks incomplete:
// the engine's blocked waiters plus every node's starved trigger entries.
// It returns nil when the simulation shows no evidence of a hang.
func (c *Cluster) Diagnose() *sim.HangError {
	var starved []sim.StarvedTrigger
	var crashed []sim.CrashedNode
	for _, nd := range c.Nodes {
		if nd.NIC.Down() {
			// A crashed-and-never-restarted node is its own hang cause; its
			// trigger list died with it, so it contributes no starved entries.
			crashed = append(crashed, sim.CrashedNode{Node: nd.Index, At: nd.NIC.DownSince()})
			continue
		}
		starved = append(starved, nd.NIC.StarvedTriggers()...)
	}
	he := sim.DiagnoseAll(c.Engines, starved)
	if he != nil {
		he.Crashed = crashed
		he.Partitions = c.unhealedPartitions()
		if total := c.Fabric.Unrouteable(); total > 0 {
			for _, s := range c.Fabric.UnroutedSamples() {
				he.Unrouteable = append(he.Unrouteable, sim.Unrouteable{
					Src: int(s.Src), Dst: int(s.Dst), At: s.At, Reason: s.Reason, Drops: total,
				})
			}
		}
		if len(he.Starved) == 0 && len(crashed) == 0 {
			// Nothing starved, nothing crashed: the stall pattern of a
			// fail-slow rank. Name the up node with the least NIC progress
			// as the suspect.
			for _, nd := range c.Nodes {
				wm := nd.NIC.Stats().CommandsExecuted
				if he.MinProgress == nil || wm < he.MinProgress.Watermark {
					he.MinProgress = &sim.RankProgress{Rank: nd.Index, Watermark: wm}
				}
			}
		}
	}
	return he
}

// unhealedPartitions converts the injector's still-in-force, never-healing
// cuts into the watchdog's sim-local type (sim cannot import fault). An
// empty B side in the schedule means "everyone else"; the diagnosis
// materializes it so the error names both sides.
func (c *Cluster) unhealedPartitions() []sim.UnhealedPartition {
	var out []sim.UnhealedPartition
	for _, u := range c.Injector.Partitions().Unhealed(c.Eng.Now()) {
		b := u.B
		if len(b) == 0 {
			inA := make(map[int]bool, len(u.A))
			for _, n := range u.A {
				inA[n] = true
			}
			for i := range c.Nodes {
				if !inA[i] {
					b = append(b, i)
				}
			}
		}
		out = append(out, sim.UnhealedPartition{A: u.A, B: b, At: u.At, Asymmetric: u.Asymmetric})
	}
	return out
}

// StatsReport renders a per-node dump of the observability counters
// (gem5-style end-of-run statistics): NIC command/trigger activity, GPU
// dispatches, and fabric byte counts.
func (c *Cluster) StatsReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster statistics @ %v\n", c.Eng.Now())
	for _, nd := range c.Nodes {
		ns := nd.NIC.Stats()
		fmt.Fprintf(&b, "node %2d: kernels=%d nic{cmds=%d trigW=%d fires=%d dyn=%d placeholders=%d immediate=%d dropped=%d trigHW=%d} net{sent=%dB recv=%dB msgs=%d}\n",
			nd.Index, nd.GPU.KernelsLaunched(),
			ns.CommandsExecuted, ns.TriggerWrites, ns.TriggerFires, ns.DynamicFires,
			ns.PlaceholdersMade, ns.ImmediateFires, ns.DroppedTriggers, ns.TriggerListHighWater,
			c.Fabric.BytesSent(network.NodeID(nd.Index)),
			c.Fabric.BytesDelivered(network.NodeID(nd.Index)),
			c.Fabric.MessagesDelivered(network.NodeID(nd.Index)))
		if ns.CmdQueueStalls+ns.CmdDeferred+ns.RegistrationRejects > 0 {
			fmt.Fprintf(&b, "         res{cmdStalls=%d cmdDeferred=%d rejects=%d cmdqHW=%d fifoHW=%d placeholderHW=%d}\n",
				ns.CmdQueueStalls, ns.CmdDeferred, ns.RegistrationRejects,
				ns.CmdQueueHighWater, ns.TrigFIFOHighWater, ns.PlaceholderHighWater)
		}
		if ns.Retransmits+ns.AcksSent+ns.NacksSent+ns.DupesDropped+ns.CorruptDropped+ns.PeersDeclaredDead+ns.LostTriggerWrites > 0 {
			fmt.Fprintf(&b, "         rel{retx=%d acks=%d nacks=%d dupes=%d corrupt=%d peersDead=%d lostTrig=%d}\n",
				ns.Retransmits, ns.AcksSent, ns.NacksSent, ns.DupesDropped,
				ns.CorruptDropped, ns.PeersDeclaredDead, ns.LostTriggerWrites)
		}
		if ns.PeersDeclaredPartitioned+ns.PeersHealed+ns.SessionResets+ns.StaleSessionDrops > 0 {
			fmt.Fprintf(&b, "         part{peersPart=%d healed=%d sessResets=%d staleSess=%d rttSamples=%d}\n",
				ns.PeersDeclaredPartitioned, ns.PeersHealed, ns.SessionResets, ns.StaleSessionDrops, ns.RTTSamples)
		}
		if ns.Crashes+ns.Restarts+ns.DownDrops+ns.StaleSrcDrops+ns.StaleDstDrops+ns.EpochResets+
			ns.FencedCommands+ns.FencedTriggers+ns.FencedDeliveries+ns.PeersDeclaredCrashed > 0 {
			fmt.Fprintf(&b, "         crash{crashes=%d restarts=%d inc=%d downDrops=%d staleSrc=%d staleDst=%d epochResets=%d fencedCmds=%d fencedTrig=%d fencedDeliv=%d peersCrashed=%d}\n",
				ns.Crashes, ns.Restarts, nd.NIC.Incarnation(), ns.DownDrops, ns.StaleSrcDrops, ns.StaleDstDrops,
				ns.EpochResets, ns.FencedCommands, ns.FencedTriggers, ns.FencedDeliveries, ns.PeersDeclaredCrashed)
		}
		if ns.E2EChecksumFails+ns.SDCDetected+ns.SDCUndetected+ns.PeersDeclaredCorrupt > 0 {
			fmt.Fprintf(&b, "         integ{e2eFails=%d sdcDetected=%d sdcEscaped=%d peersQuarantined=%d linkCorrupt=%d}\n",
				ns.E2EChecksumFails, ns.SDCDetected, ns.SDCUndetected, ns.PeersDeclaredCorrupt, ns.CorruptDropped)
		}
		if ns.SlowCmdStretched+ns.SlowCmdStalls+ns.SlowDMAStretched+ns.PeersDeclaredSlow+ns.SlowRecoveries+ns.HedgedSends > 0 {
			fmt.Fprintf(&b, "         slow{cmdStretch=%d cmdStalls=%d dmaStretch=%d peersSlow=%d recovered=%d hedged=%d maxSlowdown=%.2fx}\n",
				ns.SlowCmdStretched, ns.SlowCmdStalls, ns.SlowDMAStretched,
				ns.PeersDeclaredSlow, ns.SlowRecoveries, ns.HedgedSends,
				float64(ns.MaxSlowdownSeen)/100)
		}
		if ns.ECNMarksSeen+ns.ECNEchoed+ns.ECNBackoffs > 0 {
			fmt.Fprintf(&b, "         ecn{marksSeen=%d echoed=%d backoffs=%d}\n",
				ns.ECNMarksSeen, ns.ECNEchoed, ns.ECNBackoffs)
		}
	}
	if c.Scenario != nil {
		fmt.Fprintf(&b, "%s\n", c.Scenario.Summary())
	}
	if c.Plan != nil {
		fmt.Fprintf(&b, "%s\n", c.Plan.Summary())
	}
	if c.SwitchPlan != nil {
		fmt.Fprintf(&b, "%s\n", c.SwitchPlan.Summary())
	}
	if c.Cfg.Network.Topology == config.TopologyFatTree {
		fmt.Fprintf(&b, "fattree: switchDrops=%d ecnMarks=%d unrouteable=%d\n",
			c.Fabric.SwitchDrops(), c.Fabric.ECNMarks(), c.Fabric.Unrouteable())
	}
	if c.Injector != nil {
		fs := c.Injector.Stats()
		fmt.Fprintf(&b, "%s\n", c.Injector.Summary())
		fmt.Fprintf(&b, "injected: pktDrop=%d (flap=%d) corrupt=%d delayed=%d trigDrop=%d trigDelay=%d cmdStall=%d; fabric lostMsgs=%d\n",
			fs.PacketsDropped, fs.FlapDrops, fs.PacketsCorrupted, fs.PacketsDelayed,
			fs.TriggerDrops, fs.TriggerDelays, fs.CommandStalls, c.Fabric.MessagesLost())
		if fs.PartitionDrops+fs.DegradeDrops+fs.DegradeSlowed > 0 {
			fmt.Fprintf(&b, "degraded: partDrop=%d degradeDrop=%d degradeSlow=%d\n",
				fs.PartitionDrops, fs.DegradeDrops, fs.DegradeSlowed)
		}
		if ss := c.Injector.SDC().Stats(); ss.Total() > 0 {
			fmt.Fprintf(&b, "sdc injected: wire=%d buffer=%d reducer=%d\n",
				ss.WireCorruptions, ss.BufferCorruptions, ss.ReducerCorruptions)
		}
		if ws := c.Injector.Slow().Stats(); ws.Total() > 0 {
			fmt.Fprintf(&b, "slow injected: gpuDilations=%d cmdStretched=%d cmdStalls=%d dmaStretched=%d\n",
				ws.GPUDilations, ws.CmdStretched, ws.CmdStalls, ws.DMAStretched)
		}
	}
	c.Audit.Finish(c.Eng.Now(), c.quiescent)
	fmt.Fprintf(&b, "%s\n", c.Audit.Report())
	return b.String()
}
