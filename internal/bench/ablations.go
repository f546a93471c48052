package bench

import (
	"fmt"
	"strings"

	"repro/internal/backends"
	"repro/internal/collective"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/nic"
	"repro/internal/node"
	"repro/internal/portals"
	"repro/internal/sim"
	"repro/internal/workloads/jacobi"
)

// AblationRelaxedSync quantifies §3.2: with relaxed synchronization the
// host's network post overlaps the kernel launch; with strict ordering the
// launch waits for the post. Returns end-to-end target latency for both.
// postDelay is how long the host-side posting work takes (e.g. when the
// runtime is busy managing other connections).
func AblationRelaxedSync(cfg config.SystemConfig, postDelay sim.Time) (relaxed, strict sim.Time) {
	// Micro-rig: drives both nodes' components from ambient driver
	// procs and waits directly on the remote counting event — remote-state
	// coupling outside the fabric, so it measures on one engine
	// regardless of -shards (output stays shard-count invariant).
	cfg.Shards = 0
	run := func(overlap bool) sim.Time {
		c := node.NewCluster(cfg, 2)
		n0, n1 := c.Nodes[0], c.Nodes[1]
		recvCT := n1.Ptl.CTAlloc()
		n1.Ptl.MEAppend(&portals.ME{MatchBits: microMatchBits, Length: 64, CT: recvCT})
		var done sim.Time
		c.Eng.Go("host", func(p *sim.Proc) {
			host := core.NewHost(c.Eng, n0.Ptl, n0.GPU)
			md := n0.Ptl.MDBind("buf", 64, nil, nil)
			trig := host.GetTriggerAddr()
			kern := &gpu.Kernel{
				Name: "k", WorkGroups: 1,
				Body: func(wg *gpu.WGCtx) {
					wg.Compute(microCopyTime)
					core.TriggerKernel(wg, trig, 1)
				},
			}
			register := func() {
				p.Sleep(postDelay) // serial posting work
				if err := host.TrigPut(p, 1, 1, md, 64, 1, microMatchBits); err != nil {
					panic(err)
				}
			}
			if overlap {
				host.LaunchKern(kern) // launch first; post overlaps (§3.2)
				register()
				kern.Wait(p)
			} else {
				register() // strict: post must precede launch
				host.LaunchKernSync(p, kern)
			}
			recvCT.Wait(p, 1)
			done = p.Now()
		})
		c.Run()
		return done
	}
	both := parallelMap(2, func(i int) sim.Time { return run(i == 0) })
	return both[0], both[1]
}

// AblationGranularity measures sending puts from one kernel at each
// granularity of §4.2, returning total completion time per scheme.
// Work-item triggering pays a system-scope store per item; work-group and
// mixed pay one per group; kernel-level sends a single message. Note that
// work-item granularity needs one trigger entry per work-item — far beyond
// the prototype's 16-entry associative list — so this ablation grows the
// trigger list to fit, which is itself part of the finding.
func AblationGranularity(cfg config.SystemConfig, workGroups, wgSize int) map[core.Granularity]sim.Time {
	// Micro-rig: drives both nodes' components from ambient driver
	// procs and waits directly on the remote counting event — remote-state
	// coupling outside the fabric, so it measures on one engine
	// regardless of -shards (output stays shard-count invariant).
	cfg.Shards = 0
	cfg.NIC.MaxTriggerEntries = workGroups*wgSize + 4
	grans := []core.Granularity{core.WorkItem, core.WorkGroup, core.KernelLevel, core.Mixed}
	durs := parallelMap(len(grans), func(gi int) sim.Time {
		g := grans[gi]
		c := node.NewCluster(cfg, 2)
		n0, n1 := c.Nodes[0], c.Nodes[1]
		recvCT := n1.Ptl.CTAlloc()
		n1.Ptl.MEAppend(&portals.ME{MatchBits: microMatchBits, Length: 64, CT: recvCT})
		regs, err := core.Plan(g, 1, workGroups, wgSize, 2)
		if err != nil {
			panic(err)
		}
		var done sim.Time
		gg := g
		c.Eng.Go("host", func(p *sim.Proc) {
			host := core.NewHost(c.Eng, n0.Ptl, n0.GPU)
			md := n0.Ptl.MDBind("buf", 64, nil, nil)
			if err := host.TrigPutPlan(p, regs, md, 64, 1, microMatchBits); err != nil {
				panic(err)
			}
			trig := host.GetTriggerAddr()
			host.LaunchKernSync(p, &gpu.Kernel{
				Name: "k", WorkGroups: workGroups, WGSize: wgSize,
				Body: func(wg *gpu.WGCtx) {
					wg.Compute(100 * sim.Nanosecond)
					switch gg {
					case core.WorkItem:
						core.TriggerWorkItem(wg, trig, 1)
					case core.WorkGroup:
						core.TriggerWorkGroup(wg, trig, 1)
					case core.KernelLevel:
						core.TriggerKernel(wg, trig, 1)
					case core.Mixed:
						core.TriggerMixed(wg, trig, 1, 2)
					}
				},
			})
			recvCT.Wait(p, int64(len(regs)))
			done = p.Now()
		})
		c.Run()
		return done
	})
	out := map[core.Granularity]sim.Time{}
	for gi, g := range grans {
		out[g] = durs[gi]
	}
	return out
}

// AblationTriggerLookup compares the trigger-list lookup hardware of §3.3
// under a burst of trigger writes from many work-groups: the associative
// CAM, a hash table, and the naive linked list.
func AblationTriggerLookup(cfg config.SystemConfig, writes int) map[string]sim.Time {
	// Micro-rig: drives both nodes' components from ambient driver
	// procs and waits directly on the remote counting event — remote-state
	// coupling outside the fabric, so it measures on one engine
	// regardless of -shards (output stays shard-count invariant).
	cfg.Shards = 0
	models := []nic.LookupModel{
		nic.AssociativeLookup{Latency: cfg.NIC.TriggerMatchLatency},
		nic.HashLookup{Latency: cfg.NIC.TriggerMatchLatency * 3 / 2},
		nic.LinkedListLookup{PerEntry: cfg.NIC.TriggerMatchLatency},
	}
	durs := parallelMap(len(models), func(mi int) sim.Time {
		m := models[mi]
		c := node.NewCluster(cfg, 2)
		n0, n1 := c.Nodes[0], c.Nodes[1]
		n0.NIC.SetLookupModel(m)
		recvCT := n1.Ptl.CTAlloc()
		n1.Ptl.MEAppend(&portals.ME{MatchBits: microMatchBits, Length: 64, CT: recvCT})
		var done sim.Time
		c.Eng.Go("host", func(p *sim.Proc) {
			// Fill the trigger list to near capacity so position matters,
			// with the hot tag last.
			md := n0.Ptl.MDBind("buf", 64, nil, nil)
			for i := 0; i < cfg.NIC.MaxTriggerEntries-1; i++ {
				if err := n0.Ptl.TrigPut(p, uint64(1000+i), 1<<40, md, 64, 1, microMatchBits); err != nil {
					panic(err)
				}
			}
			if err := n0.Ptl.TrigPut(p, 7, int64(writes), md, 64, 1, microMatchBits); err != nil {
				panic(err)
			}
			trig := n0.Ptl.GetTriggerAddr()
			for i := 0; i < writes; i++ {
				trig.Write(7)
			}
			recvCT.Wait(p, 1)
			done = p.Now()
		})
		c.Run()
		return done
	})
	out := map[string]sim.Time{}
	for mi, m := range models {
		out[m.Name()] = durs[mi]
	}
	return out
}

// AblationKernelOverhead re-runs the Figure 8 microbenchmark with scaled
// kernel launch/teardown costs (Figure 1 shows 3-20 us across devices) and
// reports GPU-TN's speedup over HDN and GDS at each point: the benefit
// grows with scheduler cost.
func AblationKernelOverhead(cfg config.SystemConfig, scales []float64) map[float64][2]float64 {
	rows := parallelMap(len(scales), func(si int) [2]float64 {
		c := cfg
		c.GPU.KernelLaunch = sim.Time(float64(cfg.GPU.KernelLaunch) * scales[si])
		c.GPU.KernelTeardown = sim.Time(float64(cfg.GPU.KernelTeardown) * scales[si])
		r := Figure8(c)
		return [2]float64{r.SpeedupVs(backends.HDN), r.SpeedupVs(backends.GDS)}
	})
	out := map[float64][2]float64{}
	for si, s := range scales {
		out[s] = rows[si]
	}
	return out
}

// AblationDiscreteGPU compares the coherent-APU configuration against a
// discrete GPU behind an IO bus (§5.1), reporting Figure 8 end-to-end
// latencies for GPU-TN in both.
func AblationDiscreteGPU(cfg config.SystemConfig, busLatency sim.Time) (apu, discrete sim.Time) {
	apuRes := Figure8(cfg)
	d := cfg
	d.DiscreteGPU = true
	d.IOBusLatency = busLatency
	dRes := Figure8(d)
	return apuRes.Runs[backends.GPUTN].TargetComplete, dRes.Runs[backends.GPUTN].TargetComplete
}

// AblationJacobiKernelCost measures the Figure 9 mid-size Jacobi point
// under scaled kernel overheads, reporting GPU-TN speedup over GDS — the
// strong-scaling argument of §1 in workload form.
func AblationJacobiKernelCost(cfg config.SystemConfig, scales []float64) map[float64]float64 {
	kinds := []backends.Kind{backends.GDS, backends.GPUTN}
	durs := parallelMap(len(scales)*len(kinds), func(idx int) sim.Time {
		c := cfg
		s := scales[idx/len(kinds)]
		c.GPU.KernelLaunch = sim.Time(float64(cfg.GPU.KernelLaunch) * s)
		c.GPU.KernelTeardown = sim.Time(float64(cfg.GPU.KernelTeardown) * s)
		cl := node.NewCluster(c, 4)
		res, err := jacobi.Run(cl, jacobi.Params{Kind: kinds[idx%len(kinds)], N: 128, PX: 2, PY: 2, Iters: 4})
		if err != nil {
			panic(err)
		}
		return res.Duration
	})
	out := map[float64]float64{}
	for si, s := range scales {
		out[s] = float64(durs[si*len(kinds)]) / float64(durs[si*len(kinds)+1])
	}
	return out
}

// AblationPipelining compares the kernel-granularity GPU-TN Allreduce
// against the §5.4.1 work-group-granularity pipelined implementation at
// several node counts (8 MB payload), returning plain vs pipelined
// durations per node count.
func AblationPipelining(cfg config.SystemConfig, nodeCounts []int) map[int][2]sim.Time {
	ways := []int{0, 8}
	durs := parallelMap(len(nodeCounts)*len(ways), func(idx int) sim.Time {
		c := node.NewCluster(cfg, nodeCounts[idx/len(ways)])
		res, err := collective.Run(c, collective.Config{
			Kind: backends.GPUTN, TotalBytes: 8 << 20, Pipeline: ways[idx%len(ways)],
		})
		if err != nil {
			panic(err)
		}
		return res.Duration
	})
	out := map[int][2]sim.Time{}
	for ni, n := range nodeCounts {
		out[n] = [2]sim.Time{durs[ni*len(ways)], durs[ni*len(ways)+1]}
	}
	return out
}

// AblationDynamicTrigger measures the §3.4 dynamic-communication cost: a
// kernel sending one message with 0..3 GPU-computed override fields.
// Returns end-to-end target latency per field count.
func AblationDynamicTrigger(cfg config.SystemConfig) [4]sim.Time {
	// Micro-rig: drives both nodes' components from ambient driver
	// procs and waits directly on the remote counting event — remote-state
	// coupling outside the fabric, so it measures on one engine
	// regardless of -shards (output stays shard-count invariant).
	cfg.Shards = 0
	durs := parallelMap(4, func(fields int) sim.Time {
		c := node.NewCluster(cfg, 2)
		n0, n1 := c.Nodes[0], c.Nodes[1]
		recvCT := n1.Ptl.CTAlloc()
		n1.Ptl.MEAppend(&portals.ME{MatchBits: microMatchBits, Length: 64, CT: recvCT})
		var done sim.Time
		f := fields
		c.Eng.Go("host", func(p *sim.Proc) {
			host := core.NewHost(c.Eng, n0.Ptl, n0.GPU)
			md := n0.Ptl.MDBind("buf", 64, nil, nil)
			if err := host.TrigPut(p, 1, 1, md, 64, 1, microMatchBits); err != nil {
				panic(err)
			}
			trig := host.GetTriggerAddr()
			dyn := core.DynamicFields{}
			if f >= 1 {
				dyn.HasTarget, dyn.Target = true, 1
			}
			if f >= 2 {
				dyn.HasSize, dyn.Size = true, 64
			}
			if f >= 3 {
				dyn.HasMatchBits, dyn.MatchBits = true, microMatchBits
			}
			host.LaunchKernSync(p, &gpu.Kernel{
				Name: "dyn", WorkGroups: 1,
				Body: func(wg *gpu.WGCtx) {
					wg.Compute(microCopyTime)
					core.TriggerKernelDynamic(wg, trig, 1, dyn)
				},
			})
			recvCT.Wait(p, 1)
			done = p.Now()
		})
		c.Run()
		return done
	})
	var out [4]sim.Time
	copy(out[:], durs)
	return out
}

// AblationNetworkSensitivity re-runs the Figure 8 microbenchmark across
// fabric generations (bandwidth in Gb/s). As wire time shrinks, the fixed
// kernel-boundary overheads dominate and GPU-TN's relative advantage
// grows — §1's argument that launch overheads "negate the efforts of
// network interconnect providers". Returns GPU-TN speedup vs HDN per rate.
func AblationNetworkSensitivity(cfg config.SystemConfig, gbps []float64) map[float64]float64 {
	speedups := parallelMap(len(gbps), func(gi int) float64 {
		c := cfg
		c.Network.BandwidthGbps = gbps[gi]
		return Figure8(c).SpeedupVs(backends.HDN)
	})
	out := map[float64]float64{}
	for gi, g := range gbps {
		out[g] = speedups[gi]
	}
	return out
}

// AblationMPIRendezvous quantifies what the two-sided substrate costs HDN
// on large messages: the same neighbour exchange run over the MPI layer's
// eager protocol versus its rendezvous (RTS/CTS) protocol. Pre-registered
// one-sided operations (GDS/GPU-TN) never pay the rendezvous round trip.
// Returns (eager, rendezvous) completion times for one `size`-byte
// exchange between two nodes.
func AblationMPIRendezvous(cfg config.SystemConfig, size int64) (eager, rendezvous sim.Time) {
	// Micro-rig: drives both nodes' components from ambient driver
	// procs and waits directly on the remote counting event — remote-state
	// coupling outside the fabric, so it measures on one engine
	// regardless of -shards (output stays shard-count invariant).
	cfg.Shards = 0
	run := func(eagerLimit int64) sim.Time {
		c := node.NewCluster(cfg, 2)
		c0 := mpi.New(c.Nodes[0], eagerLimit)
		c1 := mpi.New(c.Nodes[1], eagerLimit)
		var done sim.Time
		c.Eng.Go("rank0", func(p *sim.Proc) {
			c0.Send(p, 1, 1, size, nil)
			c0.Recv(p, 1, 2)
			done = p.Now()
		})
		c.Eng.Go("rank1", func(p *sim.Proc) {
			c1.Recv(p, 0, 1)
			c1.Send(p, 0, 2, size, nil)
		})
		c.Run()
		return done
	}
	both := parallelMap(2, func(i int) sim.Time {
		if i == 0 {
			return run(size + 1)
		}
		return run(1)
	})
	return both[0], both[1]
}

// RenderAblations runs every ablation at representative points and
// formats a summary.
func RenderAblations(cfg config.SystemConfig) string {
	var b strings.Builder
	b.WriteString("Ablation studies\n")

	relaxed, strict := AblationRelaxedSync(cfg, 2*sim.Microsecond)
	fmt.Fprintf(&b, "relaxed-sync (2us post): relaxed=%.2fus strict=%.2fus (overlap saves %.2fus)\n",
		relaxed.Us(), strict.Us(), (strict - relaxed).Us())

	gr := AblationGranularity(cfg, 8, 64)
	fmt.Fprintf(&b, "granularity (8 WGs x 64 items): work-item=%.2fus work-group=%.2fus kernel=%.2fus mixed=%.2fus\n",
		gr[core.WorkItem].Us(), gr[core.WorkGroup].Us(), gr[core.KernelLevel].Us(), gr[core.Mixed].Us())

	lk := AblationTriggerLookup(cfg, 1024)
	fmt.Fprintf(&b, "trigger lookup (1024 writes): associative=%.2fus hash=%.2fus linked-list=%.2fus\n",
		lk["associative"].Us(), lk["hash"].Us(), lk["linked-list"].Us())

	ko := AblationKernelOverhead(cfg, []float64{0.5, 1, 2, 4})
	for _, s := range []float64{0.5, 1, 2, 4} {
		fmt.Fprintf(&b, "kernel overhead x%.1f: GPU-TN vs HDN %.2fx, vs GDS %.2fx\n", s, ko[s][0], ko[s][1])
	}

	apu, disc := AblationDiscreteGPU(cfg, 500*sim.Nanosecond)
	fmt.Fprintf(&b, "discrete GPU (500ns IO bus): APU=%.2fus discrete=%.2fus\n", apu.Us(), disc.Us())

	jc := AblationJacobiKernelCost(cfg, []float64{1, 4})
	fmt.Fprintf(&b, "jacobi N=128 GPU-TN/GDS speedup: overhead x1 %.2fx, x4 %.2fx\n", jc[1], jc[4])

	pl := AblationPipelining(cfg, []int{8, 32})
	for _, n := range []int{8, 32} {
		fmt.Fprintf(&b, "wg-pipelining (8MB, %d nodes): plain=%.1fus pipelined=%.1fus (%.1f%% faster)\n",
			n, pl[n][0].Us(), pl[n][1].Us(), 100*(1-float64(pl[n][1])/float64(pl[n][0])))
	}

	dt := AblationDynamicTrigger(cfg)
	fmt.Fprintf(&b, "dynamic trigger (§3.4): 0 fields=%.2fus 1=%.2fus 2=%.2fus 3=%.2fus\n",
		dt[0].Us(), dt[1].Us(), dt[2].Us(), dt[3].Us())

	ns := AblationNetworkSensitivity(cfg, []float64{10, 100, 400})
	fmt.Fprintf(&b, "network sensitivity (GPU-TN vs HDN): 10Gbps %.2fx, 100Gbps %.2fx, 400Gbps %.2fx\n",
		ns[10], ns[100], ns[400])

	eag, rndv := AblationMPIRendezvous(cfg, 1<<20)
	fmt.Fprintf(&b, "MPI rendezvous (1MB round trip): eager=%.1fus rendezvous=%.1fus (+%.2fus protocol cost)\n",
		eag.Us(), rndv.Us(), (rndv - eag).Us())

	plainJ, overlapJ := AblationJacobiOverlap(cfg, 64, 8)
	fmt.Fprintf(&b, "jacobi overlap (N=64, 8 iters): plain=%.1fus overlapped=%.1fus (%.1f%% faster)\n",
		plainJ.Us(), overlapJ.Us(), 100*(1-float64(overlapJ)/float64(plainJ)))

	starT, treeT := AblationTopology(cfg, 16, 4)
	fmt.Fprintf(&b, "topology (8MB allreduce, 16 nodes): star=%.1fus tree(4/leaf)=%.1fus\n",
		starT.Us(), treeT.Us())

	inStar, inFT, inCtl := AblationFatTreeIncast(cfg, 16, 64<<10)
	fmt.Fprintf(&b, "fat-tree incast (15->1, 64KB each): star=%.1fus fattree=%.1fus credits+ecn=%.1fus\n",
		inStar.Us(), inFT.Us(), inCtl.Us())
	return b.String()
}

// AblationTopology compares the Table 2 star against the oversubscribed
// two-level tree for the 8 MB Allreduce at the given node count. The tree
// is a one-pod fat-tree with a single spine (and core): each leaf of
// leafSize nodes shares one uplink to the root. The ring pattern crosses
// leaf boundaries constantly, so shared uplinks slow every backend while
// the relative GPU-TN advantage persists.
func AblationTopology(cfg config.SystemConfig, nodes, leafSize int) (star, tree sim.Time) {
	run := func(c config.SystemConfig) sim.Time {
		cl := node.NewCluster(c, nodes)
		res, err := collective.Run(cl, collective.Config{Kind: backends.GPUTN, TotalBytes: 8 << 20})
		if err != nil {
			panic(err)
		}
		return res.Duration
	}
	t := cfg
	t.Network.Topology = config.TopologyFatTree
	t.Network.FatTree = config.TopologyConfig{
		LeafSize:  leafSize,
		PodLeaves: (nodes + leafSize - 1) / leafSize,
		Spines:    1,
		Cores:     1,
	}
	both := parallelMap(2, func(i int) sim.Time {
		if i == 0 {
			return run(cfg)
		}
		return run(t)
	})
	return both[0], both[1]
}

// AblationFatTreeIncast measures the N-1 -> 1 incast that motivates
// per-hop flow control: every node fires one `size`-byte put at node 0
// simultaneously, converging on node 0's single ingress. Returns the
// completion time on the star, on the unbounded fat-tree (deep switch
// queues), and on the fat-tree with QueueCredits + ECN feeding the
// adaptive RTO (bounded queueing; senders pace instead of piling up).
func AblationFatTreeIncast(cfg config.SystemConfig, nodes int, size int64) (star, fattree, controlled sim.Time) {
	// Micro-rig: ambient driver procs wait directly on the sink's counting
	// event — remote-state coupling outside the fabric, so it measures on
	// one engine regardless of -shards (output stays shard-count
	// invariant; the fat-tree is single-engine anyway).
	cfg.Shards = 0
	run := func(c config.SystemConfig) sim.Time {
		cl := node.NewCluster(c, nodes)
		recvCT := cl.Nodes[0].Ptl.CTAlloc()
		cl.Nodes[0].Ptl.MEAppend(&portals.ME{MatchBits: microMatchBits, Length: size, CT: recvCT})
		for i := 1; i < nodes; i++ {
			nd := cl.Nodes[i]
			nd.Ptl.PutAsync(nd.Ptl.MDBind("src", size, nil, nil), size, 0, microMatchBits)
		}
		var done sim.Time
		cl.Eng.Go("sink", func(p *sim.Proc) {
			recvCT.Wait(p, int64(nodes-1))
			done = p.Now()
		})
		cl.Run()
		return done
	}
	ft := cfg
	ft.Network.Topology = config.TopologyFatTree
	ctl := ft
	ctl.Network.FatTree.QueueCredits = 8
	ctl.Network.FatTree.ECNThreshold = 4
	ctl.NIC.Reliability = config.DefaultReliability()
	ctl.NIC.Reliability.AdaptiveRTO = true
	all := parallelMap(3, func(i int) sim.Time {
		switch i {
		case 0:
			return run(cfg)
		case 1:
			return run(ft)
		default:
			return run(ctl)
		}
	})
	return all[0], all[1], all[2]
}

// AblationJacobiOverlap compares the plain GPU-TN Jacobi against the
// overlap extension (interior relax hidden under the halo flight).
func AblationJacobiOverlap(cfg config.SystemConfig, n, iters int) (plain, overlapped sim.Time) {
	run := func(ov bool) sim.Time {
		c := node.NewCluster(cfg, 4)
		res, err := jacobi.Run(c, jacobi.Params{
			Kind: backends.GPUTN, N: n, PX: 2, PY: 2, Iters: iters, Overlap: ov,
		})
		if err != nil {
			panic(err)
		}
		return res.Duration
	}
	both := parallelMap(2, func(i int) sim.Time { return run(i == 1) })
	return both[0], both[1]
}
