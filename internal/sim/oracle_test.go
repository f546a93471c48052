package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/backends"
	"repro/internal/collective"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/health"
	"repro/internal/nic"
	"repro/internal/node"
	"repro/internal/portals"
	"repro/internal/sim"
	"repro/internal/workloads/jacobi"
)

// TestTriggerPathsAgree is the exactness oracle of the counted trigger
// pipeline, stores issued ahead and gang wakes: every scenario runs twice
// on fresh clusters, once as is and once with the per-write and
// per-waiter reference paths forced (sim.SetReference), and the runs must
// agree on every trigger fire (time, node, tag), every nic.Stats field of
// every node, every result and the duration. Event counts may differ.
// The scenarios cover the GPU-TN ring (untimed, timeout, hedged,
// pipelined), a crash-restart mid-ring, GPU-TN Jacobi, and the core
// triggering granularities with a kernel that runs ahead of registration
// (relaxed-sync placeholders), with NIC reliability on and off.
func TestTriggerPathsAgree(t *testing.T) {
	tests := []struct {
		name string
		fn   interface{}
	}{
		{
			name: "ring",
			fn: func(nodes, size uint8, mode uint8, reliable bool) bool {
				n := 2 + int(nodes)%7
				elems := n * (1 << (int(size)%6 + 4))
				return agree(t, fmt.Sprintf("ring n=%d elems=%d mode=%d rel=%v", n, elems, mode%3, reliable), func() outcome {
					c := node.NewCluster(systemConfig(reliable), n)
					o := observe(c)
					cfg := collective.Config{Kind: backends.GPUTN, TotalBytes: int64(elems) * 4, Data: inputs(n, elems, int64(size))}
					switch mode % 3 {
					case 1:
						cfg.Timeout = 1 * sim.Millisecond
					case 2:
						cfg.Pipeline = 2 + int(nodes)%3
					}
					res, err := collective.Run(c, cfg)
					return o.done(c, res.Duration, res.PerRank, res.Output, err)
				})
			},
		},
		{
			name: "hedged",
			fn: func(factor uint8, seed int8) bool {
				f := 2 + float64(factor%10)
				return agree(t, fmt.Sprintf("hedged factor=%v seed=%d", f, seed), func() outcome {
					cfg := systemConfig(true)
					cfg.Faults = config.FaultConfig{Slow: config.SlowConfig{Seed: int64(seed), Windows: []config.SlowWindow{
						{Node: 1, From: 0, Until: 50 * sim.Millisecond, GPUFactor: f},
					}}}
					cfg.Health = config.HealthConfig{
						Enabled: true, Period: 5 * sim.Microsecond, SuspectAfter: 500 * sim.Microsecond,
						StabilizeDelay: 20 * sim.Microsecond, SlowDetect: true, SlowGrace: 5 * sim.Microsecond,
					}
					const n, elems = 4, 8192
					c := node.NewCluster(cfg, n)
					o := observe(c)
					res, err := drive(c, func(p *sim.Proc, m *health.Membership) (collective.RecoverResult, error) {
						return collective.RunHedged(p, c, m, collective.HedgeConfig{
							RecoverConfig: collective.RecoverConfig{
								Kind: backends.GPUTN, TotalBytes: elems * 4, Data: inputs(n, elems, int64(seed)),
								Timeout: 200 * sim.Microsecond, ComputePhase: 50 * sim.Microsecond,
							},
							HedgeAfter: 25 * sim.Microsecond,
						})
					})
					return o.done(c, res.Duration, res.Alive, res.Output, err)
				})
			},
		},
		{
			name: "crash-restart",
			fn: func(at uint16, reliable bool) bool {
				crash := 62*sim.Microsecond + sim.Time(at%20000)*sim.Nanosecond + sim.Time(at%7)*sim.Picosecond
				return agree(t, fmt.Sprintf("crash at=%v rel=%v", crash, reliable), func() outcome {
					cfg := systemConfig(reliable)
					cfg.NIC.Reliability = config.DefaultReliability()
					cfg.Health = config.HealthConfig{
						Enabled: true, Period: 10 * sim.Microsecond, SuspectAfter: 150 * sim.Microsecond,
						StabilizeDelay: 60 * sim.Microsecond,
					}
					cfg.Crash = config.CrashConfig{Events: []config.CrashEvent{
						{Node: 2, At: crash, RestartAfter: 60 * sim.Microsecond},
					}}
					const n, elems = 4, 16384
					c := node.NewCluster(cfg, n)
					o := observe(c)
					res, err := drive(c, func(p *sim.Proc, m *health.Membership) (collective.RecoverResult, error) {
						return collective.RunRecoverable(p, c, m, collective.RecoverConfig{
							Kind: backends.GPUTN, TotalBytes: elems * 4, Data: inputs(n, elems, int64(at)),
							Timeout: 100 * sim.Microsecond,
						})
					})
					return o.done(c, res.Duration, res.Alive, res.Output, err)
				})
			},
		},
		{
			name: "jacobi",
			fn: func(px, py, iters uint8, reliable bool) bool {
				p := jacobi.Params{Kind: backends.GPUTN, N: 8, PX: 2 + int(px)%3, PY: 1 + int(py)%4, Iters: 1 + int(iters)%3, WithData: true}
				return agree(t, fmt.Sprintf("jacobi %+v rel=%v", p, reliable), func() outcome {
					c := node.NewCluster(systemConfig(reliable), p.PX*p.PY)
					o := observe(c)
					res, err := jacobi.Run(c, p)
					return o.done(c, res.Duration, res.PerRank, res.Grids, err)
				})
			},
		},
		{
			name: "core",
			fn: func(gran, wgs uint8, lead uint16, compute uint16, poll, reliable bool) bool {
				g := core.Granularity(int(gran) % 5) // 4: dynamic, kernel-level
				k := 1 + int(wgs)%8
				return agree(t, fmt.Sprintf("core gran=%d wgs=%d lead=%dns compute=%dns poll=%v rel=%v", g, k, lead%8000, compute%4000, poll, reliable), func() outcome {
					c := node.NewCluster(systemConfig(reliable), 2)
					o := observe(c)
					runCore(c, g, k, sim.Time(lead%8000)*sim.Nanosecond, sim.Time(compute%4000)*sim.Nanosecond, poll)
					return o.done(c, c.Eng.Now(), nil, nil, nil)
				})
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := quick.Check(tt.fn, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
				t.Error(err)
			}
		})
	}
}

// outcome is what the two paths must agree on.
type outcome struct {
	Fires    [][]fire
	Stats    []nic.Stats
	Duration sim.Time
	PerRank  any
	Result   any
	Err      string
}

type fire struct {
	At  sim.Time
	Tag int64
}

// recorder collects a cluster's trigger fires per node.
type recorder struct{ fires [][]fire }

func observe(c *node.Cluster) *recorder {
	r := &recorder{fires: make([][]fire, len(c.Nodes))}
	c.Audit.OnFire(func(now sim.Time, node int, tag int64) {
		r.fires[node] = append(r.fires[node], fire{At: now, Tag: tag})
	})
	return r
}

func (r *recorder) done(c *node.Cluster, d sim.Time, perRank, result any, err error) outcome {
	o := outcome{Fires: r.fires, Duration: d, PerRank: perRank, Result: result}
	for _, nd := range c.Nodes {
		o.Stats = append(o.Stats, nd.NIC.Stats())
	}
	if err != nil {
		o.Err = err.Error()
	}
	return o
}

// agree runs the scenario with the reference paths forced and as is, and
// reports whether the outcomes are equal, logging the first difference.
func agree(t *testing.T, what string, run func() outcome) bool {
	t.Helper()
	sim.SetReference(true)
	defer sim.SetReference(false)
	ref := run()
	sim.SetReference(false)
	got := run()
	if ref.Err != "" {
		t.Logf("%s: %s", what, ref.Err)
		return false
	}
	if reflect.DeepEqual(ref, got) {
		return true
	}
	t.Logf("%s: the counted path diverges from the per-write reference: %s", what, firstDiff(ref, got))
	return false
}

func firstDiff(ref, got outcome) string {
	switch {
	case ref.Err != got.Err:
		return fmt.Sprintf("error %q, reference %q", got.Err, ref.Err)
	case ref.Duration != got.Duration:
		return fmt.Sprintf("duration %d ps, reference %d ps", int64(got.Duration), int64(ref.Duration))
	}
	for i := range ref.Fires {
		for j := range ref.Fires[i] {
			if j >= len(got.Fires[i]) || got.Fires[i][j] != ref.Fires[i][j] {
				return fmt.Sprintf("node %d fire %d: %v, reference %v", i, j, got.Fires[i][j:min(j+1, len(got.Fires[i]))], ref.Fires[i][j])
			}
		}
		if len(got.Fires[i]) != len(ref.Fires[i]) {
			return fmt.Sprintf("node %d: %d fires, reference %d", i, len(got.Fires[i]), len(ref.Fires[i]))
		}
	}
	for i := range ref.Stats {
		if ref.Stats[i] != got.Stats[i] {
			return fmt.Sprintf("node %d stats %+v, reference %+v", i, got.Stats[i], ref.Stats[i])
		}
	}
	return "results differ"
}

func systemConfig(reliable bool) config.SystemConfig {
	cfg := config.Default()
	if reliable {
		cfg.NIC.Reliability = config.DefaultReliability()
	}
	return cfg
}

func inputs(n, elems int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float32, n)
	for r := range data {
		data[r] = make([]float32, elems)
		for i := range data[r] {
			data[r][i] = float32(1 + rng.Intn(64))
		}
	}
	return data
}

// drive runs a recoverable collective driver under a health suite and
// drains the cluster.
func drive(c *node.Cluster, run func(p *sim.Proc, m *health.Membership) (collective.RecoverResult, error)) (collective.RecoverResult, error) {
	suite := health.Start(c)
	var res collective.RecoverResult
	var err error
	c.Eng.Go("oracle.driver", func(p *sim.Proc) {
		res, err = run(p, suite.Membership)
		suite.Stop()
	})
	c.Run()
	return res, err
}

// runCore has node 0 launch a kernel that triggers puts to node 1 at
// granularity g (4: kernel-level with a dynamic size override) and
// register them lead after the launch, so a kernel that runs ahead makes
// relaxed-sync placeholders. With poll, every work-group waits for its
// put's local completion, so its store rides the poll.
func runCore(c *node.Cluster, g core.Granularity, wgs int, lead, compute sim.Time, poll bool) {
	h0 := core.NewHost(c.Eng, c.Nodes[0].Ptl, c.Nodes[0].GPU)
	h1 := core.NewHost(c.Eng, c.Nodes[1].Ptl, c.Nodes[1].GPU)
	h1.Portals().MEAppend(&portals.ME{MatchBits: 0x1, Length: 1 << 24, CT: h1.Portals().CTAlloc()})
	const wgSize, per = 2, 2
	dynamic := g == 4
	if dynamic {
		g = core.KernelLevel
	}
	if g == core.Mixed && wgs%per != 0 {
		wgs++
	}
	comp := h0.NewCompletion()
	trig := h0.GetTriggerAddr()
	c.Eng.Go("oracle.host", func(p *sim.Proc) {
		h0.LaunchKern(&gpu.Kernel{
			Name: "oracle", WorkGroups: wgs, WGSize: wgSize,
			Body: func(wg *gpu.WGCtx) {
				wg.Compute(compute + sim.Time(wg.Group)*sim.Nanosecond)
				switch {
				case dynamic:
					core.TriggerKernelDynamic(wg, trig, 7, core.DynamicFields{HasSize: true, Size: 32})
				case g == core.WorkItem:
					core.TriggerWorkItem(wg, trig, 7)
				case g == core.WorkGroup:
					core.TriggerWorkGroup(wg, trig, 7)
				case g == core.Mixed:
					core.TriggerMixed(wg, trig, 7, per)
				default:
					core.TriggerKernel(wg, trig, 7)
				}
				if poll {
					comp.WaitGPU(wg, 1)
				}
			},
		})
		p.Sleep(lead)
		regs, err := core.Plan(g, 7, wgs, wgSize, per)
		if err != nil {
			panic(err)
		}
		md := h0.Portals().MDBind("buf", 64, nil, comp.CT)
		if err := h0.TrigPutPlan(p, regs, md, 64, 1, 0x1); err != nil {
			panic(err)
		}
	})
	c.Run()
}
