package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/backends"
	"repro/internal/collective"
	"repro/internal/config"
	"repro/internal/health"
	"repro/internal/node"
	"repro/internal/sim"
)

// The SDC ablation sizes: 4 ranks moving a 32KB vector, so every rank
// ships several multi-KB chunks per attempt and even low per-packet
// corruption rates draw non-vacuously.
const (
	sdcAblationNodes = 4
	sdcAblationElems = 8192
	sdcAblationBytes = sdcAblationElems * 4 // float32 elements
	// sdcAblationBufferNode / sdcAblationFaultyRank are the designated
	// corrupt parties of the buffer and reducer classes.
	sdcAblationBufferNode = 2
	sdcAblationFaultyRank = 1
	sdcAblationSeed       = 42
	// sdcAblationTimeout bounds per-round receive waits in the verified
	// arm; corruption never drops frames, so this only has to clear a
	// healthy round plus NACK retransmissions.
	sdcAblationTimeout = 300 * sim.Microsecond
	// sdcE2ELatency prices one checksum computation/verification in the
	// overhead comparison when the caller left NICConfig.E2EChecksumLatency
	// unset (a few hundred ns covers a 4-8KB CRC32C on a modern core).
	sdcE2ELatency = 200 * sim.Nanosecond
)

// SDCPoint is one cell of the SDC sweep: one corruption class at one rate,
// run twice — an unverified arm (plain run, e2e checksum off: what the
// application sees with no integrity layer) and a verified arm (e2e
// checksum + claim chain + quarantine: what survives the full stack).
type SDCPoint struct {
	// Class is "wire", "buffer", or "reducer"; Rate is the per-packet
	// (wire) or per-send (buffer) corruption probability. The reducer
	// class is a deterministic whole-run window, so its Rate is 0.
	Class string
	Rate  float64
	// Injected counts corruptions the verified arm's schedule landed.
	Injected int64
	// EscapedUnverified reports whether the unverified arm's final vectors
	// differed from the exact reduction — corruption reaching the
	// application with no integrity layer to stop it.
	EscapedUnverified bool
	// FrameFails counts e2e checksum failures across all NICs (frame-layer
	// detection); Violations counts claim-chain breaches (application-layer
	// detection).
	FrameFails int64
	Violations int
	// Quarantined lists ranks the membership layer quarantined; Attempts
	// counts verified-driver attempts (successful last).
	Quarantined []int
	Attempts    int
	// Detected reports whether any layer caught the injected corruption;
	// DetectLatency is first detection minus first injection.
	Detected      bool
	DetectLatency sim.Time
	// EscapedVerified reports whether the verified arm's final vectors
	// differed from the exact reduction over its final membership — the
	// number the whole subsystem exists to keep false.
	EscapedVerified bool
	// Duration is the verified arm's completion time.
	Duration sim.Time
}

// sdcInputs builds per-rank integer-valued vectors in [1, 64] (the
// claim-chain band needs every partial sum >= 1; see collective.verifyEps)
// plus the exact full-world reduction.
func sdcInputs(n, nelems int, seed int64) (data [][]float32, want []float32) {
	rng := rand.New(rand.NewSource(seed))
	data = make([][]float32, n)
	want = make([]float32, nelems)
	for r := 0; r < n; r++ {
		data[r] = make([]float32, nelems)
		for i := range data[r] {
			data[r][i] = float32(1 + rng.Intn(64))
			want[i] += data[r][i]
		}
	}
	return data, want
}

// sdcSchedule compiles one class x rate cell into an SDC schedule.
func sdcSchedule(class string, rate float64) config.SDCConfig {
	switch class {
	case "wire":
		return config.SDCConfig{Seed: sdcAblationSeed, WireProb: rate}
	case "buffer":
		return config.SDCConfig{Seed: sdcAblationSeed, BufferNode: sdcAblationBufferNode, BufferProb: rate}
	case "reducer":
		return config.SDCConfig{Seed: sdcAblationSeed, FaultyRank: sdcAblationFaultyRank, FaultyUntil: 10 * sim.Millisecond}
	default:
		panic(fmt.Sprintf("bench: unknown SDC class %q", class))
	}
}

// AblationSDC sweeps corruption rate x class over a GPU-TN verified
// Allreduce. Wire and buffer cells run at every rate; the faulty reducer
// is a deterministic whole-run window, so it contributes one cell. Each
// cell measures the undetected-escape rate without verification (plain
// run, e2e off), then the detection latency, blame, and final-result
// integrity with the full stack on. The wire cell raises the quarantine
// strike threshold out of reach: frame-layer strikes land on innocent
// senders (the NIC cannot tell a noisy wire from a flaky core), and the
// class must heal by NACK/retransmit without membership churn.
func AblationSDC(cfg config.SystemConfig, rates []float64) []SDCPoint {
	cells := len(rates)*2 + 1
	// Shared read-only by every cell: corruption hits the rank's copy.
	data, want := sdcInputs(sdcAblationNodes, sdcAblationElems, sdcAblationSeed)
	return parallelMap(cells, func(idx int) SDCPoint {
		class, rate := "reducer", 0.0
		if idx < len(rates)*2 {
			class = []string{"wire", "buffer"}[idx%2]
			rate = rates[idx/2]
		}
		pt := SDCPoint{Class: class, Rate: rate}
		sdc := sdcSchedule(class, rate)

		// Unverified arm: reliability on (the production transport) but no
		// e2e checksum and no claim chain — every injected corruption that
		// reaches the output is an escape.
		{
			c := cfg
			c.Faults = config.FaultConfig{SDC: sdc}
			c.NIC.Reliability = config.DefaultReliability()
			c.NIC.E2EChecksum = false
			cl := node.NewCluster(c, sdcAblationNodes)
			out, err := collective.Run(cl, collective.Config{
				Kind: backends.GPUTN, TotalBytes: sdcAblationBytes, Data: data,
			})
			if err != nil {
				panic(fmt.Sprintf("bench: sdc %s rate=%v unverified: %v", class, rate, err))
			}
			for r := range out.Output {
				for i, v := range out.Output[r] {
					if v != want[i] {
						pt.EscapedUnverified = true
					}
				}
			}
		}

		// Verified arm: e2e checksum + claim chain + quarantine.
		{
			c := cfg
			c.Faults = config.FaultConfig{SDC: sdc}
			c.NIC.Reliability = config.DefaultReliability()
			c.NIC.E2EChecksum = true
			c.Health = crashHealthOrDefault(cfg)
			if class == "wire" {
				c.Health.QuarantineStrikes = 1 << 20
			}
			cl := node.NewCluster(c, sdcAblationNodes)
			suite := health.Start(cl)
			var res collective.VerifyResult
			var rerr error
			cl.Eng.Go("bench.sdc.driver", func(p *sim.Proc) {
				res, rerr = collective.RunVerified(p, cl, suite.Membership, collective.RecoverConfig{
					Kind: backends.GPUTN, TotalBytes: sdcAblationBytes,
					Data: data, Timeout: sdcAblationTimeout,
				})
				suite.Stop()
			})
			cl.Run()
			if rerr != nil {
				panic(fmt.Sprintf("bench: sdc %s rate=%v verified: %v", class, rate, rerr))
			}
			plan := cl.Injector.SDC()
			pt.Injected = plan.Stats().Total()
			var firstDetect sim.Time
			for _, nd := range cl.Nodes {
				ns := nd.NIC.Stats()
				pt.FrameFails += ns.E2EChecksumFails
				if ns.E2EChecksumFails > 0 && (firstDetect == 0 || ns.FirstE2EFailAt < firstDetect) {
					firstDetect = ns.FirstE2EFailAt
				}
			}
			pt.Violations = len(res.Violations)
			for _, v := range res.Violations {
				if firstDetect == 0 || v.At < firstDetect {
					firstDetect = v.At
				}
			}
			if inj, ok := plan.FirstInjectionAt(); ok && firstDetect > 0 {
				pt.Detected = true
				pt.DetectLatency = firstDetect - inj
			}
			pt.Quarantined = res.Quarantined
			pt.Attempts = len(res.Attempts)
			pt.Duration = res.Duration

			// The verified result must be the exact reduction over its own
			// final membership.
			aliveWant := make([]float32, sdcAblationElems)
			for _, r := range res.Alive {
				for i, v := range data[r] {
					aliveWant[i] += v
				}
			}
			for _, r := range res.Alive {
				for i, v := range res.Output[r] {
					if v != aliveWant[i] {
						pt.EscapedVerified = true
					}
				}
			}
		}
		return pt
	})
}

// E2EOverheadPoint compares one backend's clean-run completion time with
// the e2e checksum off vs on: the integrity tax on the common case where
// nothing corrupts.
type E2EOverheadPoint struct {
	Kind              backends.Kind
	Base, Checksummed sim.Time
	// Latency is the per-message checksum cost the comparison priced.
	Latency sim.Time
}

// AblationE2EOverhead measures the e2e checksum's clean-path cost per
// backend: identical fault-free runs with the checksum disarmed vs armed
// (priced at cfg.NIC.E2EChecksumLatency, or sdcE2ELatency when unset).
func AblationE2EOverhead(cfg config.SystemConfig) []E2EOverheadPoint {
	kinds := backends.All()
	lat := cfg.NIC.E2EChecksumLatency
	if lat <= 0 {
		lat = sdcE2ELatency
	}
	data, _ := sdcInputs(sdcAblationNodes, sdcAblationElems, sdcAblationSeed)
	return parallelMap(len(kinds), func(idx int) E2EOverheadPoint {
		k := kinds[idx]
		run := func(e2e bool) sim.Time {
			c := cfg
			c.Faults = config.FaultConfig{}
			c.NIC.Reliability = config.DefaultReliability()
			c.NIC.E2EChecksum = e2e
			c.NIC.E2EChecksumLatency = lat
			cl := node.NewCluster(c, sdcAblationNodes)
			out, err := collective.Run(cl, collective.Config{
				Kind: k, TotalBytes: sdcAblationBytes, Data: data,
			})
			if err != nil {
				panic(fmt.Sprintf("bench: e2e overhead %v (e2e=%v): %v", k, e2e, err))
			}
			return out.Duration
		}
		return E2EOverheadPoint{Kind: k, Base: run(false), Checksummed: run(true), Latency: lat}
	})
}

// RenderSDC renders the SDC ablation: the corruption-rate x class sweep
// (escape with/without verification, detection latency, blame) and the
// clean-path e2e checksum overhead per backend.
func RenderSDC(cfg config.SystemConfig) string {
	rates := []float64{0.02, 0.10, 0.25}
	pts := AblationSDC(cfg, rates)
	over := AblationE2EOverhead(cfg)
	hc := crashHealthOrDefault(cfg)

	us := func(t sim.Time) string {
		return fmt.Sprintf("%.1fus", float64(t)/float64(sim.Microsecond))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "SDC sweep: %d-node %dKB verified Allreduce (%v), corruption rate x class\n",
		sdcAblationNodes, sdcAblationBytes>>10, backends.GPUTN)
	fmt.Fprintf(&b, "unverified arm = reliable transport, no integrity layer; verified arm = e2e checksum + claim chain + quarantine (threshold %d strikes; wire cells: out of reach)\n",
		hc.EffectiveQuarantineStrikes())
	fmt.Fprintf(&b, "%-8s %6s %7s %8s %5s %11s %9s %8s %14s\n",
		"class", "rate", "inject", "e2eFail", "viol", "quarantine", "attempts", "detect", "escape unv/ver")
	for _, pt := range pts {
		rate := fmt.Sprintf("%.2f", pt.Rate)
		if pt.Class == "reducer" {
			rate = "window"
		}
		q := "-"
		if len(pt.Quarantined) > 0 {
			q = fmt.Sprintf("%v", pt.Quarantined)
		}
		detect := "-"
		if pt.Detected {
			detect = us(pt.DetectLatency)
		}
		esc := func(v bool) string {
			if v {
				return "ESCAPED"
			}
			return "clean"
		}
		fmt.Fprintf(&b, "%-8s %6s %7d %8d %5d %11s %9d %8s %7s/%s\n",
			pt.Class, rate, pt.Injected, pt.FrameFails, pt.Violations,
			q, pt.Attempts, detect, esc(pt.EscapedUnverified), esc(pt.EscapedVerified))
	}
	fmt.Fprintf(&b, "\nE2E checksum overhead: fault-free %dKB Allreduce, checksum off vs on (%v per message)\n",
		sdcAblationBytes>>10, over[0].Latency)
	fmt.Fprintf(&b, "%-8s %12s %12s %10s\n", "backend", "base", "checksummed", "overhead")
	for _, pt := range over {
		delta := 100 * (float64(pt.Checksummed) - float64(pt.Base)) / float64(pt.Base)
		fmt.Fprintf(&b, "%-8s %12s %12s %9.2f%%\n", fmt.Sprint(pt.Kind), us(pt.Base), us(pt.Checksummed), delta)
	}
	return b.String()
}
