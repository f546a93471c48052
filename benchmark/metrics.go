package main

import (
	"fmt"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct {
	name, unit   string
	higherBetter bool
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. BENCHMARK.json repeats them.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", true, 0.25},
	{"op_ms_p50", "ms", false, 0.25},
	{"setup_s", "s", false, 0.25},
	{"peak_rss_mb", "MB", false, 0.20},
}

// endToEndMetrics computes the untraced metrics of a run. An op's time is
// its entry point; NewCluster is set-up; both count towards ops_per_s.
func endToEndMetrics(rr *runResult) (map[string]float64, error) {
	var timed time.Duration
	setupS := make([]float64, 0, len(rr.recs))
	for _, r := range rr.recs {
		timed += time.Duration(r.SetupNs + r.RunNs)
		setupS = append(setupS, float64(r.SetupNs)/1e9)
	}
	p50, err := percentile(runMs(rr.recs), 0.5)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"ops_per_s":   float64(len(rr.recs)) / timed.Seconds(),
		"op_ms_p50":   p50,
		"setup_s":     median(setupS),
		"peak_rss_mb": float64(rr.peakRSSKB) / 1024,
	}, nil
}

// perLayer lists the per-layer metrics in report order. BENCHMARK.json
// repeats them.
func perLayer() []metricDef {
	defs := []metricDef{
		{name: "sim.events_per_op", unit: "count", higherBetter: false},
		{name: "sim.engines", unit: "count", higherBetter: false},
		{name: "sim.shard_imbalance", unit: "ratio", higherBetter: false},
		{name: "sim.goroutines_leaked_per_op", unit: "count", higherBetter: false},
		{name: "sim.events_per_s", unit: "1/s", higherBetter: true},
		{name: "sim.allocs_per_event", unit: "count", higherBetter: false},
		{name: "network.msgs_per_op", unit: "count", higherBetter: false},
		{name: "network.bytes_per_op", unit: "bytes", higherBetter: false},
		{name: "network.lost_per_op", unit: "count", higherBetter: false},
		{name: "nic.cmds_per_op", unit: "count", higherBetter: false},
		{name: "nic.trigger_fires_per_op", unit: "count", higherBetter: false},
		{name: "nic.retransmits_per_op", unit: "count", higherBetter: false},
		{name: "gpu.kernels_per_op", unit: "count", higherBetter: false},
		{name: "fault.pkts_dropped_per_op", unit: "count", higherBetter: false},
		{name: "health.beats_per_op", unit: "count", higherBetter: false},
		{name: "health.suspicions_per_op", unit: "count", higherBetter: false},
		{name: "collective.attempts_per_op", unit: "count", higherBetter: false},
		{name: "collective.attempt_success_ratio", unit: "ratio", higherBetter: true},
		{name: "collective.sim_us_per_op", unit: "us", higherBetter: false},
		{name: "jacobi.sim_us_per_op", unit: "us", higherBetter: false},
		{name: "audit.checks_per_op", unit: "count", higherBetter: false},
		{name: "audit.violations_per_op", unit: "count", higherBetter: false},
		{name: "audit.new_mb", unit: "MB", higherBetter: false},
		{name: "audit.finish_ms", unit: "ms", higherBetter: false},
		{name: "node.new_cluster_ms", unit: "ms", higherBetter: false},
		{name: "node.new_cluster_mb", unit: "MB", higherBetter: false},
	}
	for _, b := range cpuBuckets() {
		defs = append(defs, metricDef{name: b + ".cpu_pct", unit: "%"})
	}
	return append(defs, metricDef{name: "trace_overhead_pct", unit: "%"})
}

// perLayerMetrics computes a trace run's per-layer metrics. Counts are
// means over the fixed first minChildren*opsPerChild ops, so they repeat
// exactly for a seed; CPU shares come from the profiled child.
func perLayerMetrics(rr *runResult) (map[string]float64, error) {
	if rr.traced == nil || rr.traced.sum == nil || rr.traced.sum.CPU == nil {
		return nil, fmt.Errorf("no profile from the traced child")
	}
	fixed := rr.fixed()
	var k struct {
		events, msgs, bytes, lost, cmds, fires, retx, kernels, dropped, beats, susp float64
		attempts, attemptsOK, checks, violations, leaked, simUs, imbalance, engines float64
	}
	for _, r := range fixed {
		c := r.Counts
		k.events += float64(c.Events)
		k.msgs += float64(c.Msgs)
		k.bytes += float64(c.Bytes)
		k.lost += float64(c.Lost)
		k.cmds += float64(c.Cmds)
		k.fires += float64(c.Fires)
		k.retx += float64(c.Retransmits)
		k.kernels += float64(c.Kernels)
		k.dropped += float64(c.Dropped)
		k.beats += float64(c.Beats)
		k.susp += float64(c.Suspicions)
		k.attempts += float64(c.Attempts)
		k.attemptsOK += float64(c.AttemptsOK)
		k.checks += float64(c.Checks)
		k.violations += float64(c.Violations)
		k.leaked += float64(r.Leaked)
		k.simUs += float64(c.SimPs) / 1e6
		k.imbalance += imbalance(c.ShardEvents)
		k.engines += float64(c.Engines)
	}
	n := float64(len(fixed))
	if n == 0 {
		return nil, fmt.Errorf("no ops completed")
	}
	var runS, mallocs, events, setupBytes float64
	var setupMs, finishMs []float64
	for _, r := range rr.recs {
		runS += float64(r.RunNs) / 1e9
		mallocs += float64(r.Mallocs)
		events += float64(r.Counts.Events)
		setupBytes += float64(r.SetupBytes)
		setupMs = append(setupMs, float64(r.SetupNs)/1e6)
		finishMs = append(finishMs, float64(r.FinishNs)/1e6)
	}
	ratio := 0.0
	if k.attempts > 0 {
		ratio = k.attemptsOK / k.attempts
	}
	simUs := map[string]float64{"collective": 0, "jacobi": 0}
	simUs[rr.workload.simLayer] = k.simUs / n
	m := map[string]float64{
		"sim.events_per_op":                k.events / n,
		"sim.engines":                      k.engines / n,
		"sim.shard_imbalance":              k.imbalance / n,
		"sim.goroutines_leaked_per_op":     k.leaked / n,
		"sim.events_per_s":                 events / runS,
		"sim.allocs_per_event":             mallocs / events,
		"network.msgs_per_op":              k.msgs / n,
		"network.bytes_per_op":             k.bytes / n,
		"network.lost_per_op":              k.lost / n,
		"nic.cmds_per_op":                  k.cmds / n,
		"nic.trigger_fires_per_op":         k.fires / n,
		"nic.retransmits_per_op":           k.retx / n,
		"gpu.kernels_per_op":               k.kernels / n,
		"fault.pkts_dropped_per_op":        k.dropped / n,
		"health.beats_per_op":              k.beats / n,
		"health.suspicions_per_op":         k.susp / n,
		"collective.attempts_per_op":       k.attempts / n,
		"collective.attempt_success_ratio": ratio,
		"collective.sim_us_per_op":         simUs["collective"],
		"jacobi.sim_us_per_op":             simUs["jacobi"],
		"audit.checks_per_op":              k.checks / n,
		"audit.violations_per_op":          k.violations / n,
		"audit.new_mb":                     float64(rr.auditNewBytes) / (1 << 20),
		"audit.finish_ms":                  median(finishMs),
		"node.new_cluster_ms":              median(setupMs),
		"node.new_cluster_mb":              setupBytes / float64(len(rr.recs)) / (1 << 20),
	}
	for b, pct := range rr.traced.sum.CPU {
		m[b+".cpu_pct"] = pct
	}
	tp50, err := percentile(runMs(rr.traced.recs), 0.5)
	if err != nil {
		return nil, err
	}
	up50, err := percentile(runMs(rr.recs[:min(len(rr.recs), opsPerChild)]), 0.5)
	if err != nil {
		return nil, err
	}
	m["trace_overhead_pct"] = 100 * (tp50/up50 - 1)
	return m, nil
}

// runMs returns each op's entry-point time in milliseconds.
func runMs(recs []opRecord) []float64 {
	ms := make([]float64, len(recs))
	for i, r := range recs {
		ms[i] = float64(r.RunNs) / 1e6
	}
	return ms
}

// imbalance is the busiest engine's events over the mean.
func imbalance(shardEvents []uint64) float64 {
	var sum, most uint64
	for _, e := range shardEvents {
		sum += e
		most = max(most, e)
	}
	if sum == 0 {
		return 1
	}
	return float64(most) * float64(len(shardEvents)) / float64(sum)
}
