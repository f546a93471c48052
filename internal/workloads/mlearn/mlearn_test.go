package mlearn

import (
	"math"
	"testing"

	"repro/internal/backends"
	"repro/internal/config"
	"repro/internal/sim"
)

func TestTable3MatchesPaper(t *testing.T) {
	ws := Table3()
	if len(ws) != 6 {
		t.Fatalf("Table 3 has 6 workloads, got %d", len(ws))
	}
	want := map[string]struct {
		domain  string
		blocked float64
		reds    int64
	}{
		"AlexNet":      {"Classification", 0.14, 4672},
		"AN4 LSTM":     {"Speech", 0.50, 131192},
		"CIFAR":        {"Classification", 0.04, 939820},
		"Large Synth":  {"Synthetic", 0.28, 52800},
		"MNIST Conv":   {"Text Recognition", 0.12, 900000},
		"MNIST Hidden": {"Text Recognition", 0.29, 900000},
	}
	for _, w := range ws {
		exp, ok := want[w.Name]
		if !ok {
			t.Errorf("unexpected workload %q", w.Name)
			continue
		}
		if w.Domain != exp.domain || w.PctBlocked != exp.blocked || w.Reductions != exp.reds {
			t.Errorf("%s: %+v does not match Table 3", w.Name, w)
		}
		if w.AvgMsgBytes <= 0 {
			t.Errorf("%s: missing calibrated message size", w.Name)
		}
	}
}

func TestProjectIdentityForHDN(t *testing.T) {
	w := Workload{PctBlocked: 0.3}
	times := map[backends.Kind]sim.Time{
		backends.HDN: 100, backends.GDS: 90, backends.GPUTN: 75, backends.CPU: 140,
	}
	sp := Project(w, times)
	if sp[backends.HDN] != 1 {
		t.Fatalf("HDN speedup = %v, want 1", sp[backends.HDN])
	}
	// 25% faster allreduce at 30%% blocked: 1/(0.7+0.3*0.75)=1.081.
	if math.Abs(sp[backends.GPUTN]-1.0810810810810811) > 1e-9 {
		t.Fatalf("GPU-TN speedup = %v", sp[backends.GPUTN])
	}
	if sp[backends.CPU] >= 1 {
		t.Fatal("slower allreduce should project < 1")
	}
}

func TestProjectBlockedFractionScalesGain(t *testing.T) {
	times := map[backends.Kind]sim.Time{backends.HDN: 100, backends.GPUTN: 60}
	low := Project(Workload{PctBlocked: 0.04}, times)[backends.GPUTN]
	high := Project(Workload{PctBlocked: 0.50}, times)[backends.GPUTN]
	if low >= high {
		t.Fatalf("gain should grow with blocked fraction: %v vs %v", low, high)
	}
	if low > 1.05 {
		t.Fatalf("4%%-blocked workload should see little improvement, got %v", low)
	}
}

func TestGenerateTraceStatistics(t *testing.T) {
	w := Workload{PctBlocked: 0.5, AvgMsgBytes: 1 << 20}
	per := 100 * sim.Microsecond
	trace := GenerateTrace(w, 500, per, 42)
	if len(trace) != 500 {
		t.Fatalf("trace length = %d", len(trace))
	}
	var bytes, compute float64
	for _, c := range trace {
		if c.Bytes <= 0 || c.ComputeBefore <= 0 {
			t.Fatal("invalid trace entry")
		}
		bytes += float64(c.Bytes)
		compute += float64(c.ComputeBefore)
	}
	meanBytes := bytes / 500
	if math.Abs(meanBytes-float64(w.AvgMsgBytes))/float64(w.AvgMsgBytes) > 0.1 {
		t.Fatalf("mean bytes = %v, want ~%v", meanBytes, w.AvgMsgBytes)
	}
	// At f=0.5 compute per call ~= hdnPerCall.
	meanCompute := compute / 500
	if math.Abs(meanCompute-float64(per))/float64(per) > 0.15 {
		t.Fatalf("mean compute = %v, want ~%v", meanCompute, per)
	}
}

func TestGenerateTraceDeterministic(t *testing.T) {
	w := Table3()[1]
	a := GenerateTrace(w, 50, sim.Microsecond, 7)
	b := GenerateTrace(w, 50, sim.Microsecond, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different traces")
		}
	}
}

func TestTraceWalkAgreesWithClosedForm(t *testing.T) {
	w := Workload{PctBlocked: 0.3, AvgMsgBytes: 1 << 20}
	times := map[backends.Kind]sim.Time{
		backends.HDN: 200 * sim.Microsecond, backends.GPUTN: 140 * sim.Microsecond,
	}
	trace := GenerateTrace(w, 2000, times[backends.HDN], 11)
	// Walk the trace call by call: total time = Σ compute + Σ t_B scaled
	// linearly in each call's bytes from the backend's time at the mean size.
	var compute float64
	for _, c := range trace {
		compute += float64(c.ComputeBefore)
	}
	total := map[backends.Kind]float64{}
	for kind, tB := range times {
		total[kind] = compute
		for _, c := range trace {
			total[kind] += float64(tB) * float64(c.Bytes) / float64(w.AvgMsgBytes)
		}
	}
	fromTrace := map[backends.Kind]float64{}
	for kind := range times {
		fromTrace[kind] = total[backends.HDN] / total[kind]
	}
	closed := Project(w, times)
	for kind := range times {
		if math.Abs(fromTrace[kind]-closed[kind]) > 0.05 {
			t.Fatalf("%s: trace %v vs closed %v", kind, fromTrace[kind], closed[kind])
		}
	}
}

func TestAllreduceTimesAllBackends(t *testing.T) {
	times, err := AllreduceTimes(config.Default(), 4, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 4 {
		t.Fatalf("times = %v", times)
	}
	if !(times[backends.GPUTN] < times[backends.GDS] && times[backends.GDS] < times[backends.HDN]) {
		t.Fatalf("backend ordering violated: %v", times)
	}
}

func TestSweepNodesGainsGrowWithScale(t *testing.T) {
	w := Table3()[1] // AN4 LSTM: the most communication-bound workload
	res, err := SweepNodes(config.Default(), w, []int{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if res[16] <= res[4] {
		t.Fatalf("GPU-TN projection should grow with node count: 4=%.4f 16=%.4f", res[4], res[16])
	}
	for n, s := range res {
		if s < 1 {
			t.Fatalf("%d nodes: speedup %v < 1", n, s)
		}
	}
}

func TestRunStudyShape(t *testing.T) {
	// The Figure 11 qualitative claims on an 8-node cluster.
	results, err := RunStudy(config.Default(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("results = %d", len(results))
	}
	byName := map[string]StudyResult{}
	for _, r := range results {
		byName[r.Workload.Name] = r
		// GPU-TN >= GDS >= HDN on every workload.
		if r.Speedup[backends.GPUTN] < r.Speedup[backends.GDS] {
			t.Errorf("%s: GPU-TN (%v) < GDS (%v)", r.Workload.Name,
				r.Speedup[backends.GPUTN], r.Speedup[backends.GDS])
		}
		if r.Speedup[backends.GDS] < r.Speedup[backends.HDN] {
			t.Errorf("%s: GDS < HDN", r.Workload.Name)
		}
	}
	// CIFAR shows little improvement (paper: "little improvement as in
	// the CIFAR workload").
	if s := byName["CIFAR"].Speedup[backends.GPUTN]; s > 1.06 {
		t.Errorf("CIFAR speedup = %v, should be marginal", s)
	}
	// AN4 LSTM shows the largest gains.
	an4 := byName["AN4 LSTM"].Speedup[backends.GPUTN]
	for name, r := range byName {
		if r.Speedup[backends.GPUTN] > an4 {
			t.Errorf("%s (%v) exceeds AN4 LSTM (%v)", name, r.Speedup[backends.GPUTN], an4)
		}
	}
	if an4 < 1.08 {
		t.Errorf("AN4 LSTM GPU-TN speedup = %v, too small for the paper's ~20%% claim regime", an4)
	}
}
