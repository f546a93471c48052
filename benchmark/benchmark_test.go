package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/node"
)

// runTiny runs one in-process child of a workload at the tiny size.
func runTiny(t *testing.T, wl *workload, seed int64) childOutput {
	t.Helper()
	var buf bytes.Buffer
	if err := runChild(&buf, wl, tinySize, seed, 0, ""); err != nil {
		t.Fatal(err)
	}
	out := readChild(&buf, tinySize.ops)
	if len(out.recs) != tinySize.ops || out.sum == nil {
		t.Fatalf("%s: got %d records, summary %v", wl.name, len(out.recs), out.sum)
	}
	for _, r := range out.recs {
		if r.Err != "" {
			t.Fatalf("%s op %d: %s", wl.name, r.Op, r.Err)
		}
	}
	return out
}

func TestWorkloadsRepeatForASeed(t *testing.T) {
	for _, wl := range workloads {
		a, b := runTiny(t, wl, 1), runTiny(t, wl, 1)
		if digest(a.recs) != digest(b.recs) {
			t.Errorf("%s: seed 1 gave digests %s and %s", wl.name, digest(a.recs), digest(b.recs))
		}
		if a.recs[0].Counts.Events == 0 || a.recs[0].Counts.SimPs == 0 {
			t.Errorf("%s: op recorded no events or simulated time: %+v", wl.name, a.recs[0].Counts)
		}
	}
}

func TestSeedChangesInputs(t *testing.T) {
	for _, name := range []string{"ring-serial", "recover-lossy"} {
		wl, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a := intVectors(opRand(1, wl.name, 0), 2, 8)
		b := intVectors(opRand(2, wl.name, 0), 2, 8)
		if reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 drew the same vectors %v", name, a)
		}
	}
	rec, _ := workloadByName("recover-lossy")
	a := rec.prepare(tinySize, opRand(1, rec.name, 0), 0).cfg
	b := rec.prepare(tinySize, opRand(2, rec.name, 0), 0).cfg
	if reflect.DeepEqual(a.Crash, b.Crash) && a.Faults.Seed == b.Faults.Seed {
		t.Errorf("recover-lossy: seeds 1 and 2 gave the same crash %+v and fault seed", a.Crash)
	}
}

func TestCorruptedReferenceFailsTheOp(t *testing.T) {
	ring, _ := workloadByName("ring-serial")
	corrupt := *ring
	corrupt.prepare = func(sz sizes, rng *rand.Rand, op int) opCase {
		oc := ring.prepare(sz, rng, op)
		run := oc.run
		oc.run = func(c *node.Cluster) (opResult, error) {
			res, err := run(c)
			want := res.want
			res.want = func() [][]float32 {
				w := want()
				w[0] = append([]float32(nil), w[0]...)
				w[0][0]++
				return w
			}
			return res, err
		}
		return oc
	}
	good := runTiny(t, ring, 1)
	var buf bytes.Buffer
	if err := runChild(&buf, &corrupt, tinySize, 1, 0, ""); err != nil {
		t.Fatal(err)
	}
	bad := readChild(&buf, tinySize.ops)
	for _, r := range bad.recs {
		if r.Err == "" {
			t.Errorf("op %d passed against a corrupted reference", r.Op)
		}
	}
	rr := &runResult{workload: ring}
	rr.add(good)
	if rr.failed != 0 {
		t.Fatalf("clean child counted %d failed ops", rr.failed)
	}
	rr.add(bad)
	if rr.failed != tinySize.ops || rr.attempted != 2*tinySize.ops {
		t.Errorf("after a corrupted child: %d of %d failed, want %d of %d", rr.failed, rr.attempted, tinySize.ops, 2*tinySize.ops)
	}
	// A child that died before reporting loses every op it had left.
	rr.add(childOutput{ops: tinySize.ops, recs: good.recs[:1]})
	if rr.failed != tinySize.ops+1 {
		t.Errorf("dead child: %d failed, want %d", rr.failed, tinySize.ops+1)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i)
		}
		return v
	}
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{{99, 0.9, false}, {100, 0.9, true}, {19, 0.5, false}, {20, 0.5, true}, {1000, 0.99, true}, {999, 0.99, false}} {
		got, err := percentile(xs(tc.n), tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("p%g of %d samples: err %v, want ok=%v", 100*tc.p, tc.n, err, tc.ok)
		}
		if err == nil && got != float64(int(tc.p*float64(tc.n))) {
			t.Errorf("p%g of 1..%d = %v", 100*tc.p, tc.n, got)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	ops := metricDef{"ops_per_s", "ops/s", true, 0.10}
	for _, tc := range []struct {
		parent, change []float64
		want           string
	}{
		{[]float64{100, 101, 99, 100, 100}, []float64{100, 102, 99, 101, 100}, "same"},
		{[]float64{100, 101, 99, 100, 100}, []float64{80, 81, 79, 80, 80}, "worse"},
		{[]float64{100, 101, 99, 100, 100}, []float64{130, 131, 129, 130, 130}, "better"},
		{[]float64{60, 140, 100, 70, 130}, []float64{95, 96, 94, 95, 95}, "unresolved"},
		{[]float64{60, 140, 100, 70, 130}, []float64{150, 160, 155, 170, 152}, "better"},
	} {
		if got := verdict(ops, tc.parent, tc.change); got != tc.want {
			t.Errorf("verdict(%v -> %v) = %s, want %s", tc.parent, tc.change, got, tc.want)
		}
	}
}

func TestSpansWriteChromeTrace(t *testing.T) {
	sp := &spanLog{epoch: time.Now()}
	t0 := time.Now()
	sp.add("node.NewCluster", 3, t0, t0.Add(time.Millisecond))
	sp.add("op", 3, t0, t0.Add(2*time.Millisecond))
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := sp.write(path); err != nil {
		t.Fatal(err)
	}
	var got struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.TraceEvents) != 2 || got.TraceEvents[1].Args["op"] != 3 || got.TraceEvents[1].Dur != 2000 {
		t.Errorf("trace events = %+v", got.TraceEvents)
	}
}

func TestDefinitionsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	entries := func(defs []metricDef) []entry {
		var es []entry
		for _, d := range defs {
			e := entry{Name: d.name, Unit: d.unit, Better: "lower", Bound: d.bound}
			if d.higherBetter {
				e.Better = "higher"
			}
			es = append(es, e)
		}
		return es
	}
	if got := entries(endToEnd); !reflect.DeepEqual(got, spec.EndToEnd) {
		t.Errorf("end-to-end metrics %+v, BENCHMARK.json has %+v", got, spec.EndToEnd)
	}
	if got := entries(perLayer()); !reflect.DeepEqual(got, spec.PerLayer) {
		t.Errorf("per-layer metrics %+v, BENCHMARK.json has %+v", got, spec.PerLayer)
	}
	for i, w := range spec.Workloads {
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("BENCHMARK.json workload %d is %q", i, w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
}
