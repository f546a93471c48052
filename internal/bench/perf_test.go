package bench

import (
	"testing"
	"time"
)

// A timed perf run covers at least perfMinSampleWall: a short experiment
// repeats until it does, a long one runs once.
func TestTimeRepsCoversMinimumWall(t *testing.T) {
	wall, n := timeReps(func() { time.Sleep(time.Millisecond) })
	if wall < perfMinSampleWall || n < 2 {
		t.Fatalf("1 ms body: %d reps over %v, want several covering %v", n, wall, perfMinSampleWall)
	}
	wall, n = timeReps(func() { time.Sleep(perfMinSampleWall + 10*time.Millisecond) })
	if n != 1 || wall < perfMinSampleWall {
		t.Fatalf("body longer than the minimum: %d reps over %v, want 1", n, wall)
	}
}

// ComparePerf fails a row on a changed event count, on allocs/event above
// the fixed margin, and on events/sec below the tolerance floor; each gate
// fires on its own, and rows at another shard count are not compared.
func TestComparePerfGates(t *testing.T) {
	row := PerfResult{Name: "fig1", Events: 3000, EventsPerSec: 1e6, AllocsPerEvent: 2, Runs: 3}
	base := &PerfReport{Experiments: []PerfResult{row}}
	cases := []struct {
		name string
		edit func(r *PerfResult)
		fail bool
	}{
		{"same", func(r *PerfResult) {}, false},
		{"one event fewer", func(r *PerfResult) { r.Events-- }, true},
		{"one event more", func(r *PerfResult) { r.Events++ }, true},
		{"allocs within margin", func(r *PerfResult) { r.AllocsPerEvent += perfAllocsMargin / 2 }, false},
		{"allocs past margin", func(r *PerfResult) { r.AllocsPerEvent += 2 * perfAllocsMargin }, true},
		{"fewer allocs", func(r *PerfResult) { r.AllocsPerEvent = 0 }, false},
		{"slower within tolerance", func(r *PerfResult) { r.EventsPerSec = 0.75e6 }, false},
		{"slower past tolerance", func(r *PerfResult) { r.EventsPerSec = 0.65e6 }, true},
		{"other shard count", func(r *PerfResult) { r.Shards, r.Events = 4, 1 }, false},
	}
	for _, c := range cases {
		cur := row
		c.edit(&cur)
		got := ComparePerf(&PerfReport{Experiments: []PerfResult{cur}}, base, 0.30)
		if (len(got) > 0) != c.fail {
			t.Errorf("%s: failures %q, want failing=%v", c.name, got, c.fail)
		}
	}
}
