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
