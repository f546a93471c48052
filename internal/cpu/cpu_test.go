package cpu

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/memsys"
	"repro/internal/sim"
)

func newCPU(t testing.TB) (*sim.Engine, *CPU) {
	t.Helper()
	cfg := config.Default()
	eng := sim.NewEngine()
	return eng, New(eng, cfg.CPU, memsys.FromCPU(cfg.CPU))
}

func TestRuntimeCallCost(t *testing.T) {
	eng, c := newCPU(t)
	var dur sim.Time
	eng.Go("p", func(p *sim.Proc) {
		t0 := p.Now()
		c.RuntimeCall(p)
		dur = p.Now() - t0
	})
	eng.Run()
	if dur != c.Config().RuntimeCall {
		t.Fatalf("RuntimeCall = %v", dur)
	}
}

func TestSendRecvProcessing(t *testing.T) {
	eng, c := newCPU(t)
	var send, recv sim.Time
	eng.Go("p", func(p *sim.Proc) {
		t0 := p.Now()
		c.SendProcessing(p)
		send = p.Now() - t0
		t0 = p.Now()
		c.RecvProcessing(p)
		recv = p.Now() - t0
	})
	eng.Run()
	if send != c.Config().SendOverhead {
		t.Fatalf("send = %v", send)
	}
	if recv >= send || recv <= 0 {
		t.Fatalf("recv = %v (should be cheaper than send)", recv)
	}
}

func TestParallelSpeedupOverSerial(t *testing.T) {
	_, c := newCPU(t)
	ops := int64(1 << 24)         // compute-bound
	serial := c.arithTime(ops, 1) // one core
	par := c.ComputeTime(ops, 0, 0)
	ratio := float64(serial) / float64(par)
	if ratio < 7.5 || ratio > 8.5 {
		t.Fatalf("parallel speedup = %.2f, want ~8 (cores)", ratio)
	}
}

func TestMemoryBoundPhaseUsesBandwidth(t *testing.T) {
	_, c := newCPU(t)
	// Huge streaming working set: ops cheap, memory dominates.
	bytes := int64(1 << 28)
	got := c.ComputeTime(1, bytes, bytes)
	want := memsys.FromCPU(c.Config()).StreamTime(bytes)
	if got != want {
		t.Fatalf("memory-bound time = %v, want stream time %v", got, want)
	}
}

func TestCacheResidentFasterThanDRAM(t *testing.T) {
	_, c := newCPU(t)
	bytes := int64(1 << 18)
	inCache := c.ComputeTime(0, bytes, 1<<18) // fits L2/L3
	inDRAM := c.ComputeTime(0, bytes, 1<<28)  // streams DRAM
	if inCache >= inDRAM {
		t.Fatalf("cache-resident %v not faster than DRAM %v", inCache, inDRAM)
	}
}

func TestZeroWork(t *testing.T) {
	_, c := newCPU(t)
	if c.ComputeTime(0, 0, 0) != 0 || c.arithTime(0, 1) != 0 {
		t.Fatal("zero work must take zero time")
	}
}

// Property: compute time is monotone in ops and bytes.
func TestComputeTimeMonotone(t *testing.T) {
	_, c := newCPU(t)
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		ws := int64(1 << 22)
		return c.ComputeTime(x, 0, 0) <= c.ComputeTime(y, 0, 0) &&
			c.ComputeTime(0, x, ws) <= c.ComputeTime(0, y, ws)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
