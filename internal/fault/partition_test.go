package fault

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

func cutAt(a []int, at, heal sim.Time) config.PartitionConfig {
	return config.PartitionConfig{Events: []config.PartitionEvent{
		{A: a, At: at, HealAfter: heal},
	}}
}

// A symmetric cut blackholes both directions across the cut while active,
// neither direction before the cut or after the heal, and never traffic
// that stays on one side.
func TestPartitionBlackholesSymmetricCutAndHeals(t *testing.T) {
	p := NewPartitionPlan(cutAt([]int{2}, 10*sim.Microsecond, 20*sim.Microsecond))
	mid := 15 * sim.Microsecond
	if !p.Blackholed(mid, 2, 0) || !p.Blackholed(mid, 0, 2) {
		t.Fatal("active cut did not blackhole both directions")
	}
	if p.Blackholed(mid, 0, 1) {
		t.Fatal("same-side traffic blackholed")
	}
	if p.Blackholed(9*sim.Microsecond, 2, 0) {
		t.Fatal("blackholed before the cut")
	}
	// The heal instant is exclusive of the cut: At+HealAfter restores flow.
	if p.Blackholed(30*sim.Microsecond, 2, 0) {
		t.Fatal("blackholed after the heal")
	}
}

// HealAfter 0 means the cut never heals.
func TestPartitionNeverHealsWithZeroHealAfter(t *testing.T) {
	p := NewPartitionPlan(cutAt([]int{1}, sim.Microsecond, 0))
	if !p.Blackholed(sim.Second, 1, 0) {
		t.Fatal("permanent cut healed")
	}
}

// An asymmetric cut blackholes only A-to-B: side A's frames vanish, side
// B's still deliver — the gray half-open link.
func TestPartitionAsymmetricBlackholesOneDirection(t *testing.T) {
	p := NewPartitionPlan(config.PartitionConfig{Events: []config.PartitionEvent{
		{A: []int{2}, At: sim.Microsecond, Asymmetric: true},
	}})
	now := 5 * sim.Microsecond
	if !p.Blackholed(now, 2, 0) {
		t.Fatal("A->B not blackholed")
	}
	if p.Blackholed(now, 0, 2) {
		t.Fatal("B->A blackholed despite asymmetric cut")
	}
}

// With an explicit B side, nodes on neither side are unaffected.
func TestPartitionExplicitSidesLeaveBystandersAlone(t *testing.T) {
	p := NewPartitionPlan(config.PartitionConfig{Events: []config.PartitionEvent{
		{A: []int{0}, B: []int{1}, At: sim.Microsecond},
	}})
	now := 5 * sim.Microsecond
	if !p.Blackholed(now, 0, 1) || !p.Blackholed(now, 1, 0) {
		t.Fatal("named sides not cut")
	}
	if p.Blackholed(now, 0, 3) || p.Blackholed(now, 3, 1) || p.Blackholed(now, 2, 3) {
		t.Fatal("bystander traffic blackholed")
	}
}

// Unhealed reports only active never-healing cuts, with sorted sides.
func TestPartitionUnhealedReportsPermanentCutsOnly(t *testing.T) {
	p := NewPartitionPlan(config.PartitionConfig{Events: []config.PartitionEvent{
		{A: []int{3, 1}, At: 10 * sim.Microsecond},                              // permanent
		{A: []int{0}, At: 20 * sim.Microsecond, HealAfter: 5 * sim.Microsecond}, // heals
	}})
	if got := p.Unhealed(5 * sim.Microsecond); len(got) != 0 {
		t.Fatalf("cut reported before it took effect: %v", got)
	}
	got := p.Unhealed(100 * sim.Microsecond)
	if len(got) != 1 {
		t.Fatalf("Unhealed = %v, want exactly the permanent cut", got)
	}
	if len(got[0].A) != 2 || got[0].A[0] != 1 || got[0].A[1] != 3 {
		t.Fatalf("side A = %v, want sorted [1 3]", got[0].A)
	}
	if got[0].At != 10*sim.Microsecond {
		t.Fatalf("At = %v", got[0].At)
	}
	var nilPlan *PartitionPlan
	if nilPlan.Unhealed(0) != nil || nilPlan.Blackholed(0, 0, 1) {
		t.Fatal("nil plan not a no-op")
	}
}

// The injector consults the partition plan per packet: drops count as
// PartitionDrops and no RNG is drawn, so the rest of the schedule is
// unshifted relative to a partition-free run with the same seed.
func TestInjectorPartitionDropsWithoutRNGDraws(t *testing.T) {
	base := config.FaultConfig{Seed: 11, DropProb: 0.3}
	cut := base
	cut.Partition = cutAt([]int{1}, 10*sim.Microsecond, 10*sim.Microsecond)
	plain, parted := NewInjector(base, 4), NewInjector(cut, 4)
	// Packets that never touch the cut must get identical verdicts whether
	// or not the partition schedule is armed.
	for i := 0; i < 200; i++ {
		now := sim.Time(i) * sim.Microsecond
		a := plain.Packet(now, 0, 2)
		b := parted.Packet(now, 0, 2)
		if a != b {
			t.Fatalf("packet %d: partition schedule shifted an unrelated verdict: %+v vs %+v", i, a, b)
		}
	}
	if f := parted.Packet(15*sim.Microsecond, 1, 0); !f.Drop {
		t.Fatal("cut packet not dropped")
	}
	st := parted.Stats()
	if st.PartitionDrops != 1 {
		t.Fatalf("PartitionDrops = %d, want 1", st.PartitionDrops)
	}
}

// Degradation windows: latency inflation applies inside the window (and
// picks the worst matching factor); the loss draw happens only inside.
func TestDegradeWindowInflatesLatencyInsideWindow(t *testing.T) {
	in := NewInjector(config.FaultConfig{Degrade: config.DegradeConfig{Windows: []config.DegradeWindow{
		{Src: 2, Dst: -1, From: 10 * sim.Microsecond, Until: 20 * sim.Microsecond, LatencyFactor: 10},
		{Src: -1, Dst: -1, From: 10 * sim.Microsecond, Until: 20 * sim.Microsecond, LatencyFactor: 3},
	}}}, 4)
	if f := in.Packet(15*sim.Microsecond, 2, 0); f.DelayFactor != 10 {
		t.Fatalf("DelayFactor = %v, want the worst matching window (10)", f.DelayFactor)
	}
	if f := in.Packet(15*sim.Microsecond, 0, 1); f.DelayFactor != 3 {
		t.Fatalf("DelayFactor = %v, want the wildcard window (3)", f.DelayFactor)
	}
	if f := in.Packet(25*sim.Microsecond, 2, 0); f.DelayFactor != 0 {
		t.Fatalf("DelayFactor = %v outside the window", f.DelayFactor)
	}
	if st := in.Stats(); st.DegradeSlowed != 2 {
		t.Fatalf("DegradeSlowed = %d, want 2", st.DegradeSlowed)
	}
}

// Certain loss inside a window drops every matching packet and only those.
func TestDegradeWindowLossIsScoped(t *testing.T) {
	in := NewInjector(config.FaultConfig{Seed: 5, Degrade: config.DegradeConfig{Windows: []config.DegradeWindow{
		{Src: -1, Dst: 1, From: 0, Until: 10 * sim.Microsecond, LossProb: 1},
	}}}, 4)
	if f := in.Packet(5*sim.Microsecond, 0, 1); !f.Drop {
		t.Fatal("certain in-window loss did not drop")
	}
	if f := in.Packet(5*sim.Microsecond, 1, 0); f.Drop {
		t.Fatal("reverse direction dropped")
	}
	if f := in.Packet(15*sim.Microsecond, 0, 1); f.Drop {
		t.Fatal("dropped outside the window")
	}
	if st := in.Stats(); st.DegradeDrops != 1 {
		t.Fatalf("DegradeDrops = %d, want 1", st.DegradeDrops)
	}
}

// Ramped loss climbs linearly from zero at From to LossProb at Until.
func TestDegradeRampScalesLoss(t *testing.T) {
	w := &config.DegradeWindow{
		From: 0, Until: 100 * sim.Microsecond, LossProb: 0.8, Ramp: true,
	}
	if got := degradeLoss(w, 0); got != 0 {
		t.Fatalf("loss at window start = %v, want 0", got)
	}
	if got := degradeLoss(w, 50*sim.Microsecond); got < 0.39 || got > 0.41 {
		t.Fatalf("loss at midpoint = %v, want ~0.4", got)
	}
	if got := degradeLoss(w, 99*sim.Microsecond); got < 0.78 {
		t.Fatalf("loss near window end = %v, want ~0.8", got)
	}
	w.Ramp = false
	if got := degradeLoss(w, 0); got != 0.8 {
		t.Fatalf("unramped loss = %v, want flat 0.8", got)
	}
}

// The run-header summary names armed partitions and degradation windows.
func TestSummaryMentionsPartitionAndDegrade(t *testing.T) {
	in := NewInjector(config.FaultConfig{
		Partition: config.PartitionConfig{Events: []config.PartitionEvent{
			{A: []int{2}, At: sim.Microsecond, Asymmetric: true},
		}},
		Degrade: config.DegradeConfig{Windows: []config.DegradeWindow{
			{Src: 2, Dst: -1, Until: sim.Microsecond, LatencyFactor: 10, LossProb: 0.1},
		}},
	}, 4)
	s := in.Summary()
	for _, want := range []string{"partition", "degrade"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary %q missing %q", s, want)
		}
	}
}
