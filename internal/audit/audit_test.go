package audit

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim"
)

func wantViolations(t *testing.T, a *Auditor, check string, n int) []Violation {
	t.Helper()
	vs, dropped := a.Violations()
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	if len(vs) != n {
		t.Fatalf("violations = %v, want %d", vs, n)
	}
	for _, v := range vs {
		if v.Check != check {
			t.Fatalf("violation check = %q, want %q (%v)", v.Check, check, v)
		}
	}
	return vs
}

func TestNilAuditorHooksAreSafe(t *testing.T) {
	var a *Auditor
	a.TriggerFired(0, 0, 1, 0)
	a.TriggerRetired(0, 1)
	a.PeerEpochSet(0, 0, 1, 1, 2)
	a.Incarnated(0, 0, 1, 2)
	a.Dispatched(0, 0, 1, 1, 1, 1, 1)
	a.MessageSent(0, 1)
	a.MessageDelivered(0, 1)
	a.MessageLost(0, 1)
	a.ViewAdopted(0, 1, []int{0}, 1)
	a.ReductionResult(0, 1, nil, nil, nil)
	a.Finish(0, true)
	if !a.Clean() {
		t.Error("nil auditor not Clean")
	}
	if got := a.Report(); got != "audit{off}" {
		t.Errorf("nil Report() = %q", got)
	}
	if vs, dropped := a.Violations(); vs != nil || dropped != 0 {
		t.Errorf("nil Violations() = %v, %d", vs, dropped)
	}
}

func TestTriggerOnce(t *testing.T) {
	a := New(2)
	a.TriggerFired(10, 0, 1, 0x100)
	a.TriggerFired(20, 0, 2, 0x200)
	a.TriggerFired(30, 1, 1, 0x100) // same regSeq, different node: fine
	if !a.Clean() {
		t.Fatalf("distinct fires flagged: %v", firstOf(a))
	}
	a.TriggerFired(40, 0, 1, 0x100) // second fire of a live instance
	wantViolations(t, a, CheckTriggerOnce, 1)

	// Retiring an instance makes its regSeq reusable (new registration).
	b := New(1)
	b.TriggerFired(10, 0, 7, 0x1)
	b.TriggerRetired(0, 7)
	b.TriggerFired(20, 0, 7, 0x1)
	if !b.Clean() {
		t.Errorf("re-registered instance flagged: %v", firstOf(b))
	}
}

func TestEpochMonotone(t *testing.T) {
	a := New(2)
	a.PeerEpochSet(10, 0, 1, 1, 2)
	a.PeerEpochSet(20, 0, 1, 2, 2) // equal is fine (re-announce)
	a.Incarnated(30, 1, 1, 2)
	if !a.Clean() {
		t.Fatalf("monotone epochs flagged: %v", firstOf(a))
	}
	a.PeerEpochSet(40, 0, 1, 2, 1) // backward view
	a.Incarnated(50, 1, 2, 2)      // incarnation must strictly advance
	wantViolations(t, a, CheckEpochMonotone, 2)
}

func TestStaleDelivery(t *testing.T) {
	a := New(2)
	a.Dispatched(10, 0, 1, 2, 2, 1, 1) // current everything
	a.Dispatched(20, 0, 1, 3, 2, 1, 1) // newer src than view: adoption races are legal
	a.Dispatched(30, 0, 1, 2, 2, 0, 5) // dstEpoch 0 = pre-epoch frame, exempt
	if !a.Clean() {
		t.Fatalf("fresh dispatches flagged: %v", firstOf(a))
	}
	a.Dispatched(40, 0, 1, 1, 2, 1, 1) // src epoch below receiver's view
	a.Dispatched(50, 0, 1, 2, 2, 1, 2) // addressed to the receiver's old life
	wantViolations(t, a, CheckStaleDelivery, 2)
}

func TestConservation(t *testing.T) {
	// Balanced books: sent = delivered + lost.
	a := New(2)
	a.MessageSent(0, 1)
	a.MessageSent(0, 1)
	a.MessageDelivered(0, 1)
	a.MessageLost(0, 1)
	a.Finish(100, true)
	if !a.Clean() {
		t.Fatalf("balanced books flagged: %v", firstOf(a))
	}

	// Deficit after a drained run is a violation...
	b := New(2)
	b.MessageSent(0, 1)
	b.Finish(100, true)
	wantViolations(t, b, CheckConservation, 1)

	// ...but not after a RunUntil cutoff (messages legitimately in flight).
	c := New(2)
	c.MessageSent(0, 1)
	c.Finish(100, false)
	if !c.Clean() {
		t.Fatalf("in-flight message flagged on non-quiescent finish: %v", firstOf(c))
	}

	// Surplus (double delivery) is a violation regardless of quiescence.
	d := New(2)
	d.MessageSent(0, 1)
	d.MessageDelivered(0, 1)
	d.MessageDelivered(0, 1)
	d.Finish(100, false)
	wantViolations(t, d, CheckConservation, 1)
}

// The sparse ledger must still catch every imbalance, including a pair
// that exists only on the delivering side, and report the pairs in (src,
// dst) order with the same text and check count as a dense n×n scan.
func TestConservationSparsePairs(t *testing.T) {
	a := New(4)
	a.MessageDelivered(3, 0) // delivered, never sent: only node 0 has the cell
	a.MessageSent(1, 2)      // sent, never delivered or lost
	a.MessageSent(0, 3)
	a.MessageDelivered(0, 3)
	a.MessageDelivered(0, 3) // double delivery
	a.MessageSent(2, 1)      // balanced by a loss
	a.MessageLost(2, 1)
	a.Finish(100, true)
	vs := wantViolations(t, a, CheckConservation, 3)
	want := []string{
		"pair 0->3: 2 delivered + 0 lost exceeds 1 sent",
		"pair 1->2: 1 sent but only 0 delivered + 0 lost after drain",
		"pair 3->0: 1 delivered + 0 lost exceeds 0 sent",
	}
	for i, v := range vs {
		if v.Detail != want[i] {
			t.Errorf("violation %d = %q, want %q", i, v.Detail, want[i])
		}
	}
	if got := a.ChecksEvaluated(); got != 16 {
		t.Errorf("ChecksEvaluated() = %d, want 16 (every pair of 4 nodes)", got)
	}
}

// New must not allocate per pair: a 4096-node dense ledger was three
// 4096×4096 int64 matrices, about 400 MB.
func TestNewIsLinearInNodes(t *testing.T) {
	const n = 4096
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a := New(n)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(a)
	if perNode := (after.TotalAlloc - before.TotalAlloc) / n; perNode > 2048 {
		t.Errorf("New(%d) allocated %d bytes per node, want O(1) (≤ 2048)", n, perNode)
	}
}

func TestFinishIdempotent(t *testing.T) {
	a := New(2)
	a.MessageSent(0, 1)
	a.Finish(100, true)
	a.Finish(200, true)
	wantViolations(t, a, CheckConservation, 1)
}

func TestSingleMajority(t *testing.T) {
	a := New(5)
	a.ViewAdopted(10, 1, []int{0, 1, 2}, 5)
	a.ViewAdopted(20, 1, []int{2, 1, 0}, 5) // same set, any order
	a.ViewAdopted(30, 2, []int{0, 1, 2, 3}, 4)
	if !a.Clean() {
		t.Fatalf("majority views flagged: %v", firstOf(a))
	}
	a.ViewAdopted(40, 3, []int{0, 1}, 4)    // exactly half: not strict
	a.ViewAdopted(50, 2, []int{0, 1, 2}, 4) // view 2 renamed its member set
	wantViolations(t, a, CheckMajority, 2)
}

func TestExactReduction(t *testing.T) {
	in := [][]float32{{1, 2}, {10, 20}, {100, 200}, nil}
	a := New(4)
	a.ReductionResult(10, 1, []float32{111, 222}, in, []int{0, 1, 2})
	a.ReductionResult(20, 2, []float32{101, 202}, in, []int{0, 2}) // rank 1 dead
	if !a.Clean() {
		t.Fatalf("exact sums flagged: %v", firstOf(a))
	}
	a.ReductionResult(30, 3, []float32{111, 223}, in, []int{0, 1, 2})
	vs := wantViolations(t, a, CheckReduction, 1)
	if !strings.Contains(vs[0].Detail, "elem 1") {
		t.Errorf("violation detail %q does not name elem 1", vs[0].Detail)
	}
}

func TestViolationCapAndOrder(t *testing.T) {
	a := New(1)
	for i := 0; i < maxViolations+5; i++ {
		a.TriggerFired(sim.Time(i), 0, 1, 0)
	}
	vs, dropped := a.Violations()
	// First fire is legal; every later one violates; cap retains maxViolations.
	if len(vs) != maxViolations || dropped != 4 {
		t.Fatalf("got %d retained + %d dropped, want %d + 4", len(vs), dropped, maxViolations)
	}
	for i := 1; i < len(vs); i++ {
		if vs[i].Time < vs[i-1].Time {
			t.Fatalf("violations not time-sorted: %v before %v", vs[i-1], vs[i])
		}
	}
	if !strings.Contains(a.Report(), "violations=68") {
		t.Errorf("Report() = %q, want dropped counted in total", a.Report())
	}
}

func TestChecksEvaluatedAndReport(t *testing.T) {
	a := New(2)
	a.TriggerFired(10, 0, 1, 0)
	a.PeerEpochSet(20, 1, 0, 1, 1)
	a.ViewAdopted(30, 1, []int{0, 1}, 2)
	a.Finish(100, true) // + 4 conservation cells
	if got := a.ChecksEvaluated(); got != 7 {
		t.Errorf("ChecksEvaluated() = %d, want 7", got)
	}
	if got := a.Report(); got != "audit{checks=7 violations=0}" {
		t.Errorf("Report() = %q", got)
	}
}

func TestProcessViolationsCounter(t *testing.T) {
	before := ProcessViolations()
	a := New(1)
	a.TriggerFired(1, 0, 1, 0)
	a.TriggerFired(2, 0, 1, 0)
	if got := ProcessViolations() - before; got != 1 {
		t.Errorf("process counter advanced by %d, want 1", got)
	}
}

func firstOf(a *Auditor) []Violation {
	vs, _ := a.Violations()
	return vs
}
