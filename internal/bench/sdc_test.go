package bench

import (
	"reflect"
	"testing"

	"repro/internal/config"
)

// The SDC sweep's unverified arm measures what an application with no
// integrity layer sees, so a caller's e2e checksum must not leak into it:
// every cell is the same whether or not the caller armed the checksum.
func TestAblationSDCUnverifiedIgnoresCallerChecksum(t *testing.T) {
	rates := []float64{0.10}
	plain := AblationSDC(config.Default(), rates)
	cfg := config.Default()
	cfg.NIC.E2EChecksum = true
	armed := AblationSDC(cfg, rates)
	if !reflect.DeepEqual(plain, armed) {
		t.Fatalf("caller's e2e checksum changed the sweep:\nplain: %+v\narmed: %+v", plain, armed)
	}
	for _, pt := range plain {
		if !pt.EscapedUnverified {
			t.Fatalf("%s at %v: no unverified escape, so the comparison shows nothing", pt.Class, pt.Rate)
		}
	}
}
