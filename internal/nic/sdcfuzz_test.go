package nic

import (
	"encoding/binary"
	"testing"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/sim"
)

// fuzzBlob is a checksummable, corruptible test payload.
type fuzzBlob struct {
	words   []uint32
	tainted bool
}

func (b fuzzBlob) ChecksumBytes() []byte {
	out := make([]byte, 0, 4*len(b.words))
	for _, w := range b.words {
		out = binary.LittleEndian.AppendUint32(out, w)
	}
	return out
}

func (b fuzzBlob) CorruptCopy() any {
	cp := b
	cp.words = append([]uint32(nil), b.words...)
	if len(cp.words) > 0 {
		cp.words[0] ^= 1 << 22
	}
	cp.tainted = true
	return cp
}

func (b fuzzBlob) IsCorrupt() bool { return b.tainted }

// newE2ERig wires two reliable NICs with the end-to-end checksum armed and
// buffer corruption at rest on the sender.
func newE2ERig(t testing.TB, bufferProb float64, seed int64) *rig {
	t.Helper()
	cfg := config.Default()
	cfg.NIC.Reliability = config.DefaultReliability()
	cfg.NIC.E2EChecksum = true
	eng := sim.NewEngine()
	fab := network.New(eng, cfg.Network, 2)
	inj := fault.NewInjector(config.FaultConfig{
		Seed: seed,
		SDC:  config.SDCConfig{Seed: seed, BufferNode: 0, BufferProb: bufferProb},
	}, 2)
	fab.SetInjector(inj)
	r := &rig{eng: eng, fab: fab}
	for i := 0; i < 2; i++ {
		nc := New(eng, cfg.NIC, network.NodeID(i), fab)
		nc.SetInjector(inj)
		r.nics = append(r.nics, nc)
	}
	return r
}

// FuzzE2ERetransmit drives the e2e NACK/retransmit machinery under fuzzed
// buffer-corruption rates and batch sizes, with an epoch reset (sender
// crash + cold restart) between two batches. Invariants, enforced for any
// input:
//
//   - every frame is eventually delivered exactly once, in order — a
//     corrupted buffer is caught at the destination, NACKed, and the
//     retransmission (checksum freshly recomputed over the staged bytes,
//     now self-consistent) goes through;
//   - strikes equal injected corruptions exactly, across the epoch reset:
//     one NACK and one strike per corruption. A retransmission carrying a
//     stale checksum would fail verification again and NACK-loop forever
//     (failing delivery); a strike not deduplicated per (session, seq)
//     would double-count (failing the strike equality).
func FuzzE2ERetransmit(f *testing.F) {
	f.Add(int64(1), byte(0), uint8(4), uint8(4))
	f.Add(int64(2), byte(50), uint8(8), uint8(8))
	f.Add(int64(3), byte(100), uint8(1), uint8(1))
	f.Add(int64(7), byte(33), uint8(12), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, probByte byte, n1, n2 uint8) {
		c1, c2 := int64(n1%16)+1, int64(n2%16)
		prob := float64(probByte%101) / 100
		r := newE2ERig(t, prob, seed)

		recv := sim.NewCounter(r.eng)
		var order []int
		r.nics[1].ExposeRegion(&Region{
			MatchBits: 0x10,
			Counter:   recv,
			OnDelivery: func(d Delivery) {
				order = append(order, int(d.Data.(fuzzBlob).words[0]&0xFFFF))
			},
		})
		send := func(p *sim.Proc, from, to int64) {
			for i := from; i < to; i++ {
				r.nics[0].PostCommand(p, &Command{
					Kind: OpPut, Target: 1, MatchBits: 0x10, Size: 4 << 10,
					Data: fuzzBlob{words: []uint32{uint32(i), 0xDEAD0000 | uint32(i)}},
				})
			}
		}
		r.eng.Go("host", func(p *sim.Proc) {
			send(p, 0, c1)
			recv.WaitGE(p, c1)
			// Epoch reset: the sender crashes cold and comes back under a
			// new incarnation; the receiver adopts it (resetting its
			// per-session strike dedup) and the second batch flows.
			r.nics[0].Crash()
			p.Sleep(5 * sim.Microsecond)
			r.nics[0].Restart()
			r.nics[0].AnnounceEpoch(1)
			p.Sleep(5 * sim.Microsecond)
			send(p, c1, c1+c2)
			recv.WaitGE(p, c1+c2)
		})
		r.eng.Run()

		total := c1 + c2
		if recv.Value() != total {
			t.Fatalf("delivered %d frames, want %d", recv.Value(), total)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("delivery order %v: position %d holds %d", order, i, v)
			}
		}
		corruptions := r.nics[0].Injector().SDC().Stats().BufferCorruptions
		rs := r.nics[1].Stats()
		if strikes := r.nics[1].IntegrityStrikes(0); strikes != corruptions {
			t.Fatalf("strikes=%d, want exactly one per corruption (%d)", strikes, corruptions)
		}
		if rs.E2EChecksumFails != corruptions {
			t.Fatalf("E2EChecksumFails=%d, want %d (each corruption caught exactly once)", rs.E2EChecksumFails, corruptions)
		}
		if rs.NacksSent != corruptions {
			t.Fatalf("NacksSent=%d, want %d", rs.NacksSent, corruptions)
		}
		if rs.SDCUndetected != corruptions {
			t.Fatalf("SDCUndetected=%d, want %d (each freshened retransmit escapes the frame layer)", rs.SDCUndetected, corruptions)
		}
		if prob == 0 && (corruptions != 0 || r.nics[0].Stats().Retransmits != 0) {
			t.Fatalf("zero-rate run did integrity work: corruptions=%d retx=%d", corruptions, r.nics[0].Stats().Retransmits)
		}
	})
}
