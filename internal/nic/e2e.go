// End-to-end payload integrity: a CRC32C over the message body, computed
// at the source before the frame leaves (for triggered ops: over the GPU
// buffer at DMA time, modeling the kernel checksumming before trigger-
// fire), carried in the frame, and verified at the destination after
// reassembly. Distinct from the link checksum: the link CRC catches wire
// noise (Message.Corrupted) while the e2e sum catches corruption the link
// never sees — device-buffer bit flips, DMA errors, silent wire corruption
// (Message.SilentCorrupt). A failed verification on a reliable channel
// NACKs the frame for retransmission and counts one SDC strike against
// the sender, deduplicated per (session, sequence) so a retransmission of
// the same frame can never double-count; on the unreliable path the frame
// is dropped. Pay-for-use: with NICConfig.E2EChecksum off no sums are
// computed, no latency is added, and traces stay bit-for-bit.
package nic

import (
	"hash/crc32"

	"repro/internal/network"
)

// castagnoli is the CRC32C table (the polynomial iSCSI and modern NICs
// use for end-to-end data digests).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CRC32C returns the Castagnoli CRC of the payload body.
func CRC32C(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// ChecksumBody is implemented by payloads that expose their body bytes for
// end-to-end checksumming. The returned slice is read, never retained.
type ChecksumBody interface {
	ChecksumBytes() []byte
}

// Checksummed wraps a payload with a checksum the source GPU computed
// before trigger-fire: the NIC carries Sum in the frame instead of
// recomputing at DMA time, so corruption of the buffer between compute
// and send is caught at the destination.
type Checksummed struct {
	Data any
	Sum  uint32
}

// Corruptible is implemented by payloads that support deterministic
// injected bit flips. CorruptCopy returns a corrupted deep copy — never
// mutating the receiver, because staged wire metadata is shared between
// the sender's retransmit queue and the simulated wire. IsCorrupt reports
// whether this copy carries injected corruption (simulator omniscience,
// feeding the detected/undetected escape counters).
type Corruptible interface {
	CorruptCopy() any
	IsCorrupt() bool
}

// e2ePrepare resolves the outbound checksum for a put payload:
// a Checksummed wrapper always unwraps (the source already paid for the
// sum); otherwise, when the e2e layer is armed and the payload exposes
// its body, the NIC computes the sum at DMA time. Returns the unwrapped
// payload and whether checksum work was done (the caller prices it).
func (n *NIC) e2ePrepare(meta *wireMeta, data any) (any, bool) {
	if cs, ok := data.(Checksummed); ok {
		meta.e2eSum, meta.e2eHas = cs.Sum, true
		return cs.Data, true
	}
	if !n.cfg.E2EChecksum {
		return data, false
	}
	if body, ok := data.(ChecksumBody); ok {
		meta.e2eSum, meta.e2eHas, meta.e2eBody = CRC32C(body.ChecksumBytes()), true, true
		return data, true
	}
	return data, false
}

// e2eRefresh recomputes a staged frame's checksum over the current body
// bytes on a copy of the wire metadata — the satellite rule for
// retransmissions: a re-sent frame must carry a freshly computed sum, and
// the copy keeps the receiver-visible pointer of earlier transmissions
// untouched.
func e2eRefresh(meta *wireMeta) *wireMeta {
	if !meta.e2eHas {
		return meta
	}
	body, ok := meta.data.(ChecksumBody)
	if !ok {
		return meta
	}
	fresh := *meta
	fresh.e2eSum = CRC32C(body.ChecksumBytes())
	return &fresh
}

// e2eMaterialize lands silent wire corruption into an arriving frame's
// payload: the link CRC passed, so the flipped bits are now application
// data. The corrupted payload goes onto a copied wireMeta — the original
// pointer is shared with the sender's retransmit queue, whose buffer did
// NOT corrupt. Payloads that cannot flip bits (no Corruptible support)
// pass through untouched: the flips landed in framing the model does not
// represent.
func e2eMaterialize(meta *wireMeta) *wireMeta {
	c, ok := meta.data.(Corruptible)
	if !ok {
		return meta
	}
	fresh := *meta
	fresh.data = c.CorruptCopy()
	return &fresh
}

// e2eFails reports whether the frame's end-to-end checksum mismatches its
// payload body. Frames without a carried sum (e2e off at the source, or a
// body the model cannot serialize) verify vacuously.
func (n *NIC) e2eFails(meta *wireMeta) bool {
	if !meta.e2eHas {
		return false
	}
	body, ok := meta.data.(ChecksumBody)
	if !ok {
		return false
	}
	return CRC32C(body.ChecksumBytes()) != meta.e2eSum
}

// IntegrityStrikes returns the number of deduplicated SDC strikes this
// NIC has recorded against frames from peer: corrupt frames the link
// accepted, indicting the sender's compute or memory rather than the
// wire. The membership layer reads strike counts to drive quarantine.
func (n *NIC) IntegrityStrikes(peer network.NodeID) int64 {
	if n.strikes == nil {
		return 0
	}
	return n.strikes[peer]
}

// noteE2EFail counts one e2e checksum failure, stamping the first one's
// simulated time for detection-latency reporting.
func (n *NIC) noteE2EFail() {
	if n.stats.E2EChecksumFails == 0 {
		n.stats.FirstE2EFailAt = n.eng.Now()
	}
	n.stats.E2EChecksumFails++
}

// addStrike counts one deduplicated strike against peer.
func (n *NIC) addStrike(peer network.NodeID) {
	if n.strikes == nil {
		n.strikes = make(map[network.NodeID]int64)
	}
	n.strikes[peer]++
	n.stats.SDCDetected++
}
