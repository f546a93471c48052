package collective

import "fmt"

// Schedule builders for collectives on the NBC engine. Block payloads are
// supplied by callbacks so the data plane stays with the caller (tests
// verify numerics through NBC.OnDelivery).

// AllgatherSchedule builds the ring allgather plan for one rank: N-1
// rounds, each sending one block right and receiving one from the left.
// payload(block) supplies the block's wire payload at send time; it is
// called after the block has arrived (rounds order the dependency).
func AllgatherSchedule(rank, n int, blockBytes int64, matchBits uint64, payload func(block int) any) (*Schedule, error) {
	if n < 2 {
		return nil, fmt.Errorf("collective: allgather needs >= 2 ranks")
	}
	if rank < 0 || rank >= n {
		return nil, fmt.Errorf("collective: rank %d outside [0,%d)", rank, n)
	}
	right := (rank + 1) % n
	mod := func(x int) int { return ((x % n) + n) % n }
	s := &Schedule{}
	for r := 0; r < n-1; r++ {
		block := mod(rank - r)
		var pf func() any
		if payload != nil {
			b := block
			pf = func() any { return payload(b) }
		}
		s.Rounds = append(s.Rounds, []Action{
			{Kind: ActSend, Peer: right, Size: blockBytes, MatchBits: matchBits, Payload: pf},
			{Kind: ActRecv, Count: 1},
		})
	}
	return s, nil
}
