package collective

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/nic"
	"repro/internal/portals"
	"repro/internal/sim"
)

// The pipelined GPU-TN Allreduce implements §5.4.1's statement that "our
// implementation triggers the network operation at the granularity of a
// work-group; this allows for easy software pipelining of the computation
// and network transfer": each ring chunk is split into `ways` slices, one
// per work-group. A work-group reduces its slice and immediately triggers
// that slice's pre-registered put (threshold 1), so slice w of round k can
// be on the wire while slice w+1 is still being reduced — the per-slice
// rings progress independently and the transfer overlaps the compute.

// pipeMsg is the wire payload of one pipelined slice.
type pipeMsg struct {
	step  int
	slice int
	vals  []float32
}

// pipeTag maps (round, slice) to a unique trigger tag.
func pipeTag(step, slice, ways int) uint64 {
	return uint64(step*ways+slice) + 1
}

// sliceRange subdivides the chunk element range [lo, hi) into `ways`
// slices and returns slice w's bounds.
func sliceRange(lo, hi, ways, w int) (int, int) {
	span := hi - lo
	base := span / ways
	slo := lo + w*base
	shi := slo + base
	if w == ways-1 {
		shi = hi
	}
	return slo, shi
}

// runGPUTNPipelined executes the collective with work-group-granularity
// triggering across `ways` independent slice rings.
func runGPUTNPipelined(p *sim.Proc, st *rankState, ways int) {
	host := core.NewHost(st.nd.Eng, st.nd.Ptl, st.nd.GPU)
	comp := host.NewCompletion()
	trig := host.GetTriggerAddr()
	total := len(st.rounds)
	rounds := st.rounds

	// Per-slice delivery counters.
	sliceCTs := make([]*portals.CT, ways)
	for w := range sliceCTs {
		sliceCTs[w] = st.nd.Ptl.CTAlloc()
	}
	st.pipeCTs = sliceCTs

	// Bandwidth is shared among the concurrently streaming slices, so a
	// slice's reduce takes as long as a full-chunk round; the win comes
	// from overlapping that time with the other slices' transfers.
	perSlice := st.gpuReducePerWGTime()

	// round[w] is the round work-group w is in, and sent[w] marks that
	// it stored the round's tag and began its poll.
	round := make([]int, ways)
	sent := make([]bool, ways)
	kern := &gpu.Kernel{
		Name:       fmt.Sprintf("gputn.allreduce.pipe.%d", st.nd.Index),
		WorkGroups: ways,
		Step: func(wg *gpu.WGCtx) bool {
			w := wg.Group
			for ; round[w] < len(rounds); round[w]++ {
				r := rounds[round[w]]
				if !sent[w] {
					// Send this slice of the outgoing chunk: threshold 1,
					// one leader store per work-group (Figure 7b).
					wg.Barrier()
					wg.FenceSystem()
					wg.StoreTag(trig, st.tagBase+pipeTag(r.Step, w, ways))
					// Wait for the neighbour's matching slice, then
					// reduce it.
					sent[w] = true
					if wg.Await(sliceCTs[w].Raw(), int64(r.Step)+1) {
						return true
					}
				}
				sent[w] = false
				if r.Reduce {
					wg.Compute(perSlice)
				}
			}
			return false
		},
	}
	host.LaunchKern(kern)

	// Slice payload size: the last slice absorbs remainders.
	sliceBytes := func(r Round, w int) int64 {
		lo, hi := ChunkRange(st.nelems, st.nranks, r.SendChunk)
		slo, shi := sliceRange(lo, hi, ways, w)
		return int64(shi-slo) * elemBytes
	}

	register := func(step int) {
		r := rounds[step]
		for w := 0; w < ways; w++ {
			bytes := sliceBytes(r, w)
			md := st.nd.Ptl.MDBind("pipe", bytes, st.pipePayload(r, w, ways), comp.CT)
			if err := host.TrigPut(p, st.tagBase+pipeTag(step, w, ways), 1, md, bytes, st.right(), st.mb); err != nil {
				panic(fmt.Sprintf("collective: pipelined rank %d step %d slice %d: %v", st.nd.Index, step, w, err))
			}
		}
	}
	// Sliding window in rounds, sized to the 16-entry trigger list.
	window := trigWindow / ways
	if window < 1 {
		window = 1
	}
	if window > total {
		window = total
	}
	for s := 0; s < window; s++ {
		register(s)
	}
	for s := window; s < total; s++ {
		comp.WaitHost(p, int64(s-window+1)*int64(ways))
		register(s)
	}
	kern.Wait(p)
}

// pipePayload captures slice w of the round's outgoing chunk at DMA time.
// The (step, slice) metadata always travels, even in size-only runs, so
// the receiver can credit the right slice counter.
func (st *rankState) pipePayload(r Round, w, ways int) any {
	step, chunk := r.Step, r.SendChunk
	return nic.Deferred(func() any {
		if st.vec == nil {
			return pipeMsg{step: step, slice: w}
		}
		lo, hi := ChunkRange(st.nelems, st.nranks, chunk)
		slo, shi := sliceRange(lo, hi, ways, w)
		return pipeMsg{step: step, slice: w, vals: append([]float32(nil), st.vec[slo:shi]...)}
	})
}

// applyPipeDelivery installs one pipelined slice and bumps its counter.
func (st *rankState) applyPipeDelivery(d nic.Delivery, ways int) {
	msg := d.Data.(pipeMsg)
	if st.vec != nil {
		r := st.rounds[msg.step]
		lo, hi := ChunkRange(st.nelems, st.nranks, r.RecvChunk)
		slo, shi := sliceRange(lo, hi, ways, msg.slice)
		if len(msg.vals) != shi-slo {
			panic(fmt.Sprintf("collective: pipelined slice size mismatch %d vs %d", len(msg.vals), shi-slo))
		}
		if r.Reduce {
			for k, v := range msg.vals {
				st.vec[slo+k] += v
			}
		} else {
			copy(st.vec[slo:shi], msg.vals)
		}
	}
	st.pipeCTs[msg.slice].Inc(1)
}

// validatePipeline checks a pipelined configuration.
func validatePipeline(cfg Config, n int) error {
	if cfg.Pipeline < 0 {
		return fmt.Errorf("collective: negative pipeline ways")
	}
	if cfg.Pipeline > 1 {
		chunkElems := cfg.TotalBytes / elemBytes / int64(n)
		if int64(cfg.Pipeline) > chunkElems {
			return fmt.Errorf("collective: %d pipeline ways exceed %d chunk elements", cfg.Pipeline, chunkElems)
		}
		if cfg.Pipeline > trigWindow {
			return fmt.Errorf("collective: %d pipeline ways exceed the trigger window (%d)", cfg.Pipeline, trigWindow)
		}
	}
	return nil
}
