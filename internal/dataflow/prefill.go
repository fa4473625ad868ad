// Trace generation for the prefill operator (see
// internal/workload/prefill.go). The loop structure reuses the Logit
// mapping machinery — thread blocks tile the (h, g, lTile) space of
// the key dimension under the same constrained Mapping — but each
// block serves the whole query CHUNK: the K tile is streamed once and
// reused across all ChunkLen chunk tokens, the dot-product work per K
// row is charged ChunkLen times, and ChunkLen score segments are
// stored per output line. Relative to the decode-stage Logit trace
// over the same prefix this multiplies compute and store traffic by
// the chunk length while keeping K read traffic constant — the
// compute-bound character of prefill that chunked schedulers exploit.

package dataflow

import (
	"fmt"

	"repro/internal/memtrace"
	"repro/internal/workload"
)

// logitEquivalent returns the Logit-shaped view of a prefill pass used
// for mapping legality and tiling: the key dimension plays SeqLen.
func logitEquivalent(op workload.PrefillOp) workload.LogitOp {
	return workload.LogitOp{Model: op.Model, SeqLen: op.KVLen}
}

// ValidatePrefill checks a mapping against the prefill operator's
// constraints — the Logit constraints over the key dimension (the
// chunk dimension adds none: chunk tokens share each block's K tile).
func (m Mapping) ValidatePrefill(op workload.PrefillOp, lineBytes int) error {
	if err := op.Validate(); err != nil {
		return err
	}
	return m.Validate(logitEquivalent(op), lineBytes)
}

// FindPrefillMapping selects the mapping for a prefill pass: the
// constrained mapper run on the Logit-equivalent shape, so prefill and
// decode passes over the same prefix tile the key dimension
// identically (and share LLC-resident K tiles across phases).
func FindPrefillMapping(op workload.PrefillOp, lineBytes int) (Mapping, Eval, error) {
	if err := op.Validate(); err != nil {
		return Mapping{}, Eval{}, err
	}
	return FindMapping(logitEquivalent(op), lineBytes)
}

// GeneratePrefill unrolls a mapping into the prefill thread-block
// trace, appending the blocks to dst and returning them. Each block
// (h, g, [l0,l1)) performs:
//
//	LD Q[c][h][g][:] for each chunk token c   (chunk activations)
//	for each l in [l0, l1):
//	    LD K[h][l][:]                         (VectorBytes-wide, read once)
//	    CP ChunkLen × ComputePerRow           (C dot products per row)
//	for each chunk token c, each output line:
//	    ST AttScore[h][g][c][line]            (C score segments)
//
// Blocks are emitted in TBOrder like Generate; the global dispatcher
// interleaves them with any concurrent decode streams' blocks.
func GeneratePrefill(op workload.PrefillOp, amap *workload.PrefillAddressMap, m Mapping, lineBytes int, dst *memtrace.Slab) ([]memtrace.ThreadBlock, error) {
	if err := m.ValidatePrefill(op, lineBytes); err != nil {
		return nil, err
	}
	if amap.Op() != op {
		return nil, fmt.Errorf("dataflow: address map built for %s, not %s", amap.Op().Name(), op.Name())
	}
	c := op.ChunkLen
	rowBytes := op.Model.D * op.Model.ElemBytes
	vecPerRow := (rowBytes + m.VectorBytes - 1) / m.VectorBytes
	qBytes := op.Model.D * op.Model.ElemBytes // one (c, h, g) query row
	vecPerQ := (qBytes + m.VectorBytes - 1) / m.VectorBytes
	outElemsPerLine := lineBytes / op.Model.OutBytes
	size := func(l0, l1 int) int {
		compute := 0
		if m.ComputePerRow > 0 {
			compute = l1 - l0
		}
		return c*vecPerQ + (l1-l0)*vecPerRow + compute + c*m.TBOutLines
	}
	fill := func(tb *memtrace.ThreadBlock, h, g, l0, l1 int) {
		// Load the chunk's query rows for this (h, g) pair.
		for q := 0; q < c; q++ {
			tb.Insts = vectors(tb.Insts, amap.QAddr(q, h, g, 0), qBytes, m.VectorBytes)
		}
		// Stream K rows once for the tile; every row feeds all C
		// chunk tokens, so the dot-product work per row is C×.
		for l := l0; l < l1; l++ {
			tb.Insts = vectors(tb.Insts, amap.KAddr(h, l, 0), rowBytes, m.VectorBytes)
			if m.ComputePerRow > 0 {
				tb.Insts = append(tb.Insts, memtrace.Inst{
					Kind:   memtrace.KindCompute,
					Cycles: uint32(m.ComputePerRow * c),
				})
			}
		}
		// Store every chunk token's score segment for the tile.
		for q := 0; q < c; q++ {
			for l := l0; l < l1; l += outElemsPerLine {
				tb.Insts = append(tb.Insts, memtrace.Inst{
					Kind:  memtrace.KindStore,
					Addr:  amap.OutAddr(h, g, q, l),
					Width: uint32(min((l1-l)*op.Model.OutBytes, lineBytes)),
				})
			}
		}
	}
	return unroll(dst, m, op.Model, op.KVLen, m.TileL(logitEquivalent(op), lineBytes), size, fill), nil
}
