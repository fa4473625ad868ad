// Trace generation for the AV operator (see internal/workload/av.go).
// The loop structure mirrors the Logit operator — thread blocks tile
// the (h, g, l) space, V rows stream like K rows — with one extra
// pattern: the D-wide output accumulator is read-modify-written per
// tile (cache-resident accumulation), so the AV trace additionally
// exercises the write-allocate/write-back path of the LLC.

package dataflow

import (
	"fmt"

	"repro/internal/memtrace"
	"repro/internal/workload"
)

// ValidateAV checks a mapping against the AV operator's constraints
// (the same constraints as Logit; the accumulator RMW adds none).
func (m Mapping) ValidateAV(op workload.AVOp, lineBytes int) error {
	logitEquiv := workload.LogitOp{Model: op.Model, SeqLen: op.SeqLen}
	return m.Validate(logitEquiv, lineBytes)
}

// GenerateAV unrolls a mapping into the AV operator's thread-block
// trace, appending the blocks to dst and returning them. Each block
// (h, g, [l0,l1)) performs:
//
//	LD Out[h][g][:]              (accumulator read)
//	LD AttProb[h][g][l0..l1)     (one line per 16 positions)
//	for each l in [l0, l1):
//	    LD V[h][l][:]            (VectorBytes-wide accesses)
//	    CP ComputePerRow
//	ST Out[h][g][:]              (accumulator writeback)
func GenerateAV(op workload.AVOp, amap *workload.AVAddressMap, m Mapping, lineBytes int, dst *memtrace.Slab) ([]memtrace.ThreadBlock, error) {
	if err := m.ValidateAV(op, lineBytes); err != nil {
		return nil, err
	}
	if amap.Op() != op {
		return nil, fmt.Errorf("dataflow: address map built for %s, not %s", amap.Op().Name(), op.Name())
	}
	rowBytes := op.Model.D * op.Model.ElemBytes
	vecPerRow := (rowBytes + m.VectorBytes - 1) / m.VectorBytes
	accBytes := op.Model.D * op.Model.OutBytes
	vecPerAcc := (accBytes + m.VectorBytes - 1) / m.VectorBytes
	size := func(l0, l1 int) int {
		return vecPerAcc + 1 + (l1-l0)*vecPerRow + (l1 - l0) + 1
	}
	fill := func(tb *memtrace.ThreadBlock, h, g, l0, l1 int) {
		// Accumulator read.
		tb.Insts = vectors(tb.Insts, amap.OutAddr(h, g, 0), accBytes, m.VectorBytes)
		// Probability tile: contiguous fp32 span.
		tb.Insts = append(tb.Insts, memtrace.Inst{
			Kind:  memtrace.KindLoad,
			Addr:  amap.ProbAddr(h, g, l0),
			Width: uint32((l1 - l0) * op.Model.OutBytes),
		})
		// Stream V rows.
		for l := l0; l < l1; l++ {
			tb.Insts = vectors(tb.Insts, amap.VAddr(h, l, 0), rowBytes, m.VectorBytes)
			if m.ComputePerRow > 0 {
				tb.Insts = append(tb.Insts, memtrace.Inst{
					Kind:   memtrace.KindCompute,
					Cycles: uint32(m.ComputePerRow),
				})
			}
		}
		// Accumulator writeback.
		tb.Insts = append(tb.Insts, memtrace.Inst{
			Kind:  memtrace.KindStore,
			Addr:  amap.OutAddr(h, g, 0),
			Width: uint32(accBytes),
		})
	}
	logitEquiv := workload.LogitOp{Model: op.Model, SeqLen: op.SeqLen}
	return unroll(dst, m, op.Model, op.SeqLen, m.TileL(logitEquiv, lineBytes), size, fill), nil
}
