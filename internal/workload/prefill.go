// The prefill operator — the compute-heavy attention-score pass over
// the prompt that precedes decode. Where the decode-stage Logit
// operator scores ONE new query token against the whole KV cache,
// prefill scores a CHUNK of C prompt tokens against the KVLen-token
// prefix that ends with the chunk (causal attention over the prompt so
// far). Each cached K row therefore serves C query tokens instead of
// one, which is exactly what makes prefill compute-bound where decode
// is memory-bound: the arithmetic intensity per K byte scales with the
// chunk length. Chunked-prefill schedulers (Sarathi-Serve style) pick
// C to trade time-to-first-token against decode-latency interference;
// C = PromptLen is the monolithic prefill pass of prefill-first
// schedulers.
//
// The K tensor layout is identical to LogitOp's K ([H][L][D] from the
// same aligned base), so a prefill pass touches the same KV-cache
// region the stream's later decode steps read — the cross-phase reuse
// a real KV cache exhibits.

package workload

import "fmt"

// PrefillOp is one prefill pass: ChunkLen query tokens (the tail of
// the KVLen-token prompt prefix) scored against all KVLen cached keys.
type PrefillOp struct {
	Model ModelConfig
	// KVLen is the number of cached tokens attended over — the prompt
	// prefix length through the end of this chunk.
	KVLen int
	// ChunkLen is the number of query tokens in this pass (C). A
	// monolithic prefill has ChunkLen == KVLen == PromptLen.
	ChunkLen int
}

// Validate checks the operator shape. Causality bounds the chunk by
// the prefix: the chunk's queries are the last ChunkLen of the KVLen
// tokens.
func (op PrefillOp) Validate() error {
	if err := op.Model.Validate(); err != nil {
		return err
	}
	if op.KVLen <= 0 {
		return fmt.Errorf("workload: prefill KVLen must be positive, got %d", op.KVLen)
	}
	if op.ChunkLen <= 0 {
		return fmt.Errorf("workload: prefill ChunkLen must be positive, got %d", op.ChunkLen)
	}
	if op.ChunkLen > op.KVLen {
		return fmt.Errorf("workload: prefill ChunkLen %d exceeds KVLen %d (chunk queries are part of the prefix)",
			op.ChunkLen, op.KVLen)
	}
	return nil
}

// Name identifies the operator instance, e.g.
// "prefill/llama3-70b/L512c64".
func (op PrefillOp) Name() string {
	return fmt.Sprintf("prefill/%s/L%dc%d", op.Model.Name, op.KVLen, op.ChunkLen)
}

// KBytes returns the size of the cached K tensor: H × KVLen × D
// elements — identical to the Logit operator over the same prefix.
func (op PrefillOp) KBytes() int64 {
	return int64(op.Model.H) * int64(op.KVLen) * int64(op.Model.D) * int64(op.Model.ElemBytes)
}

// QBytes returns the size of the chunk's Q activations:
// ChunkLen × H × G × D elements.
func (op PrefillOp) QBytes() int64 {
	return int64(op.ChunkLen) * int64(op.Model.H) * int64(op.Model.G) *
		int64(op.Model.D) * int64(op.Model.ElemBytes)
}

// OutBytes returns the size of the chunk's AttScore output:
// H × G × ChunkLen × KVLen fp32 scores.
func (op PrefillOp) OutBytes() int64 {
	return int64(op.Model.H) * int64(op.Model.G) * int64(op.ChunkLen) *
		int64(op.KVLen) * int64(op.Model.OutBytes)
}

// TotalKReadBytes returns the bytes of K read counting every use:
// every K row serves G query heads × ChunkLen chunk tokens. Dividing
// by KBytes gives the reuse factor G × ChunkLen — the arithmetic-
// intensity advantage of prefill over decode (whose factor is G).
func (op PrefillOp) TotalKReadBytes() int64 {
	return op.KBytes() * int64(op.Model.G) * int64(op.ChunkLen)
}

// PrefillAddressMap assigns non-overlapping physical regions to the
// prefill tensors. The K region layout matches AddressMap's K for the
// same base and prefix length, so prefill and decode phases of one
// stream share their KV-cache addresses.
type PrefillAddressMap struct {
	KBase   uint64
	QBase   uint64
	OutBase uint64
	Limit   uint64 // one past the last mapped byte
	op      PrefillOp
}

// NewPrefillAddressMap lays out K, Q and AttScore contiguously from
// base, 4 KiB aligned like NewAddressMap, and inlines like it.
func NewPrefillAddressMap(op PrefillOp, base uint64) (*PrefillAddressMap, error) {
	m := new(PrefillAddressMap)
	if err := m.init(op, base); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *PrefillAddressMap) init(op PrefillOp, base uint64) error {
	if err := op.Validate(); err != nil {
		return err
	}
	m.op = op
	m.KBase, m.QBase, m.OutBase, m.Limit = layout(base, op.KBytes(), op.QBytes(), op.OutBytes())
	return nil
}

// KAddr returns the byte address of K[h][l][d] — the same [H][L][D]
// row-major layout as AddressMap.KAddr, so one token's head-row is
// contiguous.
func (m *PrefillAddressMap) KAddr(h, l, d int) uint64 {
	op := m.op
	idx := (int64(h)*int64(op.KVLen)+int64(l))*int64(op.Model.D) + int64(d)
	return m.KBase + uint64(idx*int64(op.Model.ElemBytes))
}

// QAddr returns the byte address of Q[c][h][g][d], layout [C][H][G][D]:
// one chunk token's full head set is contiguous, the activation layout
// the attention kernel receives from the preceding projection.
func (m *PrefillAddressMap) QAddr(c, h, g, d int) uint64 {
	op := m.op
	idx := ((int64(c)*int64(op.Model.H)+int64(h))*int64(op.Model.G)+int64(g))*int64(op.Model.D) + int64(d)
	return m.QBase + uint64(idx*int64(op.Model.ElemBytes))
}

// OutAddr returns the byte address of AttScore[h][g][c][l], layout
// [H][G][C][KVLen]: one chunk token's score row over the prefix is
// contiguous, matching the Logit output layout per query.
func (m *PrefillAddressMap) OutAddr(h, g, c, l int) uint64 {
	op := m.op
	idx := ((int64(h)*int64(op.Model.G)+int64(g))*int64(op.ChunkLen)+int64(c))*int64(op.KVLen) + int64(l)
	return m.OutBase + uint64(idx*int64(op.Model.OutBytes))
}

// Region reports which tensor an address belongs to: "K", "Q", "Out"
// or "" when unmapped.
func (m *PrefillAddressMap) Region(addr uint64) string {
	switch {
	case addr >= m.KBase && addr < m.KBase+uint64(m.op.KBytes()):
		return "K"
	case addr >= m.QBase && addr < m.QBase+uint64(m.op.QBytes()):
		return "Q"
	case addr >= m.OutBase && addr < m.OutBase+uint64(m.op.OutBytes()):
		return "Out"
	default:
		return ""
	}
}

// Op returns the operator this map was built for.
func (m *PrefillAddressMap) Op() PrefillOp { return m.op }
