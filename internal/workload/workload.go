// Package workload describes the LLM inference operators the LLaMCAT
// paper evaluates: the decode-stage Logit operator (Q·Kᵀ) under
// Group-Query Attention, with the tensor shapes of Llama3-70B and
// Llama3-405B (Section 6.2.2).
//
// The package owns the physical address map of the tensors involved so
// that every other component (trace generation, caches, DRAM) agrees
// on where bytes live.
package workload

import "fmt"

// ModelConfig is the GQA-relevant shape of a transformer model.
type ModelConfig struct {
	Name      string
	H         int // number of KV head groups
	G         int // query heads per group (group size)
	D         int // head dimension
	ElemBytes int // bytes per K/V element (fp16 = 2)
	OutBytes  int // bytes per attention-score element (fp32 = 4)
}

// The two evaluation models of the paper (Section 6.2.2). Llama3-70B
// has 64 query heads in 8 groups; Llama3-405B has 128 query heads in 8
// groups. Both use a 128-wide head dimension with fp16 KV tensors.
var (
	Llama3_70B = ModelConfig{
		Name: "llama3-70b", H: 8, G: 8, D: 128, ElemBytes: 2, OutBytes: 4,
	}
	Llama3_405B = ModelConfig{
		Name: "llama3-405b", H: 8, G: 16, D: 128, ElemBytes: 2, OutBytes: 4,
	}
)

// ParseModel reads a -model name: 70b or 405b, or the full names
// llama3-70b and llama3-405b.
func ParseModel(name string) (ModelConfig, error) {
	switch name {
	case "70b", Llama3_70B.Name:
		return Llama3_70B, nil
	case "405b", Llama3_405B.Name:
		return Llama3_405B, nil
	}
	return ModelConfig{}, fmt.Errorf("unknown model %q (want 70b or 405b)", name)
}

// Validate checks the shape for internal consistency.
func (m ModelConfig) Validate() error {
	switch {
	case m.H <= 0:
		return fmt.Errorf("workload: model %q: H must be positive, got %d", m.Name, m.H)
	case m.G <= 0:
		return fmt.Errorf("workload: model %q: G must be positive, got %d", m.Name, m.G)
	case m.D <= 0:
		return fmt.Errorf("workload: model %q: D must be positive, got %d", m.Name, m.D)
	case m.ElemBytes <= 0:
		return fmt.Errorf("workload: model %q: ElemBytes must be positive, got %d", m.Name, m.ElemBytes)
	case m.OutBytes <= 0:
		return fmt.Errorf("workload: model %q: OutBytes must be positive, got %d", m.Name, m.OutBytes)
	}
	return nil
}

// LogitOp is one decode-step execution of the Logit operator
// AttScore[h][g][l] = Σ_d Q[h][g][d] · K[h][l][d] over a KV cache of
// SeqLen tokens. This is the paper's benchmark operator: it reads the
// whole cached K tensor once per query head and is the KV-cache-bound
// kernel of the decode stage.
type LogitOp struct {
	Model  ModelConfig
	SeqLen int // L: number of cached tokens attended over
}

// Validate checks the operator shape.
func (op LogitOp) Validate() error {
	if err := op.Model.Validate(); err != nil {
		return err
	}
	if op.SeqLen <= 0 {
		return fmt.Errorf("workload: SeqLen must be positive, got %d", op.SeqLen)
	}
	return nil
}

// Name identifies the operator instance, e.g. "logit/llama3-70b/L8192".
func (op LogitOp) Name() string {
	return fmt.Sprintf("logit/%s/L%d", op.Model.Name, op.SeqLen)
}

// KBytes returns the size of the cached K tensor: H × L × D elements.
// This is the dominant working set of the operator.
func (op LogitOp) KBytes() int64 {
	return int64(op.Model.H) * int64(op.SeqLen) * int64(op.Model.D) * int64(op.Model.ElemBytes)
}

// QBytes returns the size of the Q activations: H × G × D elements.
func (op LogitOp) QBytes() int64 {
	return int64(op.Model.H) * int64(op.Model.G) * int64(op.Model.D) * int64(op.Model.ElemBytes)
}

// OutBytes returns the size of the AttScore output: H × G × L elements.
func (op LogitOp) OutBytes() int64 {
	return int64(op.Model.H) * int64(op.Model.G) * int64(op.SeqLen) * int64(op.Model.OutBytes)
}

// TotalKReadBytes returns the bytes of K read counting every use
// (without any reuse): H × G × L × D. Dividing by KBytes gives the
// ideal reuse factor G delivered by GQA sharing.
func (op LogitOp) TotalKReadBytes() int64 {
	return op.KBytes() * int64(op.Model.G)
}

// AddressMap assigns non-overlapping physical regions to the operator
// tensors. Regions are aligned to 4 KiB so that tensor boundaries never
// share a cache line or DRAM row.
type AddressMap struct {
	KBase   uint64
	QBase   uint64
	OutBase uint64
	Limit   uint64 // one past the last mapped byte
	op      LogitOp
}

const regionAlign = 4096

func alignUp(x uint64, a uint64) uint64 {
	return (x + a - 1) / a * a
}

// NewAddressMap lays out K, Q and AttScore contiguously from base.
func NewAddressMap(op LogitOp, base uint64) (*AddressMap, error) {
	if err := op.Validate(); err != nil {
		return nil, err
	}
	m := &AddressMap{op: op}
	cur := alignUp(base, regionAlign)
	m.KBase = cur
	cur = alignUp(cur+uint64(op.KBytes()), regionAlign)
	m.QBase = cur
	cur = alignUp(cur+uint64(op.QBytes()), regionAlign)
	m.OutBase = cur
	cur = alignUp(cur+uint64(op.OutBytes()), regionAlign)
	m.Limit = cur
	return m, nil
}

// KAddr returns the byte address of K[h][l][d]. Layout is row-major
// [H][L][D], so that one token's head-row (D elements) is contiguous —
// the layout KV-cache implementations use for dense attention reads.
func (m *AddressMap) KAddr(h, l, d int) uint64 {
	op := m.op
	idx := (int64(h)*int64(op.SeqLen)+int64(l))*int64(op.Model.D) + int64(d)
	return m.KBase + uint64(idx*int64(op.Model.ElemBytes))
}

// QAddr returns the byte address of Q[h][g][d], layout [H][G][D].
func (m *AddressMap) QAddr(h, g, d int) uint64 {
	op := m.op
	idx := (int64(h)*int64(op.Model.G)+int64(g))*int64(op.Model.D) + int64(d)
	return m.QBase + uint64(idx*int64(op.Model.ElemBytes))
}

// OutAddr returns the byte address of AttScore[h][g][l], layout
// [H][G][L]: scores of one query head over the sequence are contiguous.
func (m *AddressMap) OutAddr(h, g, l int) uint64 {
	op := m.op
	idx := (int64(h)*int64(op.Model.G)+int64(g))*int64(op.SeqLen) + int64(l)
	return m.OutBase + uint64(idx*int64(op.Model.OutBytes))
}

// Region reports which tensor an address belongs to: "K", "Q", "Out"
// or "" when unmapped.
func (m *AddressMap) Region(addr uint64) string {
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
func (m *AddressMap) Op() LogitOp { return m.op }
