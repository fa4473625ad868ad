// The AV operator — the second KV-cache-bound kernel of the decode
// stage: Out[h][g][d] = Σ_l AttProb[h][g][l] · V[h][l][d]. The paper
// evaluates the Logit operator (Q·Kᵀ); AV streams the V half of the
// KV cache with the same GQA sharing structure (all G query heads of
// a group read the same V rows), so the CAT mechanisms apply to it
// unchanged. It is provided as an extension workload.

package workload

import "fmt"

// AVOp is one decode-step execution of the attention-value operator
// over a KV cache of SeqLen tokens.
type AVOp struct {
	Model  ModelConfig
	SeqLen int
}

// Validate checks the operator shape.
func (op AVOp) Validate() error {
	if err := op.Model.Validate(); err != nil {
		return err
	}
	if op.SeqLen <= 0 {
		return fmt.Errorf("workload: SeqLen must be positive, got %d", op.SeqLen)
	}
	return nil
}

// Name identifies the operator instance, e.g. "av/llama3-70b/L8192".
func (op AVOp) Name() string {
	return fmt.Sprintf("av/%s/L%d", op.Model.Name, op.SeqLen)
}

// VBytes returns the size of the cached V tensor: H × L × D elements
// — identical in shape to K.
func (op AVOp) VBytes() int64 {
	return int64(op.Model.H) * int64(op.SeqLen) * int64(op.Model.D) * int64(op.Model.ElemBytes)
}

// ProbBytes returns the size of the attention probabilities:
// H × G × L fp32 values (the softmax of the Logit output).
func (op AVOp) ProbBytes() int64 {
	return int64(op.Model.H) * int64(op.Model.G) * int64(op.SeqLen) * int64(op.Model.OutBytes)
}

// OutBytes returns the size of the attended output: H × G × D fp32
// accumulators.
func (op AVOp) OutBytes() int64 {
	return int64(op.Model.H) * int64(op.Model.G) * int64(op.Model.D) * int64(op.Model.OutBytes)
}

// AVAddressMap lays out V, AttProb and the output accumulators.
type AVAddressMap struct {
	VBase    uint64
	ProbBase uint64
	OutBase  uint64
	Limit    uint64
	op       AVOp
}

// NewAVAddressMap lays the tensors out contiguously from base, 4 KiB
// aligned like NewAddressMap, and inlines like it.
func NewAVAddressMap(op AVOp, base uint64) (*AVAddressMap, error) {
	m := new(AVAddressMap)
	if err := m.init(op, base); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *AVAddressMap) init(op AVOp, base uint64) error {
	if err := op.Validate(); err != nil {
		return err
	}
	m.op = op
	m.VBase, m.ProbBase, m.OutBase, m.Limit = layout(base, op.VBytes(), op.ProbBytes(), op.OutBytes())
	return nil
}

// VAddr returns the byte address of V[h][l][d], layout [H][L][D].
func (m *AVAddressMap) VAddr(h, l, d int) uint64 {
	op := m.op
	idx := (int64(h)*int64(op.SeqLen)+int64(l))*int64(op.Model.D) + int64(d)
	return m.VBase + uint64(idx*int64(op.Model.ElemBytes))
}

// ProbAddr returns the byte address of AttProb[h][g][l], layout
// [H][G][L].
func (m *AVAddressMap) ProbAddr(h, g, l int) uint64 {
	op := m.op
	idx := (int64(h)*int64(op.Model.G)+int64(g))*int64(op.SeqLen) + int64(l)
	return m.ProbBase + uint64(idx*int64(op.Model.OutBytes))
}

// OutAddr returns the byte address of Out[h][g][d], layout [H][G][D].
func (m *AVAddressMap) OutAddr(h, g, d int) uint64 {
	op := m.op
	idx := (int64(h)*int64(op.Model.G)+int64(g))*int64(op.Model.D) + int64(d)
	return m.OutBase + uint64(idx*int64(op.Model.OutBytes))
}

// Region reports which tensor an address belongs to.
func (m *AVAddressMap) Region(addr uint64) string {
	switch {
	case addr >= m.VBase && addr < m.VBase+uint64(m.op.VBytes()):
		return "V"
	case addr >= m.ProbBase && addr < m.ProbBase+uint64(m.op.ProbBytes()):
		return "Prob"
	case addr >= m.OutBase && addr < m.OutBase+uint64(m.op.OutBytes()):
		return "Out"
	default:
		return ""
	}
}

// Op returns the operator this map was built for.
func (m *AVAddressMap) Op() AVOp { return m.op }
