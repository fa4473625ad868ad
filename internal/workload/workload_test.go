package workload

import (
	"testing"
	"testing/quick"
)

func TestModelValidate(t *testing.T) {
	if err := Llama3_70B.Validate(); err != nil {
		t.Fatalf("Llama3_70B invalid: %v", err)
	}
	if err := Llama3_405B.Validate(); err != nil {
		t.Fatalf("Llama3_405B invalid: %v", err)
	}
	bad := []ModelConfig{
		{Name: "h", H: 0, G: 1, D: 1, ElemBytes: 2, OutBytes: 4},
		{Name: "g", H: 1, G: 0, D: 1, ElemBytes: 2, OutBytes: 4},
		{Name: "d", H: 1, G: 1, D: 0, ElemBytes: 2, OutBytes: 4},
		{Name: "e", H: 1, G: 1, D: 1, ElemBytes: 0, OutBytes: 4},
		{Name: "o", H: 1, G: 1, D: 1, ElemBytes: 2, OutBytes: 0},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %q validated, want error", m.Name)
		}
	}
}

func TestParseModel(t *testing.T) {
	for in, want := range map[string]ModelConfig{
		"70b": Llama3_70B, "llama3-70b": Llama3_70B,
		"405b": Llama3_405B, "llama3-405b": Llama3_405B,
	} {
		if m, err := ParseModel(in); err != nil || m != want {
			t.Errorf("ParseModel(%q) = %+v, %v", in, m, err)
		}
	}
	for _, bad := range []string{"", "mix", "13b", "70B"} {
		if _, err := ParseModel(bad); err == nil {
			t.Errorf("ParseModel(%q) accepted", bad)
		}
	}
}

func TestPaperShapes(t *testing.T) {
	// Section 6.2.2: Llama3-70B has H=8, G=8, D=128; 405B has G=16.
	if Llama3_70B.H != 8 || Llama3_70B.G != 8 || Llama3_70B.D != 128 {
		t.Fatalf("70B shape wrong: %+v", Llama3_70B)
	}
	if Llama3_405B.H != 8 || Llama3_405B.G != 16 || Llama3_405B.D != 128 {
		t.Fatalf("405B shape wrong: %+v", Llama3_405B)
	}
}

func TestLogitSizes(t *testing.T) {
	op := LogitOp{Model: Llama3_70B, SeqLen: 8192}
	// K: 8 groups x 8192 tokens x 128 dims x 2B = 16 MiB — the paper's
	// "8K sequence matches the 16 MB cache" working set.
	if got := op.KBytes(); got != 16<<20 {
		t.Fatalf("KBytes=%d want %d", got, 16<<20)
	}
	if got := op.QBytes(); got != 8*8*128*2 {
		t.Fatalf("QBytes=%d", got)
	}
	if got := op.OutBytes(); got != 8*8*8192*4 {
		t.Fatalf("OutBytes=%d", got)
	}
	if got := op.TotalKReadBytes(); got != op.KBytes()*8 {
		t.Fatalf("TotalKReadBytes=%d (GQA reuse factor must be G)", got)
	}
	if op.Name() != "logit/llama3-70b/L8192" {
		t.Fatalf("Name=%q", op.Name())
	}
}

func TestAddressMapLayout(t *testing.T) {
	op := LogitOp{Model: Llama3_70B, SeqLen: 256}
	m, err := NewAddressMap(op, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	// Regions ordered and aligned.
	if m.KBase%4096 != 0 || m.QBase%4096 != 0 || m.OutBase%4096 != 0 {
		t.Fatal("regions not 4 KiB aligned")
	}
	if !(m.KBase < m.QBase && m.QBase < m.OutBase && m.OutBase < m.Limit) {
		t.Fatalf("regions out of order: %+v", m)
	}
	// No overlap: end of K fits before QBase, etc.
	if m.KBase+uint64(op.KBytes()) > m.QBase {
		t.Fatal("K overlaps Q")
	}
	if m.QBase+uint64(op.QBytes()) > m.OutBase {
		t.Fatal("Q overlaps Out")
	}
	if m.OutBase+uint64(op.OutBytes()) > m.Limit {
		t.Fatal("Out exceeds Limit")
	}
}

func TestAddressMapIndexing(t *testing.T) {
	op := LogitOp{Model: Llama3_70B, SeqLen: 64}
	m, err := NewAddressMap(op, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Consecutive d elements are contiguous.
	if m.KAddr(0, 0, 1)-m.KAddr(0, 0, 0) != 2 {
		t.Fatal("K d-stride wrong")
	}
	// Consecutive tokens are one row (D elements) apart.
	if m.KAddr(0, 1, 0)-m.KAddr(0, 0, 0) != uint64(op.Model.D*2) {
		t.Fatal("K token stride wrong")
	}
	// Consecutive groups are L rows apart.
	if m.KAddr(1, 0, 0)-m.KAddr(0, 0, 0) != uint64(op.SeqLen*op.Model.D*2) {
		t.Fatal("K group stride wrong")
	}
	// Out: scores of one query head over the sequence are contiguous.
	if m.OutAddr(0, 0, 1)-m.OutAddr(0, 0, 0) != 4 {
		t.Fatal("Out l-stride wrong")
	}
}

// Every valid tensor index lands in its own region.
func TestRegionProperty(t *testing.T) {
	op := LogitOp{Model: Llama3_405B, SeqLen: 128}
	m, err := NewAddressMap(op, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	check := func(hRaw, gRaw, lRaw, dRaw uint16) bool {
		h := int(hRaw) % op.Model.H
		g := int(gRaw) % op.Model.G
		l := int(lRaw) % op.SeqLen
		d := int(dRaw) % op.Model.D
		return m.Region(m.KAddr(h, l, d)) == "K" &&
			m.Region(m.QAddr(h, g, d)) == "Q" &&
			m.Region(m.OutAddr(h, g, l)) == "Out"
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
	if m.Region(0) != "" {
		t.Fatal("address below KBase should be unmapped")
	}
	if m.Region(m.Limit+1) != "" {
		t.Fatal("address above Limit should be unmapped")
	}
}

func TestValidateErrors(t *testing.T) {
	if _, err := NewAddressMap(LogitOp{Model: Llama3_70B, SeqLen: 0}, 0); err == nil {
		t.Fatal("SeqLen=0 accepted")
	}
	bad := LogitOp{Model: ModelConfig{Name: "bad"}, SeqLen: 16}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid model accepted")
	}
}
