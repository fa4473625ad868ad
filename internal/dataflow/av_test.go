package dataflow

import (
	"testing"

	"repro/internal/memtrace"
	"repro/internal/workload"
)

func TestGenerateAVCoverage(t *testing.T) {
	op := workload.AVOp{Model: workload.Llama3_70B, SeqLen: 256}
	amap, err := workload.NewAVAddressMap(op, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultMapping()
	blocks, err := GenerateAV(op, amap, m, lineBytes, new(memtrace.Slab))
	if err != nil {
		t.Fatal(err)
	}
	tr := memtrace.NewTrace("", blocks)
	logitEquiv := workload.LogitOp{Model: op.Model, SeqLen: op.SeqLen}
	tileL := m.TileL(logitEquiv, lineBytes)
	wantBlocks := op.Model.H * op.Model.G * (op.SeqLen / tileL)
	if len(tr.Blocks) != wantBlocks {
		t.Fatalf("blocks=%d want %d", len(tr.Blocks), wantBlocks)
	}
	covered := map[[3]int]bool{}
	for _, tb := range tr.Blocks {
		var vLoads, probLoads, accLoads, accStores int
		for _, in := range tb.Insts {
			switch in.Kind {
			case memtrace.KindLoad:
				switch amap.Region(in.Addr) {
				case "V":
					vLoads++
				case "Prob":
					probLoads++
				case "Out":
					accLoads++
				default:
					t.Fatalf("load outside mapped regions at %#x", in.Addr)
				}
			case memtrace.KindStore:
				if amap.Region(in.Addr) != "Out" {
					t.Fatalf("store outside Out at %#x", in.Addr)
				}
				accStores++
			}
		}
		rowVecs := (op.Model.D*op.Model.ElemBytes + m.VectorBytes - 1) / m.VectorBytes
		if vLoads != tileL*rowVecs {
			t.Fatalf("block %d: %d V loads want %d", tb.ID, vLoads, tileL*rowVecs)
		}
		if probLoads != 1 {
			t.Fatalf("block %d: %d prob loads", tb.ID, probLoads)
		}
		// The accumulator is read and written exactly once per block.
		if accLoads == 0 || accStores != 1 {
			t.Fatalf("block %d: accumulator RMW missing (%d loads, %d stores)", tb.ID, accLoads, accStores)
		}
		for l := tb.Meta.TileLo; l < tb.Meta.TileHi; l++ {
			key := [3]int{tb.Meta.Group, tb.Meta.QHead, l}
			if covered[key] {
				t.Fatalf("position (%d,%d,%d) covered twice", tb.Meta.Group, tb.Meta.QHead, l)
			}
			covered[key] = true
		}
	}
	if len(covered) != op.Model.H*op.Model.G*op.SeqLen {
		t.Fatalf("coverage %d want %d", len(covered), op.Model.H*op.Model.G*op.SeqLen)
	}
}

func TestGenerateAVMismatchedMap(t *testing.T) {
	opA := workload.AVOp{Model: workload.Llama3_70B, SeqLen: 128}
	opB := workload.AVOp{Model: workload.Llama3_70B, SeqLen: 256}
	amap, _ := workload.NewAVAddressMap(opA, 0)
	if _, err := GenerateAV(opB, amap, DefaultMapping(), lineBytes, new(memtrace.Slab)); err == nil {
		t.Fatal("mismatched address map accepted")
	}
}

func TestAVSizes(t *testing.T) {
	op := workload.AVOp{Model: workload.Llama3_70B, SeqLen: 8192}
	if op.VBytes() != 16<<20 {
		t.Fatalf("VBytes=%d", op.VBytes())
	}
	if op.ProbBytes() != 8*8*8192*4 {
		t.Fatalf("ProbBytes=%d", op.ProbBytes())
	}
	if op.OutBytes() != 8*8*128*4 {
		t.Fatalf("OutBytes=%d", op.OutBytes())
	}
	if op.Name() != "av/llama3-70b/L8192" {
		t.Fatalf("Name=%q", op.Name())
	}
	if err := (workload.AVOp{Model: workload.Llama3_70B}).Validate(); err == nil {
		t.Fatal("zero SeqLen accepted")
	}
}
