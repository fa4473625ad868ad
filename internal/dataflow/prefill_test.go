package dataflow

import (
	"testing"

	"repro/internal/memtrace"
	"repro/internal/workload"
)

func genPrefill(t *testing.T, op workload.PrefillOp) (*memtrace.Trace, *workload.PrefillAddressMap, Mapping) {
	t.Helper()
	amap, err := workload.NewPrefillAddressMap(op, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := FindPrefillMapping(op, lineBytes)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := GeneratePrefill(op, amap, m, lineBytes, new(memtrace.Slab))
	if err != nil {
		t.Fatal(err)
	}
	return memtrace.NewTrace("", blocks), amap, m
}

// TestPrefillTraceShape checks block count, instruction mix and that
// every access lands in its tensor region.
func TestPrefillTraceShape(t *testing.T) {
	op := workload.PrefillOp{Model: workload.Llama3_70B, KVLen: 64, ChunkLen: 32}
	tr, amap, m := genPrefill(t, op)

	logit := workload.LogitOp{Model: op.Model, SeqLen: op.KVLen}
	tileL := m.TileL(logit, lineBytes)
	numLTiles := (op.KVLen + tileL - 1) / tileL
	wantBlocks := op.Model.H * op.Model.G * numLTiles
	if len(tr.Blocks) != wantBlocks {
		t.Fatalf("blocks = %d, want %d", len(tr.Blocks), wantBlocks)
	}
	var kLoads, qLoads, stores, computeCycles int64
	for _, tb := range tr.Blocks {
		for _, in := range tb.Insts {
			switch in.Kind {
			case memtrace.KindLoad:
				switch amap.Region(in.Addr) {
				case "K":
					kLoads++
				case "Q":
					qLoads++
				default:
					t.Fatalf("load at %#x outside K/Q regions", in.Addr)
				}
			case memtrace.KindStore:
				if amap.Region(in.Addr) != "Out" {
					t.Fatalf("store at %#x outside Out region", in.Addr)
				}
				stores++
			case memtrace.KindCompute:
				computeCycles += int64(in.Cycles)
			}
		}
	}
	// K is streamed once per block regardless of chunk length: the
	// chunk-reuse property that makes prefill compute-bound.
	rowBytes := op.Model.D * op.Model.ElemBytes
	vecPerRow := (rowBytes + m.VectorBytes - 1) / m.VectorBytes
	wantKLoads := int64(op.Model.H*op.Model.G) * int64(op.KVLen) * int64(vecPerRow)
	if kLoads != wantKLoads {
		t.Errorf("K loads = %d, want %d", kLoads, wantKLoads)
	}
	// Every (h, g, lTile) block stores ChunkLen score segments per
	// output line: C× the Logit store traffic over the same prefix.
	outElemsPerLine := lineBytes / op.Model.OutBytes
	linesPerTile := (tileL + outElemsPerLine - 1) / outElemsPerLine
	wantStores := int64(wantBlocks) * int64(op.ChunkLen) * int64(linesPerTile)
	if stores != wantStores {
		t.Errorf("stores = %d, want %d", stores, wantStores)
	}
	// Compute per K row is charged ChunkLen times.
	wantCompute := int64(m.ComputePerRow) * int64(op.ChunkLen) * int64(op.Model.H*op.Model.G) * int64(op.KVLen)
	if computeCycles != wantCompute {
		t.Errorf("compute cycles = %d, want %d", computeCycles, wantCompute)
	}
}

// TestPrefillVsLogitIntensity pins the arithmetic-intensity relation:
// over the same prefix, the prefill pass issues the same K load count
// as the Logit pass but ChunkLen× the compute.
func TestPrefillVsLogitIntensity(t *testing.T) {
	model := workload.Llama3_70B
	const kv, chunk = 64, 16
	pre, _, _ := genPrefill(t, workload.PrefillOp{Model: model, KVLen: kv, ChunkLen: chunk})

	logit := workload.LogitOp{Model: model, SeqLen: kv}
	lmap, err := workload.NewAddressMap(logit, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := FindMapping(logit, lineBytes)
	if err != nil {
		t.Fatal(err)
	}
	lblocks, err := Generate(logit, lmap, m, lineBytes, new(memtrace.Slab))
	if err != nil {
		t.Fatal(err)
	}
	ltr := memtrace.NewTrace("", lblocks)
	count := func(tr *memtrace.Trace) (loads, computeCycles int64) {
		for _, tb := range tr.Blocks {
			for _, in := range tb.Insts {
				switch in.Kind {
				case memtrace.KindLoad:
					loads++
				case memtrace.KindCompute:
					computeCycles += int64(in.Cycles)
				}
			}
		}
		return
	}
	preLoads, preCompute := count(pre)
	logitLoads, logitCompute := count(ltr)
	if preCompute != int64(chunk)*logitCompute {
		t.Errorf("prefill compute %d != chunk %d × logit compute %d", preCompute, chunk, logitCompute)
	}
	if preLoads <= logitLoads {
		t.Errorf("prefill loads %d not above logit loads %d (chunk Q tile missing?)", preLoads, logitLoads)
	}
	// But the K-read traffic itself is identical, so the load excess is
	// bounded by the chunk's Q rows.
	if preLoads >= int64(chunk)*logitLoads {
		t.Errorf("prefill loads %d scale with chunk — K rows are being re-streamed per token", preLoads)
	}
}

// TestGeneratePrefillRejects checks mapping/shape validation.
func TestGeneratePrefillRejects(t *testing.T) {
	op := workload.PrefillOp{Model: workload.Llama3_70B, KVLen: 8, ChunkLen: 8}
	if _, _, err := FindPrefillMapping(op, lineBytes); err == nil {
		// KVLen 8 is under the 16-position mapping floor for fp32 scores.
		t.Error("FindPrefillMapping accepted a sub-floor prefix")
	}
	good := workload.PrefillOp{Model: workload.Llama3_70B, KVLen: 32, ChunkLen: 16}
	amap, err := workload.NewPrefillAddressMap(good, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := FindPrefillMapping(good, lineBytes)
	if err != nil {
		t.Fatal(err)
	}
	other := workload.PrefillOp{Model: workload.Llama3_70B, KVLen: 32, ChunkLen: 8}
	if _, err := GeneratePrefill(other, amap, m, lineBytes, new(memtrace.Slab)); err == nil {
		t.Error("GeneratePrefill accepted a mismatched address map")
	}
}
