package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arbiter"
	"repro/internal/dataflow"
	"repro/internal/memtrace"
	"repro/internal/noc"
	"repro/internal/throttle"
	"repro/internal/workload"
)

// fuzzMaxCycles bounds each generated run; a geometry too starved to
// drain in it must fail identically on both loops.
const fuzzMaxCycles = 300_000

// engineCase is one generated machine and the two traces of one kind
// it runs: B for the loop comparison, A first on the engine that is
// then Reset onto B.
type engineCase struct {
	cfg            Config
	kind           traceKind
	trA, trB       *memtrace.Trace
	groupA, groupB int
}

// traceKind is the shape of a generated case's traces.
type traceKind uint8

const (
	decodeTrace  traceKind = iota // one Logit decode step
	prefillTrace                  // one prefill chunk
	avTrace                       // one attention-value step
	stepTrace                     // 2–4 streams composed into one serving step
	numTraceKinds
)

func (k traceKind) String() string {
	return [...]string{"decode", "prefill", "av", "step"}[k]
}

func (c engineCase) String() string {
	n := c.cfg.NoC
	return fmt.Sprintf("trace=%v cores=%d slices=%d ch=%d win=%dx%d eg=%d L1=%d/%d L2=%d/%d lat=%d/%d/%d mshr=%dx%d q=%d/%d hb=%d wb=%d noc=%d/%d/%d mem=%d arb=%v thr=%s sched=%s rr=%q bypass=%v",
		c.kind, c.cfg.NumCores, c.cfg.NumSlices, c.cfg.DRAMChannels, c.cfg.NumWindows, c.cfg.WindowDepth,
		c.cfg.EgressCap, c.cfg.L1SizeBytes, c.cfg.L1Assoc, c.cfg.L2SizeBytes, c.cfg.L2Assoc,
		c.cfg.HitLatency, c.cfg.DataLatency, c.cfg.MSHRLatency, c.cfg.MSHREntries, c.cfg.MSHRTargets,
		c.cfg.ReqQSize, c.cfg.RespQSize, c.cfg.HitBufSize, c.cfg.WBBufSize,
		n.Latency, n.SliceIngestPer, n.SliceBufCap, c.cfg.MemRespLatency,
		c.cfg.Arbiter, c.cfg.Throttle, c.cfg.Scheduler, c.cfg.ReqRespArb, c.cfg.Bypass)
}

// genEngineCase draws a machine that Config.Validate accepts — every
// count, queue, buffer and MSHR size from 1, latencies from their
// minimum — under a random policy mix, plus two small traces of one
// kind.
// Small sizes are drawn often: the boundaries they set (a full queue,
// exhausted MSHR targets, a blocked egress) are what the fast-forward
// engine's wake logic must get right.
func genEngineCase(seed uint64) (engineCase, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	small := func(hi int) int { // 1..hi, biased toward 1..3
		if rng.Intn(2) == 0 {
			return 1 + rng.Intn(min(3, hi))
		}
		return 1 + rng.Intn(hi)
	}
	pow2 := func(maxLog int) int { return 1 << rng.Intn(maxLog+1) }

	cfg := DefaultConfig()
	cfg.NumCores = 1 + rng.Intn(8)
	cfg.NumSlices = pow2(3)
	cfg.DRAMChannels = pow2(2)
	cfg.NumWindows = small(8)
	cfg.WindowDepth = small(64)
	cfg.VectorBytes = cfg.LineBytes << rng.Intn(2)
	cfg.EgressCap = small(16)
	cfg.L1Assoc = small(8)
	cfg.L1SizeBytes = pow2(6) * cfg.L1Assoc * cfg.LineBytes
	cfg.L2Assoc = small(16)
	cfg.L2SizeBytes = cfg.NumSlices * pow2(6) * cfg.L2Assoc * cfg.LineBytes
	cfg.HitLatency = small(4)
	cfg.DataLatency = rng.Intn(31)
	cfg.MSHRLatency = small(6)
	cfg.MSHREntries = small(8)
	cfg.MSHRTargets = small(8)
	cfg.ReqQSize = small(12)
	cfg.RespQSize = small(64)
	cfg.HitBufSize = small(32)
	cfg.WBBufSize = small(8)
	cfg.NoC = noc.Config{Latency: rng.Intn(4) * rng.Intn(5), SliceIngestPer: 1 + rng.Intn(2), SliceBufCap: small(16)}
	cfg.MemRespLatency = rng.Intn(4) * rng.Intn(16)
	cfg.Arbiter = []arbiter.Kind{arbiter.FCFS, arbiter.Balanced, arbiter.MA, arbiter.BMA, arbiter.COBRRA}[rng.Intn(5)]
	cfg.Throttle = []string{"none", "dyncta", "lcs", "dynmg", fmt.Sprintf("static:%d", small(4))}[rng.Intn(5)]
	if rng.Intn(2) == 0 {
		// Short periods put many controller boundaries in a small run.
		p := throttle.DefaultDynMGParams()
		p.SubPeriod = int64(10 + rng.Intn(200))
		p.SamplingPeriod = p.SubPeriod * int64(1+rng.Intn(5))
		cfg.DynMG = &p
		d := throttle.DefaultDYNCTAParams()
		d.SamplingPeriod = int64(10 + rng.Intn(500))
		cfg.DYNCTA = &d
	}
	cfg.Scheduler = []string{"affinity", "global", "partitioned"}[rng.Intn(3)]
	cfg.ReqRespArb = []string{"", "resp-first", "req-first"}[rng.Intn(3)]
	cfg.Bypass = rng.Intn(4) == 0
	cfg.MaxCycles = fuzzMaxCycles
	if err := cfg.Validate(); err != nil {
		return engineCase{}, err
	}

	c := engineCase{cfg: cfg, kind: traceKind(rng.Intn(int(numTraceKinds)))}
	models := []workload.ModelConfig{workload.Llama3_70B, workload.Llama3_405B}
	model := models[rng.Intn(2)]
	trace := func() (*memtrace.Trace, int, error) {
		slab := new(memtrace.Slab)
		seqLen := 16 * (1 + rng.Intn(4))
		var (
			blocks []memtrace.ThreadBlock
			err    error
		)
		switch c.kind {
		case decodeTrace:
			blocks, err = genStream(slab, model, seqLen, 0, 0, cfg.LineBytes)
		case prefillTrace:
			blocks, err = genStream(slab, model, seqLen, 1+rng.Intn(8), 0, cfg.LineBytes)
		case avTrace:
			op := workload.AVOp{Model: model, SeqLen: seqLen}
			amap, aerr := workload.NewAVAddressMap(op, 0)
			if aerr != nil {
				return nil, 0, aerr
			}
			blocks, err = dataflow.GenerateAV(op, amap, dataflow.DefaultMapping(), cfg.LineBytes, slab)
		default:
			return genStep(rng, slab, models, cfg.LineBytes)
		}
		return memtrace.NewTrace("", blocks), model.G, err
	}
	var err error
	if c.trA, c.groupA, err = trace(); err != nil {
		return engineCase{}, err
	}
	if c.trB, c.groupB, err = trace(); err != nil {
		return engineCase{}, err
	}
	return c, nil
}

// genStream appends one stream's decode step (chunk 0) or prefill
// chunk over seqLen positions at base to slab, under the default
// mapping.
func genStream(slab *memtrace.Slab, model workload.ModelConfig, seqLen, chunk int, base uint64, lineBytes int) ([]memtrace.ThreadBlock, error) {
	if chunk > 0 {
		op := workload.PrefillOp{Model: model, KVLen: seqLen, ChunkLen: chunk}
		amap, err := workload.NewPrefillAddressMap(op, base)
		if err != nil {
			return nil, err
		}
		return dataflow.GeneratePrefill(op, amap, dataflow.DefaultMapping(), lineBytes, slab)
	}
	op := workload.LogitOp{Model: model, SeqLen: seqLen}
	amap, err := workload.NewAddressMap(op, base)
	if err != nil {
		return nil, err
	}
	return dataflow.Generate(op, amap, dataflow.DefaultMapping(), lineBytes, slab)
}

// genStep draws a serving step the way the serving layer composes one:
// 2–4 streams, each a decode step or a prefill chunk at its own 4 MiB
// base, generated into one slab and interleaved round-robin, every
// block stamped with its stream. It returns the trace and its group
// size, the largest G of the streams' models.
func genStep(rng *rand.Rand, slab *memtrace.Slab, models []workload.ModelConfig, lineBytes int) (*memtrace.Trace, int, error) {
	var ends []int
	group := 0
	for s := range 2 + rng.Intn(3) {
		m := models[rng.Intn(2)]
		group = max(group, m.G)
		chunk := 0
		if rng.Intn(3) == 0 {
			chunk = 1 + rng.Intn(8)
		}
		if _, err := genStream(slab, m, 16*(1+rng.Intn(2)), chunk, uint64(s)<<22, lineBytes); err != nil {
			return nil, 0, err
		}
		ends = append(ends, len(slab.Blocks()))
	}
	blocks := slab.Blocks()
	tr := &memtrace.Trace{}
	for j := 0; len(tr.Blocks) < len(blocks); j++ {
		start := 0
		for s, end := range ends {
			if start+j < end {
				tb := &blocks[start+j]
				tb.ID, tb.Meta.Stream = len(tr.Blocks), s
				tr.Blocks = append(tr.Blocks, tb)
			}
			start = end
		}
	}
	return tr, group, nil
}

// runEngine builds and runs one engine, turning a panic into an error.
func runEngine(cfg Config, tr *memtrace.Trace, group int) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	eng, err := New(cfg, tr, group)
	if err != nil {
		return Result{}, err
	}
	return eng.Run()
}

// checkEngineCase asserts the engine contracts on one generated case:
// the fast-forward loop equals the reference loop on Cycles, Counters
// and Steals; an engine Reset onto the trace after a run equals a
// fresh one; nothing panics. A MaxCycles error passes only when both
// loops return it.
func checkEngineCase(t *testing.T, c engineCase) {
	t.Helper()
	ref := c.cfg
	ref.Reference = true
	want, refErr := runEngine(ref, c.trB, c.groupB)
	got, ffErr := runEngine(c.cfg, c.trB, c.groupB)
	switch {
	case refErr != nil || ffErr != nil:
		stalled := func(err error) bool { return err != nil && strings.Contains(err.Error(), "MaxCycles") }
		if stalled(refErr) && stalled(ffErr) {
			return
		}
		t.Fatalf("%v\nreference err=%v\nfast-forward err=%v", c, refErr, ffErr)
	case want.Cycles != got.Cycles || want.Counters != got.Counters || want.Steals != got.Steals:
		t.Fatalf("%v\nfast-forward diverges from reference:\nreference:    cycles=%d steals=%d %+v\nfast-forward: cycles=%d steals=%d %+v",
			c, want.Cycles, want.Steals, want.Counters, got.Cycles, got.Steals, got.Counters)
	}

	again, err := func() (res Result, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		eng, err := New(c.cfg, c.trA, c.groupA)
		if err != nil {
			return Result{}, err
		}
		if _, err := eng.Run(); err != nil && !strings.Contains(err.Error(), "MaxCycles") {
			return Result{}, err
		}
		if err := eng.Reset(c.trB, c.groupB); err != nil {
			return Result{}, err
		}
		return eng.Run()
	}()
	if err != nil {
		t.Fatalf("%v\nreset run: %v", c, err)
	}
	if !reflect.DeepEqual(again, got) {
		t.Fatalf("%v\nreset run diverges from a fresh engine:\nreset: %+v\nfresh: %+v", c, again, got)
	}
}

// engineSeeds is FuzzEngineEquivalence's committed corpus. It draws
// every trace kind (TestEngineSeedsCoverTraceKinds): seeds 0 and 4 an
// AV trace, 1, 6 and 9 a composed step, 2 and 11 a decode step, and
// the rest a prefill chunk.
var engineSeeds = []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}

// FuzzEngineEquivalence is the differential oracle for the
// fast-forward engine over generated geometries, policy mixes and
// trace kinds (the equivalence and reset tests cover only the Table 5
// machine on decode traces). Its input seeds genEngineCase.
func FuzzEngineEquivalence(f *testing.F) {
	for _, seed := range engineSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		c, err := genEngineCase(seed)
		if err != nil {
			t.Fatalf("seed %d: generator drew an invalid case: %v", seed, err)
		}
		checkEngineCase(t, c)
	})
}

// TestEngineSeedsCoverTraceKinds: the committed corpus, which every
// plain test run checks, draws each trace kind at least once.
func TestEngineSeedsCoverTraceKinds(t *testing.T) {
	var seen [numTraceKinds]bool
	for _, seed := range engineSeeds {
		c, err := genEngineCase(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		seen[c.kind] = true
	}
	for k, ok := range seen {
		if !ok {
			t.Errorf("no committed seed draws a %v trace", traceKind(k))
		}
	}
}
