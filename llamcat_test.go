package llamcat

import (
	"testing"

	"repro/internal/arbiter"
	"repro/internal/experiments"
)

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in       string
		throttle string
		arb      arbiter.Kind
	}{
		{"unopt", "unopt", arbiter.FCFS},
		{"dynmg", "dynmg", arbiter.FCFS},
		{"dynmg+BMA", "dynmg", arbiter.BMA},
		{"dyncta+fcfs", "dyncta", arbiter.FCFS},
		{"none+cobrra", "none", arbiter.COBRRA},
		{"static:2+B", "static:2", arbiter.Balanced},
		{"cobrra", "none", arbiter.COBRRA},
	}
	for _, c := range cases {
		p, err := ParsePolicy(c.in)
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", c.in, err)
			continue
		}
		if p.Label != c.in || p.Throttle != c.throttle || p.Arbiter != c.arb {
			t.Errorf("ParsePolicy(%q) = %+v", c.in, p)
		}
	}
	// Every label the figures print parses to its own policy pair, with
	// unopt the same throttle as none.
	for _, pol := range []experiments.Policy{experiments.Unopt, experiments.Dyncta, experiments.LCS,
		experiments.DynMG, experiments.Cobrra, experiments.DynMGCobrra, experiments.DynMGB,
		experiments.DynMGMA, experiments.DynMGBMA} {
		p, err := ParsePolicy(pol.Label)
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", pol.Label, err)
			continue
		}
		if p.Throttle == "unopt" {
			p.Throttle = "none"
		}
		if p.Throttle != pol.Throttle || p.Arbiter != pol.Arbiter {
			t.Errorf("ParsePolicy(%q) = %+v, want %+v", pol.Label, p, pol)
		}
	}
	for _, bad := range []string{"bogus", "dynmg+xyz", "static:x", "BMA+dynmg", "cobrra+BMA"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) succeeded", bad)
		}
	}
}

func TestTraceGeneration(t *testing.T) {
	op := Logit(Llama3_70B, 256)
	tr, err := Trace(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Blocks) == 0 {
		t.Fatal("empty trace")
	}
	// H*G*(L/16) blocks with the default one-output-line mapping.
	want := 8 * 8 * (256 / 16)
	if len(tr.Blocks) != want {
		t.Fatalf("blocks=%d want %d", len(tr.Blocks), want)
	}
}

func TestTraceWithMapping(t *testing.T) {
	op := Logit(Llama3_70B, 256)
	tr, err := TraceWithMapping(op, "mapping logit\ntb_out_lines 2\n")
	if err != nil {
		t.Fatal(err)
	}
	want := 8 * 8 * (256 / 32)
	if len(tr.Blocks) != want {
		t.Fatalf("blocks=%d want %d", len(tr.Blocks), want)
	}
	if _, err := TraceWithMapping(op, "garbage"); err == nil {
		t.Fatal("garbage mapping accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2SizeBytes = 1 << 20
	op := Logit(Llama3_70B, 256)
	base, err := Run(cfg, op, PolicyUnopt)
	if err != nil {
		t.Fatal(err)
	}
	if base.Cycles <= 0 || base.TraceBlocks == 0 {
		t.Fatalf("bad result: %+v", base)
	}
	opt, err := Run(cfg, op, PolicyDynMGBMA)
	if err != nil {
		t.Fatal(err)
	}
	s := Speedup(base, opt)
	if s <= 0 {
		t.Fatalf("speedup %v", s)
	}
	if base.Metrics.DRAMBandwidthGB <= 0 {
		t.Fatal("no DRAM bandwidth derived")
	}
	if base.Raw.TBCompleted != int64(base.TraceBlocks) {
		t.Fatalf("completed %d of %d blocks", base.Raw.TBCompleted, base.TraceBlocks)
	}
}

// TestPrefillFacade exercises the prefill exports end to end: the
// operator builder, trace generation, a standalone pass simulation,
// and a chunked serving scenario through Serve.
func TestPrefillFacade(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2SizeBytes = 1 << 20
	op := Prefill(Llama3_70B, 64, 32)
	tr, err := TracePrefill(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Blocks) == 0 {
		t.Fatal("empty prefill trace")
	}
	res, err := RunPrefill(cfg, op, PolicyDynMGBMA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatalf("bad prefill result: %+v", res)
	}
	if _, err := ParseSchedPolicy("chunked"); err != nil {
		t.Fatal(err)
	}
	scn, err := NewServeScenario(ServeScenarioConfig{
		Name: "facade-chunked", Seed: 4, NumRequests: 3,
		MinPromptLen: 16, MaxPromptLen: 32,
		MinDecode: 2, MaxDecode: 2, MaxBatch: 2,
		Sched: SchedulerConfig{Policy: SchedChunked, ChunkTokens: 16, KVCapTokens: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Serve(cfg, scn, PolicyDynMGBMA)
	if err != nil {
		t.Fatal(err)
	}
	if m.PrefillTokens == 0 || m.TTFT.P50 <= 0 {
		t.Fatalf("chunked serve reported no prefill work or TTFT: prefill=%d ttft=%+v", m.PrefillTokens, m.TTFT)
	}
}
