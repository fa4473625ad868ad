// Snapshots and reports: the immutable views a Profile produces once
// a run has drained. A NodeProfile carries the three attribution
// views (phase, request, bucket) with derived rates and classes; a
// FleetProfile folds the per-node profiles into the cluster-level
// rollup; both render the aligned ProfileReport tables the CLIs
// print. Snapshots are plain data with stable field order, so the
// JSON they marshal to is byte-reproducible.

package hwprof

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/stats"
)

// BucketStat is one sampling-grid bucket of the utilization
// time-series: raw counter sums plus the derived fractions the
// classifier read and the class it assigned. The bucket covers
// (Start, End] on the engine clock.
type BucketStat struct {
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Steps and BusyCycles count the engine steps that completed in
	// the bucket and their wall-clock cost (straggler-scaled).
	Steps      int64 `json:"steps"`
	BusyCycles int64 `json:"busy_cycles"`
	// Counters is the raw delta sum over those steps.
	Counters stats.Counters `json:"counters"`
	// DRAMBytes is line-sized DRAM traffic (reads + writes).
	DRAMBytes int64 `json:"dram_bytes"`

	// Derived rates (zero when the denominators are).
	BusyFrac        float64 `json:"busy_frac"`        // busy cycles / bucket span
	L2HitRate       float64 `json:"l2_hit_rate"`      // hits / accesses
	CacheStallFrac  float64 `json:"cache_stall_frac"` // t_cs
	CoreMemFrac     float64 `json:"core_mem_frac"`    // C_mem / (cycles · cores)
	BusUtil         float64 `json:"bus_util"`         // bus cycles / (cycles · channels)
	DRAMGBPerKCycle float64 `json:"dram_gb_per_kcyc"` // GB moved per kilocycle of step time
	Class           Class   `json:"-"`                // the assigned class
	ClassName       string  `json:"class"`            // its wire name, for JSON
}

// RequestCost is one request's attributed hardware cost.
type RequestCost struct {
	Req int `json:"req"`
	HWCost
}

// Pct is a percentile summary of one per-request cost dimension.
type Pct struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// NodeProfile is the drained snapshot of one engine's profile.
type NodeProfile struct {
	Params      Params `json:"params"`
	SampleEvery int64  `json:"sample_every"`
	Makespan    int64  `json:"makespan"`

	Steps      int64 `json:"steps"`
	BusyCycles int64 `json:"busy_cycles"`
	// Total is the bit-exact sum of every per-step counter delta.
	Total stats.Counters `json:"total"`

	// Phases is indexed by Phase and always NumPhases long.
	Phases []PhaseCost `json:"phases"`
	// Requests is the per-request attribution, sorted by request ID.
	Requests []RequestCost `json:"requests"`
	// Per-request percentile rollups.
	CyclesPct    Pct `json:"cycles_pct"`
	DRAMBytesPct Pct `json:"dram_bytes_pct"`
	MemStallPct  Pct `json:"mem_stall_pct"`

	// Buckets is the classified utilization time-series covering
	// (0, Makespan], idle gaps and tail included.
	Buckets []BucketStat `json:"buckets"`
	// Class is the node's majority-by-wall-clock bottleneck class.
	Class     Class  `json:"-"`
	ClassName string `json:"class"`
}

// Snapshot freezes the profile into a NodeProfile. makespan is the
// engine clock at drain; buckets are extended to cover it so idle
// gaps and the idle tail appear as zero (idle-classified) buckets.
func (p *Profile) Snapshot(makespan int64) *NodeProfile {
	n := &NodeProfile{
		Params:      p.par,
		SampleEvery: p.spec.SampleEvery,
		Makespan:    makespan,
		Steps:       p.steps,
		BusyCycles:  p.wallCycles,
		Total:       p.total,
		Phases:      append([]PhaseCost(nil), p.phases[:]...),
	}

	n.Requests = make([]RequestCost, 0, len(p.perReq))
	for req, c := range p.perReq {
		n.Requests = append(n.Requests, RequestCost{Req: req, HWCost: *c})
	}
	sort.Slice(n.Requests, func(i, j int) bool { return n.Requests[i].Req < n.Requests[j].Req })
	cyc := make([]float64, len(n.Requests))
	db := make([]float64, len(n.Requests))
	ms := make([]float64, len(n.Requests))
	for i := range n.Requests {
		cyc[i] = float64(n.Requests[i].Cycles)
		db[i] = float64(n.Requests[i].DRAMBytes)
		ms[i] = float64(n.Requests[i].MemStallCycles)
	}
	n.CyclesPct = pct(cyc)
	n.DRAMBytesPct = pct(db)
	n.MemStallPct = pct(ms)

	// Bucket spans: the sampling grid when set, else one whole-run
	// bucket; extend past the last step to the makespan so idle tails
	// classify idle.
	k := p.spec.SampleEvery
	nb := len(p.buckets)
	if k > 0 && makespan > 0 {
		if want := int((makespan + k - 1) / k); want > nb {
			nb = want
		}
	}
	if nb == 0 {
		nb = 1
	}
	var weights [numClasses]int64
	n.Buckets = make([]BucketStat, nb)
	for i := range n.Buckets {
		var acc bucketAcc
		if i < len(p.buckets) {
			acc = p.buckets[i]
		}
		b := &n.Buckets[i]
		if k > 0 {
			b.Start, b.End = int64(i)*k, int64(i+1)*k
			if b.End > makespan && makespan > b.Start {
				b.End = makespan
			}
		} else {
			b.Start, b.End = 0, makespan
		}
		span := b.End - b.Start
		b.Steps, b.BusyCycles, b.Counters = acc.steps, acc.busy, acc.ctr
		b.DRAMBytes = (acc.ctr.DRAMReads + acc.ctr.DRAMWrites) * int64(p.par.LineBytes)
		if span > 0 {
			b.BusyFrac = float64(b.BusyCycles) / float64(span)
		}
		b.L2HitRate = ratio(acc.ctr.L2Hits, acc.ctr.L2Accesses)
		b.CacheStallFrac = ratio(acc.ctr.CacheStall, acc.ctr.SliceCycles)
		b.CoreMemFrac = ratio(acc.ctr.CoreMemStall, acc.ctr.Cycles*int64(p.par.NumCores))
		b.BusUtil = ratio(acc.ctr.DRAMBusCycles, acc.ctr.Cycles*int64(p.par.DRAMChannels))
		if acc.ctr.Cycles > 0 {
			b.DRAMGBPerKCycle = float64(b.DRAMBytes) / 1e9 / (float64(acc.ctr.Cycles) / 1e3)
		}
		b.Class = DefaultThresholds().Classify(&b.Counters, span, b.BusyCycles,
			p.par.NumCores, p.par.DRAMChannels)
		b.ClassName = b.Class.String()
		weights[b.Class] += span
	}
	n.Class = majority(weights)
	n.ClassName = n.Class.String()
	return n
}

func ratio(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func pct(xs []float64) Pct {
	if len(xs) == 0 {
		return Pct{}
	}
	v := stats.PercentileSet(xs, 50, 95, 99, 100)
	return Pct{P50: v[0], P95: v[1], P99: v[2], Max: v[3]}
}

// FleetProfile folds per-node profiles into the cluster rollup.
type FleetProfile struct {
	// Nodes holds every node's profile in node-index order.
	Nodes []*NodeProfile `json:"nodes"`

	Steps      int64 `json:"steps"`
	BusyCycles int64 `json:"busy_cycles"`
	// Total sums the per-node totals (RespQPeak by max, like
	// Counters.Add everywhere else).
	Total stats.Counters `json:"total"`
	// Phases sums the per-node phase attributions.
	Phases []PhaseCost `json:"phases"`
	// Per-request percentiles pooled across the fleet.
	CyclesPct    Pct `json:"cycles_pct"`
	DRAMBytesPct Pct `json:"dram_bytes_pct"`
	// Class is the fleet majority over every node's buckets, weighted
	// by wall-clock span.
	Class     Class  `json:"-"`
	ClassName string `json:"class"`
}

// Fleet builds the cluster rollup from per-node snapshots. Nil
// entries (nodes without profiles) are skipped; a nil or all-nil
// input returns nil so callers can attach the result unconditionally.
func Fleet(nodes []*NodeProfile) *FleetProfile {
	f := &FleetProfile{Nodes: nodes, Phases: make([]PhaseCost, NumPhases)}
	for i := range f.Phases {
		f.Phases[i].Phase = Phase(i)
	}
	var weights [numClasses]int64
	var cyc, db []float64
	any := false
	for _, n := range nodes {
		if n == nil {
			continue
		}
		any = true
		f.Steps += n.Steps
		f.BusyCycles += n.BusyCycles
		t := n.Total
		f.Total.Add(&t)
		for i := range n.Phases {
			ph := &f.Phases[i]
			ph.Steps += n.Phases[i].Steps
			ph.Tokens += n.Phases[i].Tokens
			ph.add(n.Phases[i].HWCost)
		}
		for i := range n.Requests {
			cyc = append(cyc, float64(n.Requests[i].Cycles))
			db = append(db, float64(n.Requests[i].DRAMBytes))
		}
		for i := range n.Buckets {
			b := &n.Buckets[i]
			weights[b.Class] += b.End - b.Start
		}
	}
	if !any {
		return nil
	}
	f.CyclesPct = pct(cyc)
	f.DRAMBytesPct = pct(db)
	f.Class = majority(weights)
	f.ClassName = f.Class.String()
	return f
}

// Render formats the node profile as the ProfileReport block the
// CLIs print: class, phase attribution, per-request percentiles and
// the classified bucket time-series.
func (n *NodeProfile) Render(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "hardware profile %s: class %s (%d steps, %d busy cycles, makespan %d)\n",
		title, n.Class, n.Steps, n.BusyCycles, n.Makespan)
	renderPhases(&b, n.Phases)
	fmt.Fprintf(&b, "per-request    %12s %12s %12s %12s\n", "p50", "p95", "p99", "max")
	fmt.Fprintf(&b, "  cycles       %12.0f %12.0f %12.0f %12.0f\n",
		n.CyclesPct.P50, n.CyclesPct.P95, n.CyclesPct.P99, n.CyclesPct.Max)
	fmt.Fprintf(&b, "  dram-bytes   %12.0f %12.0f %12.0f %12.0f\n",
		n.DRAMBytesPct.P50, n.DRAMBytesPct.P95, n.DRAMBytesPct.P99, n.DRAMBytesPct.Max)
	fmt.Fprintf(&b, "%-24s %8s %8s %8s %8s %8s %10s  %s\n",
		"bucket", "steps", "busy", "t_cs", "memfrac", "bus", "gb/kcyc", "class")
	for i := range n.Buckets {
		bk := &n.Buckets[i]
		fmt.Fprintf(&b, "(%10d,%10d] %8d %8.2f %8.3f %8.3f %8.3f %10.4f  %s\n",
			bk.Start, bk.End, bk.Steps, bk.BusyFrac,
			bk.CacheStallFrac, bk.CoreMemFrac, bk.BusUtil, bk.DRAMGBPerKCycle, bk.Class)
	}
	return b.String()
}

// Render formats the fleet ProfileReport: one row per node plus the
// fleet rollup and the pooled phase attribution table.
func (f *FleetProfile) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet hardware profile: class %s\n", f.Class)
	fmt.Fprintf(&b, "%-6s %-14s %8s %12s %10s %8s %8s %8s\n",
		"node", "class", "steps", "cycles", "dram-GB", "l2-hit", "t_cs", "memfrac")
	for i, n := range f.Nodes {
		if n == nil {
			continue
		}
		m := n.Total
		fmt.Fprintf(&b, "%-6d %-14s %8d %12d %10.3f %8.3f %8.3f %8.3f\n",
			i, n.Class, n.Steps, m.Cycles,
			float64((m.DRAMReads+m.DRAMWrites)*int64(n.Params.LineBytes))/1e9,
			ratio(m.L2Hits, m.L2Accesses), ratio(m.CacheStall, m.SliceCycles),
			ratio(m.CoreMemStall, m.Cycles*int64(n.Params.NumCores)))
	}
	fmt.Fprintf(&b, "%-6s %-14s %8d %12d\n", "fleet", f.Class, f.Steps, f.Total.Cycles)
	renderPhases(&b, f.Phases)
	fmt.Fprintf(&b, "per-request cycles p50/p99/max: %.0f / %.0f / %.0f   dram-bytes p99: %.0f\n",
		f.CyclesPct.P50, f.CyclesPct.P99, f.CyclesPct.Max, f.DRAMBytesPct.P99)
	return b.String()
}

func renderPhases(b *strings.Builder, phases []PhaseCost) {
	fmt.Fprintf(b, "%-24s %8s %10s %14s %14s %12s\n",
		"phase", "steps", "tokens", "cycles", "dram-bytes", "mem-stall")
	for i := range phases {
		ph := &phases[i]
		fmt.Fprintf(b, "%-24s %8d %10d %14d %14d %12d\n",
			ph.Phase, ph.Steps, ph.Tokens, ph.Cycles, ph.DRAMBytes, ph.MemStallCycles)
	}
}
