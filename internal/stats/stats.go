// Package stats collects and derives the performance statistics the
// LLaMCAT paper reports (Section 6, Fig. 8): execution cycles,
// cache-stall proportion (t_cs), L2 hit rate, MSHR hit (merge) rate,
// MSHR entry utilisation and DRAM bandwidth. It also provides the
// speedup, geometric-mean and percentile helpers used by the
// experiment harnesses and the serving engine.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counters is the raw event count set accumulated by a simulation run.
// All fields are plain counters so that the zero value is ready to use.
type Counters struct {
	Cycles int64 // total simulated core cycles

	// Core-side counters.
	InstIssued   int64 // instructions issued across all cores
	VectorLoads  int64 // vector load instructions
	VectorStores int64 // vector store instructions
	ComputeOps   int64 // compute instructions
	CoreIdle     int64 // core-cycles with no thread block to run (C_idle)
	CoreMemStall int64 // core-cycles with all windows blocked on memory (C_mem)
	TBCompleted  int64 // thread blocks retired

	// L1 counters (summed over private caches).
	L1Accesses int64
	L1Hits     int64
	L1Merges   int64 // accesses merged into an in-flight L1 miss

	// L2 / LLC counters (summed over slices).
	L2Accesses    int64 // demand lookups performed by slices
	L2Hits        int64
	L2Misses      int64
	MSHRMerges    int64 // misses merged into an existing MSHR entry (MSHR hits)
	MSHRAllocs    int64 // new MSHR entries opened
	CacheStall    int64 // slice-cycles stalled on MSHR reservation failure
	SliceCycles   int64 // slices x cycles (denominator for t_cs)
	MSHREntryAcc  int64 // sum over slice-cycles of occupied MSHR entries
	MSHREntryCap  int64 // sum over slice-cycles of MSHR entry capacity
	ReqQFullCycle int64 // slice-cycles the request queue refused traffic
	RespQPeak     int64 // maximum response-queue depth observed
	Writebacks    int64 // dirty evictions written back to DRAM
	Fills         int64 // lines filled into L2 storage

	// DRAM counters.
	DRAMReads     int64
	DRAMWrites    int64
	RowHits       int64
	RowMisses     int64
	RowConflicts  int64
	DRAMBusCycles int64 // cycles the data bus transferred data (summed over channels)

	// NoC counters.
	NoCReqSent    int64
	NoCRespSent   int64
	NoCBackpress  int64 // core-cycles the egress queue was full
	NetQueueDelay int64 // summed cycles requests waited for slice ingress
}

// Add accumulates other into c.
func (c *Counters) Add(other *Counters) {
	c.Cycles += other.Cycles
	c.InstIssued += other.InstIssued
	c.VectorLoads += other.VectorLoads
	c.VectorStores += other.VectorStores
	c.ComputeOps += other.ComputeOps
	c.CoreIdle += other.CoreIdle
	c.CoreMemStall += other.CoreMemStall
	c.TBCompleted += other.TBCompleted
	c.L1Accesses += other.L1Accesses
	c.L1Hits += other.L1Hits
	c.L1Merges += other.L1Merges
	c.L2Accesses += other.L2Accesses
	c.L2Hits += other.L2Hits
	c.L2Misses += other.L2Misses
	c.MSHRMerges += other.MSHRMerges
	c.MSHRAllocs += other.MSHRAllocs
	c.CacheStall += other.CacheStall
	c.SliceCycles += other.SliceCycles
	c.MSHREntryAcc += other.MSHREntryAcc
	c.MSHREntryCap += other.MSHREntryCap
	c.ReqQFullCycle += other.ReqQFullCycle
	if other.RespQPeak > c.RespQPeak {
		c.RespQPeak = other.RespQPeak
	}
	c.Writebacks += other.Writebacks
	c.Fills += other.Fills
	c.DRAMReads += other.DRAMReads
	c.DRAMWrites += other.DRAMWrites
	c.RowHits += other.RowHits
	c.RowMisses += other.RowMisses
	c.RowConflicts += other.RowConflicts
	c.DRAMBusCycles += other.DRAMBusCycles
	c.NoCReqSent += other.NoCReqSent
	c.NoCRespSent += other.NoCRespSent
	c.NoCBackpress += other.NoCBackpress
	c.NetQueueDelay += other.NetQueueDelay
}

// Metrics is the derived, human-facing statistic set matching Fig. 8 of
// the paper plus a few diagnostics.
type Metrics struct {
	Cycles          int64
	Seconds         float64 // wall time at the configured core frequency
	L1HitRate       float64
	L2HitRate       float64 // hits / accesses
	MSHRHitRate     float64 // merges / misses (the paper's definition)
	MSHREntryUtil   float64 // mean occupied entries / capacity
	CacheStallFrac  float64 // t_cs: stalled slice-cycles / slice-cycles
	DRAMBandwidthGB float64 // achieved GB/s
	DRAMRowHitRate  float64
	BytesFromDRAM   int64
	IPC             float64
	CoreIdleFrac    float64
	CoreMemFrac     float64
}

// Derive computes Metrics from raw counters. freqGHz is the core clock
// in GHz (the paper uses 1.96), lineBytes the cache line size and
// numCores the core count (for per-core fractions).
func (c *Counters) Derive(freqGHz float64, lineBytes, numCores int) Metrics {
	m := Metrics{Cycles: c.Cycles}
	if c.Cycles > 0 {
		m.Seconds = float64(c.Cycles) / (freqGHz * 1e9)
		m.IPC = float64(c.InstIssued) / float64(c.Cycles)
	}
	if c.L1Accesses > 0 {
		m.L1HitRate = float64(c.L1Hits) / float64(c.L1Accesses)
	}
	if c.L2Accesses > 0 {
		m.L2HitRate = float64(c.L2Hits) / float64(c.L2Accesses)
	}
	if c.L2Misses > 0 {
		m.MSHRHitRate = float64(c.MSHRMerges) / float64(c.L2Misses)
	}
	if c.MSHREntryCap > 0 {
		m.MSHREntryUtil = float64(c.MSHREntryAcc) / float64(c.MSHREntryCap)
	}
	if c.SliceCycles > 0 {
		m.CacheStallFrac = float64(c.CacheStall) / float64(c.SliceCycles)
	}
	rowAcc := c.RowHits + c.RowMisses + c.RowConflicts
	if rowAcc > 0 {
		m.DRAMRowHitRate = float64(c.RowHits) / float64(rowAcc)
	}
	m.BytesFromDRAM = (c.DRAMReads + c.DRAMWrites) * int64(lineBytes)
	if m.Seconds > 0 {
		m.DRAMBandwidthGB = float64(m.BytesFromDRAM) / m.Seconds / 1e9
	}
	if c.Cycles > 0 && numCores > 0 {
		den := float64(c.Cycles) * float64(numCores)
		m.CoreIdleFrac = float64(c.CoreIdle) / den
		m.CoreMemFrac = float64(c.CoreMemStall) / den
	}
	return m
}

// String renders the metric set as an aligned block.
func (m Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles            %d\n", m.Cycles)
	fmt.Fprintf(&b, "time              %.6f ms\n", m.Seconds*1e3)
	fmt.Fprintf(&b, "IPC               %.3f\n", m.IPC)
	fmt.Fprintf(&b, "L1 hit rate       %.4f\n", m.L1HitRate)
	fmt.Fprintf(&b, "L2 hit rate       %.4f\n", m.L2HitRate)
	fmt.Fprintf(&b, "MSHR hit rate     %.4f\n", m.MSHRHitRate)
	fmt.Fprintf(&b, "MSHR entry util   %.4f\n", m.MSHREntryUtil)
	fmt.Fprintf(&b, "cache stall t_cs  %.4f\n", m.CacheStallFrac)
	fmt.Fprintf(&b, "DRAM bandwidth    %.2f GB/s\n", m.DRAMBandwidthGB)
	fmt.Fprintf(&b, "DRAM row-hit rate %.4f\n", m.DRAMRowHitRate)
	fmt.Fprintf(&b, "core idle frac    %.4f\n", m.CoreIdleFrac)
	fmt.Fprintf(&b, "core mem frac     %.4f\n", m.CoreMemFrac)
	return b.String()
}

// Speedup returns baselineCycles / optimizedCycles, the paper's
// definition of speedup (higher is better).
func Speedup(baselineCycles, optimizedCycles int64) float64 {
	if optimizedCycles <= 0 {
		return 0
	}
	return float64(baselineCycles) / float64(optimizedCycles)
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using
// linear interpolation between closest ranks (the definition NumPy
// calls "linear"): rank = p/100 × (n−1), interpolated between the
// surrounding order statistics. xs need not be sorted; it is not
// modified. An empty input returns 0.
//
// The serving engine reports token-latency p50/p95/p99 through this
// function, so its exact definition is part of the serving metrics
// contract.
func Percentile(xs []float64, p float64) float64 {
	return PercentileSet(xs, p)[0]
}

// PercentileSet computes several percentiles in one pass over one
// sorted copy — cheaper than repeated Percentile calls on large
// latency samples.
func PercentileSet(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	n := len(xs)
	if n == 0 {
		return out
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	for i, p := range ps {
		out[i] = SortedPercentile(sorted, p)
	}
	return out
}

// SortedPercentile is Percentile over an already sorted, non-empty
// sample; it neither copies nor allocates.
func SortedPercentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch {
	case p <= 0:
		return sorted[0]
	case p >= 100:
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := rank - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// Geomean returns the geometric mean of xs. Non-positive entries are
// rejected with a zero result since speedups are strictly positive.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Series is a labelled sequence of (x, y) points used to render one
// line of a paper figure.
type Series struct {
	Label  string
	Points []Point
}

// Point is one measurement in a Series.
type Point struct {
	X string  // categorical x value, e.g. "4K" or "16MB"
	Y float64 // measured value, e.g. speedup
}

// Table renders a set of series sharing the same x categories as an
// aligned text table, one row per series — the textual equivalent of a
// grouped bar / line chart in the paper.
func Table(title string, series []Series) string {
	var b strings.Builder
	b.WriteString(title)
	b.WriteByte('\n')
	if len(series) == 0 {
		return b.String()
	}
	// Header from the first series' x values.
	xs := make([]string, 0, len(series[0].Points))
	for _, p := range series[0].Points {
		xs = append(xs, p.X)
	}
	width := 12
	for _, s := range series {
		if len(s.Label) > width {
			width = len(s.Label)
		}
	}
	fmt.Fprintf(&b, "%-*s", width+2, "policy")
	for _, x := range xs {
		fmt.Fprintf(&b, "%10s", x)
	}
	fmt.Fprintf(&b, "%10s\n", "geomean")
	for _, s := range series {
		fmt.Fprintf(&b, "%-*s", width+2, s.Label)
		vals := make([]float64, 0, len(s.Points))
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%10.3f", p.Y)
			vals = append(vals, p.Y)
		}
		fmt.Fprintf(&b, "%10.3f\n", Geomean(vals))
	}
	return b.String()
}
