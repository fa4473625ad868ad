// The bottleneck classifier: each sampling-grid bucket's raw counter
// sums are reduced to one of four machine states, and a node (or a
// fleet, or a grid cell) is labelled by the state its buckets spent
// the most wall-clock in. The fractions it reads are the paper's own
// Fig. 8 diagnostics — cache-stall fraction t_cs, core mem-stall
// fraction C_mem/(cycles·cores), DRAM data-bus utilisation — so a
// "memory-bound" label means exactly what the paper means by it.

package hwprof

import "repro/internal/stats"

// Class is a bottleneck classification for a bucket, node or cell.
type Class uint8

const (
	// ClassIdle: the machine was mostly not executing steps (queue
	// empty, drained tail, or waiting out a crash).
	ClassIdle Class = iota
	// ClassCompute: busy, and neither the memory system nor MSHR
	// pressure dominates — throughput is bounded by issue width.
	ClassCompute
	// ClassMemory: busy with cores predominantly stalled on memory or
	// the DRAM data bus near saturation — the decode-phase regime the
	// paper targets.
	ClassMemory
	// ClassStalled: busy with L2 slices spending a large fraction of
	// cycles refusing traffic on MSHR reservation failure (t_cs) —
	// pathological back-pressure rather than smooth bandwidth limits.
	ClassStalled

	numClasses
)

var classNames = [...]string{"idle", "compute-bound", "memory-bound", "stalled"}

// String returns the stable wire name of the class.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "unknown"
}

// severity orders classes for majority-vote tie-breaks: the more
// actionable diagnosis wins a tie.
func (c Class) severity() int {
	switch c {
	case ClassStalled:
		return 3
	case ClassMemory:
		return 2
	case ClassCompute:
		return 1
	default:
		return 0
	}
}

// ClassFromString parses a wire name produced by Class.String.
// Unknown names rank as idle-severity; the exporters use this only
// for fleet-row majority votes over already-produced labels.
func ClassFromString(s string) (Class, bool) {
	for i, n := range classNames {
		if n == s {
			return Class(i), true
		}
	}
	return ClassIdle, false
}

// Thresholds are the classifier's decision boundaries, fractions in
// [0, 1]; profiles classify with DefaultThresholds.
type Thresholds struct {
	// IdleBusyFrac: a bucket whose busy step cycles cover less than
	// this fraction of its wall-clock span is idle.
	IdleBusyFrac float64
	// StallFrac: t_cs (stalled slice-cycles / slice-cycles) at or
	// above this marks a busy bucket stalled.
	StallFrac float64
	// MemFrac: core mem-stall fraction (C_mem / (cycles · cores)) at
	// or above this marks a busy bucket memory-bound.
	MemFrac float64
	// BusUtil: DRAM data-bus utilisation (bus cycles / (cycles ·
	// channels)) at or above this also marks a bucket memory-bound.
	BusUtil float64
}

// DefaultThresholds are calibrated against the Table 5 default
// configuration: saturated decode on the serving scenarios runs core
// mem-stall fractions around 0.80 and DRAM-bus utilisation around
// 0.84 with t_cs in the 0.34–0.41 band, so the memory boundary sits
// at 0.50 (decisively cleared by any memory-bound bucket, far above
// compute-phase noise) and the stalled boundary at 0.60 — above the
// whole healthy-decode t_cs band, reached only when MSHR
// back-pressure is pathological rather than the smooth
// bandwidth-limited regime the paper calls memory-bound.
func DefaultThresholds() Thresholds {
	return Thresholds{IdleBusyFrac: 0.10, StallFrac: 0.60, MemFrac: 0.50, BusUtil: 0.50}
}

// Classify labels one bucket from its raw counter sums. span is the
// bucket's wall-clock width in cycles and busy the step cycles that
// completed inside it; cores and channels come from the profile's
// Params. The decision ladder is strict: idle before stalled before
// memory before compute, so a label always names the dominant regime.
func (t Thresholds) Classify(ctr *stats.Counters, span, busy int64, cores, channels int) Class {
	if busy <= 0 {
		return ClassIdle
	}
	if span > 0 && float64(busy) < t.IdleBusyFrac*float64(span) {
		return ClassIdle
	}
	if ctr.SliceCycles > 0 &&
		float64(ctr.CacheStall) >= t.StallFrac*float64(ctr.SliceCycles) {
		return ClassStalled
	}
	if ctr.Cycles > 0 && cores > 0 &&
		float64(ctr.CoreMemStall) >= t.MemFrac*float64(ctr.Cycles)*float64(cores) {
		return ClassMemory
	}
	if ctr.Cycles > 0 && channels > 0 &&
		float64(ctr.DRAMBusCycles) >= t.BusUtil*float64(ctr.Cycles)*float64(channels) {
		return ClassMemory
	}
	return ClassCompute
}

// majority returns the class with the largest wall-clock weight,
// ties broken by severity (stalled > memory > compute > idle) so a
// fleet split evenly between diagnoses reports the actionable one.
func majority(weights [numClasses]int64) Class {
	best := ClassIdle
	for c := Class(1); c < numClasses; c++ {
		if weights[c] > weights[best] ||
			(weights[c] == weights[best] && c.severity() > best.severity()) {
			best = c
		}
	}
	return best
}

// MostSevere returns the highest-severity class among cs (idle when
// empty) — the fleet-row reduction the CSV exporter uses when nodes
// at one sample boundary disagree.
func MostSevere(cs []Class) Class {
	best := ClassIdle
	for _, c := range cs {
		if c.severity() > best.severity() {
			best = c
		}
	}
	return best
}
