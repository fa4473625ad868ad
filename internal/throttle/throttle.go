// Package throttle implements the thread-throttling controllers of the
// paper: the proposed two-level dynamic multi-gear policy ("dynmg",
// Section 4.2, Algorithm 1, Tables 1–4) and the two baselines, DYNCTA
// (Kayıran et al., PACT 2013) and LCS (Lee et al., HPCA 2014).
//
// A controller observes per-core and global contention signals each
// cycle and publishes, per core, the maximum number of thread blocks
// (instruction windows) the core may keep active — the "degree"
// dimension of throttling. The temporal dimension is the controller's
// sampling period; the spatial dimension (which cores are throttled)
// is what dynmg adds over DYNCTA.
package throttle

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Signals is the view of the running system a controller samples. All
// counter fields are cumulative; controllers keep period-start
// snapshots and work on deltas.
type Signals struct {
	NumCores   int
	MaxWindows int
	// CacheStall and SliceCycles give the global cache-stall
	// proportion t_cs = ΔCacheStall / ΔSliceCycles (Table 3).
	CacheStall  func() int64
	SliceCycles func() int64
	// CoreMem and CoreIdle are per-core cumulative C_mem / C_idle.
	CoreMem  func(core int) int64
	CoreIdle func(core int) int64
	// Progress is the per-core cumulative served-request counter the
	// LLC arbiters maintain; dynmg throttles the cores with the
	// largest progress ("fastest cores").
	Progress func(core int) int64
}

// Controller publishes per-core thread-block limits.
//
// A limit may change in exactly two places: a Tick at a cycle at or
// after the controller's NextEvent, and ObserveTB (for a TBObserver,
// and then only the observed core's limit). The fast-forward engine
// relies on it: it calls Tick only at those boundaries, compares every
// core's MaxTB with the limit it last published only after such a
// Tick or an observation, and never polls MaxTB in between.
type Controller interface {
	// Name returns the policy name used in figures ("dyncta", "lcs",
	// "dynmg", "none").
	Name() string
	// Tick advances the controller to cycle now. The reference loop
	// calls it every cycle; the fast-forward engine only at cycles at
	// or after NextEvent, so a Tick before NextEvent must change
	// nothing.
	Tick(now int64, sig *Signals)
	// MaxTB returns the current thread-block limit for core.
	MaxTB(core int) int
	// NextEvent returns the earliest cycle after now at which a Tick
	// may change the controller's outputs (its next sampling-period
	// boundary), or math.MaxInt64 for static and purely event-driven
	// controllers. Its value changes only through Tick. The engine's
	// fast-forward path uses it to prove a window of cycles dead.
	NextEvent(now int64) int64
	// Reset rewinds the controller to its just-constructed state
	// (parameters kept, learned state and period snapshots dropped) so
	// a resettable engine can reuse the instance across runs.
	Reset()
}

// TBObserver is implemented by controllers that learn from thread
// block executions (LCS observes the first block per core).
type TBObserver interface {
	// ObserveTB reports a block retired on core; it may change that
	// core's limit, effective from the next cycle.
	ObserveTB(core int, busyCycles, totalCycles int64)
}

// ParseName builds a controller by figure label. The "static:N" form
// pins every core to N thread blocks — not a paper policy, but the
// oracle reference used by the ablation benches.
func ParseName(name string, numCores, maxWindows int) (Controller, error) {
	switch name {
	case "none", "unopt", "":
		return NewNone(numCores, maxWindows), nil
	case "dyncta":
		return NewDYNCTA(numCores, maxWindows, DefaultDYNCTAParams()), nil
	case "lcs":
		return NewLCS(numCores, maxWindows), nil
	case "dynmg":
		return NewDynMG(numCores, maxWindows, DefaultDynMGParams()), nil
	}
	var n int
	if _, err := fmt.Sscanf(name, "static:%d", &n); err == nil {
		if n < 1 {
			n = 1
		}
		if n > maxWindows {
			n = maxWindows
		}
		return NewStatic(numCores, n), nil
	}
	return nil, fmt.Errorf("throttle: unknown policy %q", name)
}

// Static pins every core to a fixed thread-block limit; the oracle
// reference for ablation studies.
type Static struct {
	limit int
}

// NewStatic returns a fixed-limit controller.
func NewStatic(numCores, limit int) *Static { return &Static{limit: limit} }

// Name implements Controller.
func (s *Static) Name() string { return fmt.Sprintf("static:%d", s.limit) }

// Tick implements Controller.
func (*Static) Tick(int64, *Signals) {}

// MaxTB implements Controller.
func (s *Static) MaxTB(int) int { return s.limit }

// NextEvent implements Controller.
func (*Static) NextEvent(int64) int64 { return math.MaxInt64 }

// Reset implements Controller (stateless).
func (*Static) Reset() {}

// None applies no throttling: every core may fill all windows.
type None struct {
	max int
}

// NewNone returns the no-throttling controller.
func NewNone(numCores, maxWindows int) *None { return &None{max: maxWindows} }

// Name implements Controller.
func (*None) Name() string { return "none" }

// Tick implements Controller.
func (*None) Tick(int64, *Signals) {}

// MaxTB implements Controller.
func (n *None) MaxTB(int) int { return n.max }

// NextEvent implements Controller.
func (*None) NextEvent(int64) int64 { return math.MaxInt64 }

// Reset implements Controller (stateless).
func (*None) Reset() {}

// ---------------------------------------------------------------------------
// dynmg: two-level dynamic multi-gear throttling (the paper's policy).
// ---------------------------------------------------------------------------

// DynMGParams parameterises the two-level controller. Defaults are the
// paper's swept optimum (Tables 2–4).
type DynMGParams struct {
	SamplingPeriod int64 // global gear decision period (2000 cycles)
	SubPeriod      int64 // in-core decision period (400 cycles)
	MaxGear        int   // highest gear index (4)
	// GearFrac[g] is the fraction of cores throttled at gear g
	// (Table 1: 0, 1/8, 1/4, 1/2, 3/4).
	GearFrac []float64
	// Contention classification thresholds over t_cs (Table 3).
	TCSLow    float64 // below: Low contention (gear down)
	TCSNormal float64 // below: Normal (hold)
	TCSHigh   float64 // below: High (gear up); at or above: Extreme (+2)
	// In-core thresholds per sub-period (Table 4), in cycles.
	CIdleUpper int64 // C_idle above this: raise max_tb
	CMemUpper  int64 // C_mem above this: lower max_tb
	CMemLower  int64 // C_mem below this: raise max_tb
}

// DefaultDynMGParams returns Tables 2–4 of the paper.
func DefaultDynMGParams() DynMGParams {
	return DynMGParams{
		SamplingPeriod: 2000,
		SubPeriod:      400,
		MaxGear:        4,
		GearFrac:       []float64{0, 1.0 / 8, 1.0 / 4, 1.0 / 2, 3.0 / 4},
		TCSLow:         0.12,
		TCSNormal:      0.30,
		TCSHigh:        0.45,
		CIdleUpper:     4,
		CMemUpper:      348, // 0.87 of the sub-period
		CMemLower:      320, // 0.80 of the sub-period
	}
}

// Contention is the classified contention degree (Table 3).
type Contention uint8

// Contention degrees.
const (
	ContentionLow Contention = iota
	ContentionNormal
	ContentionHigh
	ContentionExtreme
)

// String implements fmt.Stringer.
func (c Contention) String() string {
	switch c {
	case ContentionLow:
		return "low"
	case ContentionNormal:
		return "normal"
	case ContentionHigh:
		return "high"
	case ContentionExtreme:
		return "extreme"
	}
	return fmt.Sprintf("Contention(%d)", uint8(c))
}

// ClassifyContention maps a t_cs value to its degree per Table 3.
func (p DynMGParams) ClassifyContention(tcs float64) Contention {
	switch {
	case tcs < p.TCSLow:
		return ContentionLow
	case tcs < p.TCSNormal:
		return ContentionNormal
	case tcs < p.TCSHigh:
		return ContentionHigh
	default:
		return ContentionExtreme
	}
}

// DynMG is the two-level dynamic multi-gear controller.
type DynMG struct {
	params     DynMGParams
	numCores   int
	maxWindows int

	gear      int
	throttled []bool
	maxTB     []int

	// Period-start snapshots.
	lastSample int64
	lastSub    int64
	stallSnap  int64
	sliceSnap  int64
	progSnap   []int64
	memSnap    []int64
	idleSnap   []int64
	// scratch for sorting cores by progress
	order []int

	// Diagnostics.
	GearChanges int64
	LastTCS     float64
}

// NewDynMG builds the controller.
func NewDynMG(numCores, maxWindows int, p DynMGParams) *DynMG {
	d := &DynMG{
		params:     p,
		numCores:   numCores,
		maxWindows: maxWindows,
		throttled:  make([]bool, numCores),
		maxTB:      make([]int, numCores),
		progSnap:   make([]int64, numCores),
		memSnap:    make([]int64, numCores),
		idleSnap:   make([]int64, numCores),
		order:      make([]int, numCores),
	}
	for i := range d.maxTB {
		d.maxTB[i] = maxWindows
	}
	return d
}

// Name implements Controller.
func (*DynMG) Name() string { return "dynmg" }

// MaxTB implements Controller.
func (d *DynMG) MaxTB(core int) int { return d.maxTB[core] }

// Gear returns the current gear (diagnostics).
func (d *DynMG) Gear() int { return d.gear }

// NextEvent implements Controller: the next sub-period or
// sampling-period boundary, whichever comes first.
func (d *DynMG) NextEvent(int64) int64 {
	next := d.lastSub + d.params.SubPeriod
	if s := d.lastSample + d.params.SamplingPeriod; s < next {
		next = s
	}
	return next
}

// Reset implements Controller: gear, throttled set, limits and every
// period snapshot rewind to the just-constructed state.
func (d *DynMG) Reset() {
	d.gear = 0
	for i := 0; i < d.numCores; i++ {
		d.throttled[i] = false
		d.maxTB[i] = d.maxWindows
		d.progSnap[i] = 0
		d.memSnap[i] = 0
		d.idleSnap[i] = 0
	}
	d.lastSample = 0
	d.lastSub = 0
	d.stallSnap = 0
	d.sliceSnap = 0
	d.GearChanges = 0
	d.LastTCS = 0
}

// Tick implements Controller: the global gear update every sampling
// period and the in-core max_tb update every sub-period.
func (d *DynMG) Tick(now int64, sig *Signals) {
	if now-d.lastSub >= d.params.SubPeriod {
		d.subPeriodUpdate(sig)
		d.lastSub = now
	}
	if now-d.lastSample >= d.params.SamplingPeriod {
		d.samplePeriodUpdate(sig)
		d.lastSample = now
	}
}

// samplePeriodUpdate is Algorithm 1 plus the gear→throttled-set
// mapping of Table 1.
func (d *DynMG) samplePeriodUpdate(sig *Signals) {
	stall := sig.CacheStall()
	slice := sig.SliceCycles()
	dStall := stall - d.stallSnap
	dSlice := slice - d.sliceSnap
	d.stallSnap, d.sliceSnap = stall, slice
	tcs := 0.0
	if dSlice > 0 {
		tcs = float64(dStall) / float64(dSlice)
	}
	d.LastTCS = tcs

	oldGear := d.gear
	switch d.params.ClassifyContention(tcs) {
	case ContentionHigh:
		if d.gear < d.params.MaxGear {
			d.gear++
		}
	case ContentionLow:
		if d.gear > 0 {
			d.gear--
		}
	case ContentionExtreme:
		if d.gear <= d.params.MaxGear-2 {
			d.gear += 2
		} else {
			d.gear = d.params.MaxGear
		}
	}
	if d.gear != oldGear {
		d.GearChanges++
	}

	// Throttle the fastest cores: largest progress over the period.
	nThrottle := int(d.params.GearFrac[d.gear]*float64(d.numCores) + 0.5)
	for i := 0; i < d.numCores; i++ {
		d.order[i] = i
	}
	progDelta := func(c int) int64 { return sig.Progress(c) - d.progSnap[c] }
	slices.SortStableFunc(d.order, func(a, b int) int {
		return cmp.Compare(progDelta(b), progDelta(a))
	})
	for i := 0; i < d.numCores; i++ {
		c := d.order[i]
		wasThrottled := d.throttled[c]
		d.throttled[c] = i < nThrottle
		if d.throttled[c] && !wasThrottled {
			// Newly throttled: clamp hard so the spatial decision
			// takes effect within the period; the in-core controller
			// relaxes it if the core over-idles.
			d.maxTB[c] = 1
		}
		d.progSnap[c] = sig.Progress(c)
	}
}

// subPeriodUpdate runs the DYNCTA-like local logic on throttled cores
// and lets unthrottled cores recover toward full occupancy.
func (d *DynMG) subPeriodUpdate(sig *Signals) {
	for c := 0; c < d.numCores; c++ {
		mem := sig.CoreMem(c)
		idle := sig.CoreIdle(c)
		dMem := mem - d.memSnap[c]
		dIdle := idle - d.idleSnap[c]
		d.memSnap[c], d.idleSnap[c] = mem, idle
		if !d.throttled[c] {
			if d.maxTB[c] < d.maxWindows {
				d.maxTB[c]++
			}
			continue
		}
		switch {
		case dIdle > d.params.CIdleUpper:
			if d.maxTB[c] < d.maxWindows {
				d.maxTB[c]++
			}
		case dMem > d.params.CMemUpper:
			if d.maxTB[c] > 1 {
				d.maxTB[c]--
			}
		case dMem < d.params.CMemLower:
			if d.maxTB[c] < d.maxWindows {
				d.maxTB[c]++
			}
		}
	}
}

// ---------------------------------------------------------------------------
// DYNCTA baseline: per-core dynamic CTA throttling on all cores.
// ---------------------------------------------------------------------------

// DYNCTAParams parameterises the baseline; defaults come from sweeping
// under the paper's experiment settings (Section 6.2.3), scaled to one
// sampling period.
type DYNCTAParams struct {
	SamplingPeriod int64
	CIdleUpper     int64
	CMemUpper      int64
	CMemLower      int64
}

// DefaultDYNCTAParams returns the swept baseline configuration. The
// thresholds were swept (cmd/sweep) across the fig7 and fig9 workload
// matrix for the best geomean with a single parameter set — the
// paper's "fair comparison" methodology. One static set cannot fit
// both regimes, which is the conservatism the paper observes: the
// swept optimum reacts only to sustained contention (C_mem above 3/4
// of the period) and settles near two active blocks per core.
func DefaultDYNCTAParams() DYNCTAParams {
	return DYNCTAParams{
		SamplingPeriod: 2048,
		CIdleUpper:     20,
		CMemUpper:      1812, // 0.885 of the period
		CMemLower:      1638, // 0.80 of the period
	}
}

// DYNCTA applies the local C_idle/C_mem rule to every core each
// sampling period — no spatial selectivity, which is exactly the
// limitation dynmg addresses.
type DYNCTA struct {
	params     DYNCTAParams
	numCores   int
	maxWindows int
	maxTB      []int
	lastSample int64
	memSnap    []int64
	idleSnap   []int64
}

// NewDYNCTA builds the baseline controller.
func NewDYNCTA(numCores, maxWindows int, p DYNCTAParams) *DYNCTA {
	d := &DYNCTA{
		params:     p,
		numCores:   numCores,
		maxWindows: maxWindows,
		maxTB:      make([]int, numCores),
		memSnap:    make([]int64, numCores),
		idleSnap:   make([]int64, numCores),
	}
	for i := range d.maxTB {
		d.maxTB[i] = maxWindows
	}
	return d
}

// Name implements Controller.
func (*DYNCTA) Name() string { return "dyncta" }

// MaxTB implements Controller.
func (d *DYNCTA) MaxTB(core int) int { return d.maxTB[core] }

// NextEvent implements Controller.
func (d *DYNCTA) NextEvent(int64) int64 {
	return d.lastSample + d.params.SamplingPeriod
}

// Reset implements Controller: limits and period snapshots rewind to
// the just-constructed state.
func (d *DYNCTA) Reset() {
	for i := 0; i < d.numCores; i++ {
		d.maxTB[i] = d.maxWindows
		d.memSnap[i] = 0
		d.idleSnap[i] = 0
	}
	d.lastSample = 0
}

// Tick implements Controller.
func (d *DYNCTA) Tick(now int64, sig *Signals) {
	if now-d.lastSample < d.params.SamplingPeriod {
		return
	}
	d.lastSample = now
	for c := 0; c < d.numCores; c++ {
		mem := sig.CoreMem(c)
		idle := sig.CoreIdle(c)
		dMem := mem - d.memSnap[c]
		dIdle := idle - d.idleSnap[c]
		d.memSnap[c], d.idleSnap[c] = mem, idle
		switch {
		case dIdle > d.params.CIdleUpper:
			if d.maxTB[c] < d.maxWindows {
				d.maxTB[c]++
			}
		case dMem > d.params.CMemUpper:
			if d.maxTB[c] > 1 {
				d.maxTB[c]--
			}
		case dMem < d.params.CMemLower:
			if d.maxTB[c] < d.maxWindows {
				d.maxTB[c]++
			}
		}
	}
}

// ---------------------------------------------------------------------------
// LCS baseline: lazy CTA scheduling via first-thread-block observation.
// ---------------------------------------------------------------------------

// LCS observes the execution of the first thread block on each core
// and derives a static thread-block limit: enough concurrent blocks to
// cover the observed stall time with useful work, without dynamic
// tuning afterwards. Under heavily memory-bound workloads the cover
// ratio saturates at the window count, leaving the core effectively
// unthrottled — the conservatism the paper observes.
type LCS struct {
	numCores   int
	maxWindows int
	maxTB      []int
	decided    []bool
}

// NewLCS builds the baseline controller.
func NewLCS(numCores, maxWindows int) *LCS {
	l := &LCS{
		numCores:   numCores,
		maxWindows: maxWindows,
		maxTB:      make([]int, numCores),
		decided:    make([]bool, numCores),
	}
	for i := range l.maxTB {
		l.maxTB[i] = maxWindows
	}
	return l
}

// Name implements Controller.
func (*LCS) Name() string { return "lcs" }

// MaxTB implements Controller.
func (l *LCS) MaxTB(core int) int { return l.maxTB[core] }

// Tick implements Controller (LCS is event-driven; nothing per cycle).
func (*LCS) Tick(int64, *Signals) {}

// Reset implements Controller: forget the observed first blocks so the
// next run re-derives its limits.
func (l *LCS) Reset() {
	for i := 0; i < l.numCores; i++ {
		l.maxTB[i] = l.maxWindows
		l.decided[i] = false
	}
}

// NextEvent implements Controller: LCS changes outputs only from
// ObserveTB, which the engine invokes on thread-block retirement — a
// core event the core's own horizon already covers.
func (*LCS) NextEvent(int64) int64 { return math.MaxInt64 }

// ObserveTB implements TBObserver: on the first completed block of a
// core, set the static limit to ceil(totalCycles / busyCycles), the
// number of interleaved blocks needed to hide the observed latency,
// clamped to the window count.
func (l *LCS) ObserveTB(core int, busyCycles, totalCycles int64) {
	if core < 0 || core >= l.numCores || l.decided[core] {
		return
	}
	l.decided[core] = true
	if busyCycles <= 0 {
		return
	}
	need := int((totalCycles + busyCycles - 1) / busyCycles)
	if need < 1 {
		need = 1
	}
	if need > l.maxWindows {
		need = l.maxWindows
	}
	l.maxTB[core] = need
}
