// The token-step fast path: signature-keyed step memoization, the
// in-place step simulator, and the canonical step signature.
//
// The cycle simulator is deterministic, so one token step's outcome —
// (cycles, counters) — is a pure function of the hardware
// configuration and the canonical state of the running set: the
// sorted (slot, chunk, model, kvLen, base) tuples plus the address
// layout (stream stride, AV inclusion). Two steps with the same
// signature are therefore bit-identical, wherever they execute: a
// later step of the same engine, another node of a cluster fleet, or
// another cell of an experiment grid. The StepMemo exploits exactly
// that: a hit skips trace composition and simulation entirely and
// replays the recorded result; a miss claims the signature, computes
// the step on a stepSim borrowed from the run's SimPool and publishes
// it, while other engines missing the same signature wait for it. A
// cluster node may also simulate its predicted next step ahead of
// time (speculate.go); the result lands under that step's own
// signature, so only a step with exactly that signature ever reads it.
// A figure cell of internal/experiments is a one-stream step too: its
// operator's decode step at slot 0 and base 0, which StepMemo.Cell
// keys by that step's signature and simulates, on a miss, on the
// caller's own engine.
//
// A signature is a run of fixed-width binary fields: the engine's
// interned configuration id, then every stream's slot, chunk length,
// interned model id, kvLen and base, each as 8 little-endian bytes.
// Building one formats nothing and allocates nothing once the engine's
// key buffer has grown, and a hit reads an immutable snapshot of the
// memo: it takes no lock and writes nothing shared.
//
// A stepSim generates every running stream's thread blocks straight
// into storage it keeps from one step to the next and rewinds one
// persistent simulator onto them, so a simulated step allocates
// nothing once that storage has grown. The pool lends its stepSims to
// every node of a run, so a run builds at most one per unit of width,
// and no trace outlives the run that composed it.
//
// The memo is concurrency-safe and value-deterministic: whichever
// engine computes a key first, every reader observes the same bytes,
// so cluster fan-outs and experiment grids stay bit-reproducible at
// any parallelism. The step-cache *counters* are the one exception —
// they depend on process history and fan-out timing and are reported
// as diagnostics only (Metrics.StepCache), outside the bit-identity
// contract.

package serving

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/throttle"
	"repro/internal/workload"
)

// StepCacheMode selects the token-step execution path.
type StepCacheMode uint8

// Step-cache modes. The zero value is the full fast path.
const (
	// StepCacheOn is the default: signature memo + composition arena +
	// resettable persistent simulator.
	StepCacheOn StepCacheMode = iota
	// StepCacheNoMemo keeps the arena and the resettable simulator but
	// executes every step (no memoized replay) — the mode that isolates
	// reset/arena equivalence from memo equivalence in tests.
	StepCacheNoMemo
	// StepCacheOff is the naive reference path: every step composes a
	// fresh trace and constructs a fresh simulator, exactly the
	// pre-memoization pipeline. It is the serving analogue of
	// sim.Config.Reference and the ground truth the equivalence tests
	// compare against.
	StepCacheOff
)

// String implements fmt.Stringer.
func (m StepCacheMode) String() string {
	switch m {
	case StepCacheOn:
		return "on"
	case StepCacheNoMemo:
		return "nomemo"
	case StepCacheOff:
		return "off"
	}
	return fmt.Sprintf("StepCacheMode(%d)", uint8(m))
}

// ParseStepCacheMode reads a -stepcache flag value: "on", "nomemo" or
// "off".
func ParseStepCacheMode(s string) (StepCacheMode, error) {
	switch s {
	case "on", "":
		return StepCacheOn, nil
	case "nomemo":
		return StepCacheNoMemo, nil
	case "off", "naive":
		return StepCacheOff, nil
	}
	return 0, fmt.Errorf("serving: unknown step-cache mode %q (want on, nomemo or off)", s)
}

// StepCacheStats reports what the fast path did during a run. All
// fields are diagnostics outside the bit-identity guarantees every
// other Metrics field carries: with a shared memo, which engine
// simulates a signature and which replays it depends on process
// history and fan-out timing (an earlier run or a concurrently
// advancing node may have published or claimed an entry first), and
// so does SimResets, which follows the steps an engine simulated
// itself and the simulators the run's pool lent it. Only a single
// engine on a private memo counts deterministically.
type StepCacheStats struct {
	// MemoHits counts steps replayed from the signature memo, including
	// steps another engine (or this engine's speculation) was still
	// simulating, which the engine waited for; MemoMisses counts steps
	// the engine composed and simulated itself.
	MemoHits, MemoMisses int64
	// OpCacheHits and OpCacheMisses are always zero. They remain only
	// so that serialized metrics keep their fields: bench/ fingerprints
	// the JSON of stripped fleet metrics, field names included.
	OpCacheHits, OpCacheMisses int64
	// SimResets counts the steps the engine simulated on a simulator
	// that had already run a step (for this engine, another node of the
	// run, a speculation, or an earlier run of a grid that lends the
	// run its SimPool) and so was rewound with sim.Engine.ResetTo
	// instead of built.
	SimResets int64
	// Speculated counts speculative simulations of a predicted next
	// step the engine launched on idle fan-out width (cluster runs at
	// width > 1 only); SpecHits counts steps whose signature matched
	// the engine's speculation. Both are omitted from JSON when zero,
	// so stripped metrics serialize exactly as before speculation.
	Speculated int64 `json:",omitempty"`
	SpecHits   int64 `json:",omitempty"`
}

// Add accumulates other into s — the cluster layer's fleet rollup.
func (s *StepCacheStats) Add(other StepCacheStats) {
	s.MemoHits += other.MemoHits
	s.MemoMisses += other.MemoMisses
	s.SimResets += other.SimResets
	s.Speculated += other.Speculated
	s.SpecHits += other.SpecHits
}

// stepResult is one memoized token-step outcome. The memo hands out
// pointers to its entries, which nobody writes after publication, so a
// replayed step reads the counters in place instead of copying them.
type stepResult struct {
	cycles   int64
	counters stats.Counters
	// steals is the simulation's sim.Result.Steals, which only a
	// replayed figure cell reports.
	steals int64
}

// newStepResult returns the memo entry of a simulated step.
func newStepResult(res *sim.Result) *stepResult {
	return &stepResult{cycles: res.Cycles, counters: res.Counters, steals: res.Steals}
}

// StepMemo is a concurrency-safe memo of token-step outcomes keyed by
// canonical step signature. Values are pure functions of their keys,
// so sharing one memo across engines, cluster nodes, experiment-grid
// cells — or the whole process — never changes a simulated number,
// only how often it is recomputed.
//
// Entries live in two maps. The snapshot is immutable once stored and
// read through one atomic pointer load, so a hit takes no lock and
// writes nothing shared (each engine counts its own hits in
// StepCacheStats). Publications go under the mutex into a pending map.
// A lookup that misses the snapshot probes the current snapshot and the
// pending map again under the mutex, so it finds every entry whose
// publication returned before it began; once as many lookups as the
// memo holds entries have found their key in pending, both maps are
// folded into a fresh snapshot. A fold copies every entry once per
// that many lookups, so a publication or a lookup costs amortised O(1)
// — sync.Map's read/dirty promotion, with the key kept as bytes until
// a miss must keep it.
//
// A miss is claimed: the first engine to miss a signature owns it
// until it publishes the result, and any other engine that misses the
// same signature meanwhile waits for that result instead of simulating
// the step again. An owner whose simulation fails releases the claim,
// and its waiters claim the signature themselves. Hits never touch a
// claim.
type StepMemo struct {
	snap atomic.Pointer[map[string]*stepResult]

	mu       sync.Mutex // guards the fields below
	pending  map[string]*stepResult
	inflight map[string]*stepClaim
	// stale counts the lookups since the last fold that found their key
	// in pending.
	stale int
}

// stepClaim is one signature being simulated by its owner. done is
// closed by publish (r set) or release (r nil).
type stepClaim struct {
	done chan struct{}
	r    *stepResult
	// waiters counts engines that waited on the claim (guarded by the
	// memo's mu).
	waiters int
}

// NewStepMemo returns an empty memo.
func NewStepMemo() *StepMemo {
	m := &StepMemo{inflight: make(map[string]*stepClaim)}
	m.snap.Store(new(map[string]*stepResult))
	return m
}

// sharedMemo is the process-wide default memo (see SharedStepMemo).
var sharedMemo = NewStepMemo()

// SharedStepMemo returns the process-wide memo every engine uses by
// default (RunOptions.Memo overrides it, StepCacheOff bypasses it).
// Entries are small — a cycle count plus one stats.Counters block —
// and keyed by the full hardware configuration, so distinct configs
// never collide; the memo grows with the number of distinct step
// states simulated in the process (FlushSharedCaches releases it).
func SharedStepMemo() *StepMemo { return sharedMemo }

// FlushSharedCaches drops every entry of the process-wide step memo,
// releasing its memory. The memo grows with the number of distinct
// step states simulated in the process; a long-lived embedding that
// cycles through many unrelated scenarios calls this between phases.
// Safe concurrently with running engines: subsequent steps simply
// simulate what they need again, and claims in flight are kept — their
// owners publish into the emptied memo and wake their waiters as usual.
func FlushSharedCaches() {
	m := sharedMemo
	m.mu.Lock()
	m.snap.Store(new(map[string]*stepResult))
	m.pending, m.stale = nil, 0
	m.mu.Unlock()
}

// Len returns the number of memoized steps.
func (m *StepMemo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(*m.snap.Load()) + len(m.pending)
}

// lookup returns the memoized result of the signature in key. The map
// index converts key without allocating, so a hit costs no allocation,
// and a hit on the snapshot takes no lock.
func (m *StepMemo) lookup(key []byte) (*stepResult, bool) {
	if r, ok := (*m.snap.Load())[string(key)]; ok {
		return r, true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := *m.snap.Load()
	if r, ok := snap[string(key)]; ok {
		// A fold landed since the probe above.
		return r, true
	}
	r, ok := m.pending[string(key)]
	if ok {
		if m.stale++; m.stale >= len(snap)+len(m.pending) {
			m.fold()
		}
	}
	return r, ok
}

// get returns the entry of key from the snapshot or the pending map;
// the caller holds mu.
func (m *StepMemo) get(key string) (*stepResult, bool) {
	if r, ok := (*m.snap.Load())[key]; ok {
		return r, true
	}
	r, ok := m.pending[key]
	return r, ok
}

// fold replaces the snapshot with one holding every entry and empties
// pending; the caller holds mu.
func (m *StepMemo) fold() {
	old := *m.snap.Load()
	snap := make(map[string]*stepResult, len(old)+len(m.pending))
	for k, r := range old {
		snap[k] = r
	}
	for k, r := range m.pending {
		snap[k] = r
	}
	m.snap.Store(&snap)
	clear(m.pending)
	m.stale = 0
}

// claim resolves a lookup miss: it returns the result if another
// engine published it meanwhile or was simulating it (waiting for the
// owner to publish), and otherwise makes the caller the owner of key
// (own != nil), who must publish or release it. A waiter whose owner
// released the claim tries again, so it may end up owning key itself.
func (m *StepMemo) claim(key string) (r *stepResult, own *stepClaim) {
	for {
		m.mu.Lock()
		if r, ok := m.get(key); ok {
			m.mu.Unlock()
			return r, nil
		}
		c := m.inflight[key]
		if c == nil {
			c = m.own(key)
			m.mu.Unlock()
			return nil, c
		}
		c.waiters++
		m.mu.Unlock()
		<-c.done
		if c.r != nil {
			return c.r, nil
		}
	}
}

// tryClaim makes the caller the owner of key unless the signature is
// already published or claimed; it never waits (speculation uses it).
func (m *StepMemo) tryClaim(key string) *stepClaim {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.get(key); ok || m.inflight[key] != nil {
		return nil
	}
	return m.own(key)
}

// own registers a new claim on key; the caller holds mu.
func (m *StepMemo) own(key string) *stepClaim {
	c := &stepClaim{done: make(chan struct{})}
	m.inflight[key] = c
	return c
}

// publish stores the owner's result under key and wakes its waiters.
// r must not be written afterwards.
func (m *StepMemo) publish(key string, c *stepClaim, r *stepResult) {
	c.r = r
	m.mu.Lock()
	if m.pending == nil {
		m.pending = make(map[string]*stepResult)
	}
	m.pending[key] = r
	delete(m.inflight, key)
	m.mu.Unlock()
	close(c.done)
}

// release drops a claim whose simulation failed and wakes its waiters,
// which then claim the signature themselves.
func (m *StepMemo) release(key string, c *stepClaim) {
	m.mu.Lock()
	delete(m.inflight, key)
	m.mu.Unlock()
	close(c.done)
}

// Cell returns the outcome of one figure cell: op's Logit trace at
// address base 0 simulated under cfg. That trace is, block for block,
// the trace ComposeStep builds for one decode stream {Slot: 0, Base: 0,
// Model: op.Model, KVLen: op.SeqLen} at cfg.LineBytes, so the cell is
// keyed by that step's signature under cfg with AV off and stride 0;
// every field of cfg, Reference and MaxCycles included, is part of
// the key. A hit replays the entry. A miss runs the memo's miss
// protocol for a caller that simulates on its own engine: it claims
// the signature, or waits for the engine that owns it; calls simulate,
// which must run exactly that trace under cfg; and publishes the
// result, or releases the claim when simulate fails. A replayed cell
// returns the simulated sim.Result field for field, its Metrics
// derived from the replayed counters.
func (m *StepMemo) Cell(cfg *sim.Config, op workload.LogitOp, simulate func() (sim.Result, error)) (sim.Result, error) {
	var arr [8 + streamKeyBytes]byte // a prefix and one stream
	buf := append(arr[:0], internConfig(*cfg, false, 0).prefix...)
	buf = appendStream(buf, &StreamState{Model: op.Model, KVLen: op.SeqLen}, internModel(op.Model))
	r, ok := m.lookup(buf)
	if !ok {
		key := string(buf)
		var own *stepClaim
		if r, own = m.claim(key); own != nil {
			res, err := simulate()
			if err != nil {
				m.release(key, own)
				return sim.Result{}, err
			}
			m.publish(key, own, newStepResult(&res))
			return res, nil
		}
	}
	return sim.Result{
		Cycles:   r.cycles,
		Counters: r.counters,
		Metrics:  r.counters.Derive(cfg.FreqGHz, cfg.LineBytes, cfg.NumCores),
		Steals:   r.steals,
	}, nil
}

// configKey is everything a step's outcome depends on besides its
// running set, in comparable form: the full sim.Config with the
// optional controller parameter blocks by value (pointer addresses
// must never enter a key), AV inclusion and the per-slot address
// stride. Two engines with equal keys run bit-identical hardware on
// bit-identical address layouts.
type configKey struct {
	cfg       sim.Config // DynMG and DYNCTA cleared
	dynmg     dynmgKey
	dyncta    throttle.DYNCTAParams
	hasDyncta bool
	includeAV bool
	stride    uint64
}

// dynmgKey is a DynMG parameter block in comparable form: the gear
// fractions become the bytes of their bit patterns. The zero value
// stands for an unset block.
type dynmgKey struct {
	set                              bool
	samplingPeriod, subPeriod        int64
	maxGear                          int
	gearFrac                         string
	tcsLow, tcsNormal, tcsHigh       float64
	cIdleUpper, cMemUpper, cMemLower int64
}

// configSignature returns the configuration key of a serving engine.
func configSignature(cfg sim.Config, includeAV bool, stride uint64) configKey {
	k := configKey{includeAV: includeAV, stride: stride}
	if p := cfg.DynMG; p != nil {
		var frac []byte
		for _, f := range p.GearFrac {
			frac = binary.LittleEndian.AppendUint64(frac, math.Float64bits(f))
		}
		k.dynmg = dynmgKey{true, p.SamplingPeriod, p.SubPeriod, p.MaxGear, string(frac),
			p.TCSLow, p.TCSNormal, p.TCSHigh, p.CIdleUpper, p.CMemUpper, p.CMemLower}
	}
	if cfg.DYNCTA != nil {
		k.dyncta, k.hasDyncta = *cfg.DYNCTA, true
	}
	cfg.DynMG, cfg.DYNCTA = nil, nil
	k.cfg = cfg
	return k
}

// configEntry is an interned configuration: the signature prefix that
// step keys embed in place of the configuration (its id as 8
// little-endian bytes), and the copy of the configuration every engine
// running it shares. The copy owns its parameter blocks, so a caller
// that later changes its own cannot reach a running engine.
type configEntry struct {
	key    configKey
	prefix string
	cfg    sim.Config
}

// internTable assigns every distinct key one value, process-wide. A
// key is found without a lock once it is in the snapshot, an immutable
// map read through one atomic load, so engines probing the table (for
// their configuration when built, for each model at its first use)
// never wait on each other for it. Additions go under the mutex into
// recent, and an addition that would leave recent as large as the
// snapshot folds both into a fresh snapshot instead: an addition
// copies amortised O(1) keys, where copying the snapshot on every
// addition would copy all of them (and allocate each configuration key
// again, as a map stores a key that large out of line).
type internTable[K comparable, V any] struct {
	m      atomic.Pointer[map[K]V]
	mu     sync.Mutex // guards recent and serialises additions
	recent map[K]V
}

// get returns k's value, creating it with add(n) — n counts the keys
// added before it — on first use.
func (t *internTable[K, V]) get(k K, add func(n int) V) V {
	if m := t.m.Load(); m != nil {
		if v, ok := (*m)[k]; ok {
			return v
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var snap map[K]V
	if m := t.m.Load(); m != nil {
		snap = *m
	}
	if v, ok := snap[k]; ok {
		return v
	}
	if v, ok := t.recent[k]; ok {
		return v
	}
	v := add(len(snap) + len(t.recent))
	if len(t.recent)+1 < len(snap) {
		if t.recent == nil {
			t.recent = make(map[K]V)
		}
		t.recent[k] = v
		return v
	}
	m := make(map[K]V, len(snap)+len(t.recent)+1)
	for key, v := range snap {
		m[key] = v
	}
	for key, v := range t.recent {
		m[key] = v
	}
	m[k] = v
	t.m.Store(&m)
	clear(t.recent)
	return v
}

// configs and models intern configurations and models: every distinct
// key gets one entry, and with it a distinct id, so signature keys stay
// collision-free.
var (
	configs internTable[configKey, *configEntry]
	models  internTable[workload.ModelConfig, uint64]
)

// lastConfig is the entry internConfig returned last. A run builds
// all its node engines for one configuration, so comparing with it
// spares all but the first the table's hash.
var lastConfig atomic.Pointer[configEntry]

// internConfig returns the entry of a serving engine's configuration.
func internConfig(cfg sim.Config, includeAV bool, stride uint64) *configEntry {
	k := configSignature(cfg, includeAV, stride)
	if c := lastConfig.Load(); c != nil && c.key == k {
		return c
	}
	c := configs.get(k, func(n int) *configEntry {
		c := &configEntry{key: k, prefix: string(binary.LittleEndian.AppendUint64(nil, uint64(n))), cfg: cfg}
		if p := cfg.DynMG; p != nil {
			own := *p
			own.GearFrac = slices.Clone(p.GearFrac)
			c.cfg.DynMG = &own
		}
		if p := cfg.DYNCTA; p != nil {
			own := *p
			c.cfg.DYNCTA = &own
		}
		return c
	})
	lastConfig.Store(c)
	return c
}

// internModel returns the id of a model.
func internModel(m workload.ModelConfig) uint64 {
	return models.get(m, func(n int) uint64 { return uint64(n) })
}

// signer builds canonical step signatures under one configuration
// prefix, keeping its slot-order scratch and the ids of the models it
// has met between steps. It serves one goroutine at a time.
type signer struct {
	prefix string
	order  []int
	// models caches the interned id of every model seen; an engine
	// meets only a few.
	models []modelID
}

type modelID struct {
	model workload.ModelConfig
	id    uint64
}

// append appends the canonical running-set signature to buf[:0] and
// returns it: the prefix followed by five 8-byte little-endian fields
// per stream — slot, chunk length (0 for a decode pass), model id,
// kvLen and base — in ascending slot order. Every field is as wide as
// the value it holds, so no two running sets share a key, and decode
// and prefill passes of one state differ in the chunk field. The input
// order of streams is irrelevant — the scratch receives their indices
// in slot order — so any presentation of the same running set produces
// the same key. A running set holds at most MaxBatch+1 streams with
// distinct slots, nearly in slot order (selectStep appends the prefill
// pass last), so an insertion sort orders it.
func (g *signer) append(buf []byte, streams []StreamState) []byte {
	order := g.order[:0]
	for i := range streams {
		order = append(order, i)
		for j := i; j > 0 && streams[order[j]].Slot < streams[order[j-1]].Slot; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	g.order = order
	buf = append(buf[:0], g.prefix...)
	for _, i := range order {
		st := &streams[i]
		buf = appendStream(buf, st, g.model(&st.Model))
	}
	return buf
}

// appendStream appends one stream's signature fields to buf: its slot,
// chunk length, model id, kvLen and base.
func appendStream(buf []byte, st *StreamState, model uint64) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.Slot))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.ChunkLen))
	buf = binary.LittleEndian.AppendUint64(buf, model)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.KVLen))
	return binary.LittleEndian.AppendUint64(buf, st.Base)
}

// streamKeyBytes is the width of one stream's fields in a signature.
const streamKeyBytes = 5 * 8

// model returns m's interned id, interning it on first use.
func (g *signer) model(m *workload.ModelConfig) uint64 {
	for i := range g.models {
		if g.models[i].model == *m {
			return g.models[i].id
		}
	}
	id := internModel(*m)
	g.models = append(g.models, modelID{*m, id})
	return id
}

// StepSignature returns the canonical signature of a running set under
// a config prefix (an engine's is its interned configuration id) —
// exported so tests can assert the canonicalization properties
// (slot-order invariance; sensitivity to every field and the prefix)
// directly.
func StepSignature(prefix string, streams []StreamState) string {
	g := signer{prefix: prefix}
	return string(g.append(nil, streams))
}

// stepSim simulates token steps on the fast path: the composer, whose
// storage each step's trace is generated into, and the persistent
// resettable simulator. Stepsims come only from a run's SimPool, which
// lends one to every step an engine or a speculation simulates, so both
// run the same code. A stepSim serves the configuration and AV setting
// it was last aimed at, and one goroutine at a time.
type stepSim struct {
	composer
	cfg sim.Config
	eng *sim.Engine
	// running holds the running set of a speculative step, copied out
	// of the engine whose buffers move on while it is simulated.
	running []StreamState
}

func newStepSim(cfg sim.Config, includeAV bool) *stepSim {
	return &stepSim{composer: composer{includeAV: includeAV, lineBytes: cfg.LineBytes}, cfg: cfg}
}

// aim points the stepSim at an engine's configuration and AV setting;
// its simulator follows at the next run.
func (s *stepSim) aim(cfg *sim.Config, includeAV bool) {
	s.cfg, s.includeAV, s.lineBytes = *cfg, includeAV, cfg.LineBytes
}

// run composes one step's trace and simulates it on the persistent
// simulator: rewound with ResetTo when it has one of the same machine
// (reset reports it), built otherwise.
func (s *stepSim) run(running []StreamState) (res sim.Result, reset bool, err error) {
	tr, groupSize, err := s.compose(running)
	if err != nil {
		return sim.Result{}, false, err
	}
	reset = s.eng != nil && s.eng.ResetTo(s.cfg, tr, groupSize) == nil
	if !reset {
		if s.eng, err = sim.New(s.cfg, tr, groupSize); err != nil {
			return sim.Result{}, false, err
		}
	}
	res, err = s.eng.Run()
	return res, reset, err
}
