// The token-step fast path: signature-keyed step memoization, the
// shared per-stream operator-trace cache, and the canonical step
// signature.
//
// The cycle simulator is deterministic, so one token step's outcome —
// (cycles, counters) — is a pure function of the hardware
// configuration and the canonical state of the running set: the
// sorted (slot, model, kvLen) tuples plus the address layout (stream
// stride, AV inclusion). Two steps with the same signature are
// therefore bit-identical, wherever they execute: a later step of the
// same engine, another node of a cluster fleet, or another cell of an
// experiment grid. The StepMemo exploits exactly that: a hit skips
// trace composition and simulation entirely and replays the recorded
// result; a miss claims the signature, computes the step on the
// engine's stepSim (composition arena plus persistent resettable
// simulator) and publishes it, while other engines missing the same
// signature wait for it. A cluster node may also simulate its
// predicted next step ahead of time (speculate.go); the result lands
// under that step's own signature, so only a step with exactly that
// signature ever reads it.
//
// The same determinism argument covers the per-stream operator traces:
// the thread blocks of one stream's token step depend only on (model,
// kvLen, address base, AV, line size), so they are generated once and
// shared process-wide. Cached blocks are immutable masters — the
// composition arena copies the small ThreadBlock headers per step
// (instruction slices shared read-only) before stamping step-local
// IDs, which is what makes sharing safe across concurrently advancing
// node engines.
//
// Both caches are concurrency-safe and value-deterministic: whichever
// engine computes a key first, every reader observes the same bytes,
// so cluster fan-outs and experiment grids stay bit-reproducible at
// any parallelism. The step-cache *counters* are the one exception —
// they depend on process history and fan-out timing and are reported
// as diagnostics only (Metrics.StepCache), outside the bit-identity
// contract.

package serving

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/memtrace"
	"repro/internal/sim"
	"repro/internal/stats"
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
// so do the op-cache split and SimResets, which follow the steps an
// engine simulated itself. Only a single engine on a private memo
// counts deterministically.
type StepCacheStats struct {
	// MemoHits counts steps replayed from the signature memo, including
	// steps another engine (or this engine's speculation) was still
	// simulating, which the engine waited for; MemoMisses counts steps
	// the engine composed and simulated itself.
	MemoHits, MemoMisses int64
	// OpCacheHits/OpCacheMisses count per-stream operator-trace reuses
	// vs generations during the engine's own compositions (arena reuse).
	OpCacheHits, OpCacheMisses int64
	// SimResets counts sim.Engine.Reset rewinds of the engine's own
	// persistent simulator (its construction is counted once, not here).
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
	s.OpCacheHits += other.OpCacheHits
	s.OpCacheMisses += other.OpCacheMisses
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
}

// StepMemo is a concurrency-safe memo of token-step outcomes keyed by
// canonical step signature. Values are pure functions of their keys,
// so sharing one memo across engines, cluster nodes, experiment-grid
// cells — or the whole process — never changes a simulated number,
// only how often it is recomputed.
//
// A miss is claimed: the first engine to miss a signature owns it
// until it publishes the result, and any other engine that misses the
// same signature meanwhile waits for that result instead of simulating
// the step again. An owner whose simulation fails releases the claim,
// and its waiters claim the signature themselves. Hits never touch a
// claim: they stay on the read-locked map lookup, which takes the key
// as bytes and allocates nothing.
type StepMemo struct {
	mu       sync.RWMutex
	m        map[string]*stepResult
	inflight map[string]*stepClaim
	hits     atomic.Int64
	misses   atomic.Int64
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
	return &StepMemo{m: make(map[string]*stepResult), inflight: make(map[string]*stepClaim)}
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

// FlushSharedCaches drops every entry of the process-wide step memo
// and operator-trace cache, releasing their memory. Both caches grow
// with the number of distinct step states and per-stream operator
// traces simulated in the process; a long-lived embedding that cycles
// through many unrelated scenarios calls this between phases. Safe
// concurrently with running engines: traces already handed out remain
// valid, subsequent steps simply regenerate what they need, and claims
// in flight are kept — their owners publish into the emptied memo and
// wake their waiters as usual.
func FlushSharedCaches() {
	sharedMemo.mu.Lock()
	sharedMemo.m = make(map[string]*stepResult)
	sharedMemo.mu.Unlock()
	opCache.mu.Lock()
	opCache.m = make(map[opKey][]*memtrace.ThreadBlock)
	opCache.mu.Unlock()
}

// Hits returns how many lookups found a memoized step.
func (m *StepMemo) Hits() int64 { return m.hits.Load() }

// Misses returns how many lookups missed.
func (m *StepMemo) Misses() int64 { return m.misses.Load() }

// Len returns the number of memoized steps.
func (m *StepMemo) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.m)
}

// lookup returns the memoized result of the signature in key. The map
// index converts key without allocating, so a hit costs no allocation.
func (m *StepMemo) lookup(key []byte) (*stepResult, bool) {
	m.mu.RLock()
	r, ok := m.m[string(key)]
	m.mu.RUnlock()
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	return r, ok
}

// claim resolves a lookup miss: it returns the result if another
// engine published it meanwhile or was simulating it (waiting for the
// owner to publish), and otherwise makes the caller the owner of key
// (own != nil), who must publish or release it. A waiter whose owner
// released the claim tries again, so it may end up owning key itself.
func (m *StepMemo) claim(key string) (r *stepResult, own *stepClaim) {
	for {
		m.mu.Lock()
		if r, ok := m.m[key]; ok {
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
	if _, ok := m.m[key]; ok || m.inflight[key] != nil {
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
	m.m[key] = r
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

// configKey is everything a step's outcome depends on besides its
// running set, in comparable form: the full sim.Config with the
// optional controller parameter blocks by value (rendered, since
// DynMG holds a slice; empty when unset — pointer addresses must never
// enter a key), AV inclusion and the per-slot address stride. Two
// engines with equal keys run bit-identical hardware on bit-identical
// address layouts.
type configKey struct {
	cfg           sim.Config // DynMG and DYNCTA cleared
	dynmg, dyncta string
	includeAV     bool
	stride        uint64
}

// configSignature returns the configuration key of a serving engine.
func configSignature(cfg sim.Config, includeAV bool, stride uint64) configKey {
	k := configKey{dynmg: paramBlock(cfg.DynMG), dyncta: paramBlock(cfg.DYNCTA), includeAV: includeAV, stride: stride}
	cfg.DynMG, cfg.DYNCTA = nil, nil
	k.cfg = cfg
	return k
}

// paramBlock renders an optional controller parameter block by value.
func paramBlock[T any](p *T) string {
	if p == nil {
		return ""
	}
	return fmt.Sprintf("%+v", *p)
}

// prefixIDs interns configuration keys: every distinct key maps to a
// short stable id that step signatures embed in place of the
// configuration, so the memo's keys stay small and the hit-path key
// build copies a handful of bytes. An engine's construction costs one
// map probe. Interning is injective by construction (one id per
// distinct key), so key collisions remain impossible.
var prefixIDs = struct {
	mu   sync.Mutex
	m    map[configKey]string
	next uint64
}{m: make(map[configKey]string)}

// internPrefix returns the signature prefix of a serving engine's
// configuration.
func internPrefix(cfg sim.Config, includeAV bool, stride uint64) string {
	k := configSignature(cfg, includeAV, stride)
	prefixIDs.mu.Lock()
	defer prefixIDs.mu.Unlock()
	if id, ok := prefixIDs.m[k]; ok {
		return id
	}
	id := "c" + strconv.FormatUint(prefixIDs.next, 36)
	prefixIDs.next++
	prefixIDs.m[k] = id
	return id
}

// appendStepSignature appends the canonical running-set signature to
// buf: the prefix followed by the (slot, model, kvLen, base) tuples in
// ascending slot order, each prefill pass additionally carrying a
// "p<chunk>" phase component. Decode-only running sets render exactly
// the pre-prefill byte sequence, so the step memo keys of decode-only
// scenarios are unchanged across the prefill subsystem's introduction.
// The input order of streams is irrelevant — scratch receives a sorted
// copy — so any presentation of the same running set produces the same
// key. A running set holds at most MaxBatch+1 streams with distinct
// slots, nearly in slot order (selectStep appends the prefill pass
// last), so an insertion sort orders it. Returns the grown buffers for
// reuse.
func appendStepSignature(buf []byte, prefix string, streams []StreamState, scratch []StreamState) ([]byte, []StreamState) {
	scratch = append(scratch[:0], streams...)
	for i := 1; i < len(scratch); i++ {
		for j := i; j > 0 && scratch[j].Slot < scratch[j-1].Slot; j-- {
			scratch[j], scratch[j-1] = scratch[j-1], scratch[j]
		}
	}
	buf = append(buf[:0], prefix...)
	for _, st := range scratch {
		buf = append(buf, '|')
		if st.ChunkLen > 0 {
			buf = append(buf, 'p')
			buf = strconv.AppendInt(buf, int64(st.ChunkLen), 10)
			buf = append(buf, '~')
		}
		buf = strconv.AppendInt(buf, int64(st.Slot), 10)
		buf = append(buf, ':')
		buf = append(buf, st.Model.Name...)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(st.Model.H), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(st.Model.G), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(st.Model.D), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(st.Model.ElemBytes), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(st.Model.OutBytes), 10)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(st.KVLen), 10)
		buf = append(buf, '@')
		buf = strconv.AppendUint(buf, st.Base, 10)
	}
	return buf, scratch
}

// StepSignature returns the canonical signature of a running set under
// a config prefix — exported so tests can assert the canonicalization
// properties (slot-order invariance; sensitivity to kvLen, model,
// base and prefix) directly.
func StepSignature(prefix string, streams []StreamState) string {
	buf, _ := appendStepSignature(nil, prefix, streams, nil)
	return string(buf)
}

// opKey identifies one stream's per-step operator trace: everything
// trace generation depends on. chunk == 0 is a decode step; chunk > 0
// is a prefill pass of that many prompt tokens (the phase component of
// the cache key).
type opKey struct {
	model     workload.ModelConfig
	kvLen     int
	chunk     int
	slot      int
	base      uint64
	av        bool
	lineBytes int
}

// opCache is the process-wide per-stream operator-trace cache. Cached
// block slices are immutable masters: Meta.Stream is stamped (it is
// part of the key via slot) but IDs are left zero — the composition
// arena copies the headers and stamps step-local IDs.
var opCache = struct {
	mu sync.RWMutex
	m  map[opKey][]*memtrace.ThreadBlock
}{m: make(map[opKey][]*memtrace.ThreadBlock)}

// stepSim simulates token steps on the fast path: the per-stream
// operator-trace lookups, the composition arena and the persistent
// resettable simulator. Every engine owns one for its own steps, and
// speculative steps run on others drawn from a SpecPool, so both run
// the same code. A stepSim serves one configuration and one goroutine
// at a time.
type stepSim struct {
	cfg       sim.Config
	includeAV bool
	// ops counts op-trace reuses and generations and simulator rewinds
	// (its OpCache* and SimResets fields).
	ops        StepCacheStats
	perStream  [][]*memtrace.ThreadBlock
	blockArena []memtrace.ThreadBlock
	trace      memtrace.Trace
	eng        *sim.Engine
	// running holds the running set of a speculative step, copied out
	// of the engine whose buffers move on while it is simulated.
	running []StreamState
}

// run composes one step's trace and simulates it on the persistent
// simulator, built on first use and rewound with Reset after that.
func (s *stepSim) run(running []StreamState) (sim.Result, error) {
	tr, groupSize, err := s.compose(running)
	if err != nil {
		return sim.Result{}, err
	}
	if s.eng == nil {
		if s.eng, err = sim.New(s.cfg, tr, groupSize); err != nil {
			return sim.Result{}, err
		}
	} else {
		if err = s.eng.Reset(tr, groupSize); err != nil {
			return sim.Result{}, err
		}
		s.ops.SimResets++
	}
	return s.eng.Run()
}

// opBlocks returns the cached per-token thread blocks for one stream,
// generating and publishing them on first use.
func (s *stepSim) opBlocks(st StreamState) ([]*memtrace.ThreadBlock, error) {
	key := opKey{
		model: st.Model, kvLen: st.KVLen, chunk: st.ChunkLen, slot: st.Slot,
		base: st.Base, av: s.includeAV, lineBytes: s.cfg.LineBytes,
	}
	opCache.mu.RLock()
	blocks, ok := opCache.m[key]
	opCache.mu.RUnlock()
	if ok {
		s.ops.OpCacheHits++
		return blocks, nil
	}
	s.ops.OpCacheMisses++
	blocks, _, err := streamBlocks(st, s.includeAV, s.cfg.LineBytes)
	if err != nil {
		return nil, err
	}
	opCache.mu.Lock()
	if cached, dup := opCache.m[key]; dup {
		blocks = cached // a concurrent generator won; share its masters
	} else {
		opCache.m[key] = blocks
	}
	opCache.mu.Unlock()
	return blocks, nil
}

// compose builds a step trace into the reusable arena: per-stream
// cached blocks are header-copied into the block arena (instruction
// slices shared), interleaved round-robin exactly like ComposeStep,
// and stamped with step-local IDs. The returned trace aliases storage
// owned by s, valid until the next composition.
func (s *stepSim) compose(running []StreamState) (*memtrace.Trace, int, error) {
	groupSize := 0
	s.perStream = s.perStream[:0]
	total := 0
	for _, st := range running {
		if st.Model.G > groupSize {
			groupSize = st.Model.G
		}
		blocks, err := s.opBlocks(st)
		if err != nil {
			return nil, 0, err
		}
		s.perStream = append(s.perStream, blocks)
		total += len(blocks)
	}
	if cap(s.blockArena) < total {
		s.blockArena = make([]memtrace.ThreadBlock, 0, total)
	}
	arena := s.blockArena[:0] // capacity ensured: pointers below stay stable
	out := &s.trace
	out.Name = "serve/step"
	if cap(out.Blocks) < total {
		out.Blocks = make([]*memtrace.ThreadBlock, 0, total)
	}
	out.Blocks = out.Blocks[:0]
	for j := 0; ; j++ {
		appended := false
		for i := range s.perStream {
			if j < len(s.perStream[i]) {
				arena = append(arena, *s.perStream[i][j])
				tb := &arena[len(arena)-1]
				tb.ID = len(out.Blocks)
				out.Blocks = append(out.Blocks, tb)
				appended = true
			}
		}
		if !appended {
			break
		}
	}
	s.blockArena = arena
	return out, groupSize, nil
}
