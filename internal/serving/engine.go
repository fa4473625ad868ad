// The incremental continuous-batching engine: one server instance
// that can be driven step by step. Run wraps it for whole-scenario
// execution; the cluster router (internal/cluster) holds one Engine
// per node and interleaves request admission with node progress, so
// routing decisions can observe each node's load mid-flight.

package serving

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/hwprof"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// stream is one occupied batch slot.
type stream struct {
	// row is the request's index into the engine's reqs and stats.
	row   int
	slot  int
	kvLen int
	left  int
	// prefillLeft is the prompt tokens still to prefill on-node; 0
	// means the stream is in its decode phase (decode-only streams are
	// born with 0 — the prompt is assumed prefilled elsewhere).
	prefillLeft int
	admit       int64
	tokens      int
	// reserved is the KV tokens this stream holds against the capacity
	// gate: kvReserve(req) minus any prefix-cache hit at admission.
	// Released exactly once, at retirement or preemption.
	reserved int64
	// prefillPhase is where the hardware profiler attributes this
	// stream's prefill passes: PhasePrefill (the zero value) for a
	// fresh prompt, or a recompute phase when the stream is rebuilding
	// KV evicted by preemption or lost to a node crash. Decode passes
	// are always PhaseDecode.
	prefillPhase hwprof.Phase
}

// resumePoint is where a preempted or redispatched request resumes:
// the decode tokens it had generated when its KV was lost, and whether
// it was lost to a crash elsewhere (SubmitResume) rather than evicted
// on this node, so the hardware profiler attributes the recompute
// prefill to the right phase.
type resumePoint struct {
	tokens       int
	redispatched bool
}

// Engine is one continuous-batching server advanced incrementally on
// its own local clock. Requests are submitted in arrival order
// (Submit), the clock is advanced to routing horizons (AdvanceTo) and
// the remaining work is finished with Drain; Metrics can be read at
// any step boundary. Driving an Engine with Submit-all-then-Drain is
// exactly Run — the single-node serving semantics and the cluster's
// per-node semantics are one implementation, which is what makes a
// 1-node cluster bit-identical to a plain serving run.
type Engine struct {
	// cfg is the configuration's interned copy, shared by every engine
	// that runs it (see internConfig).
	cfg       *sim.Config
	maxBatch  int
	includeAV bool
	stride    uint64
	sched     SchedulerConfig

	// slots[i] is the stream in batch slot i (nil when free); it points
	// into store, which holds one stream per slot, so an admission
	// allocates nothing.
	slots []*stream
	store []stream
	// reqs holds every submitted request in submit order, parallel to
	// stats: a request's index in both is its row. reqs[next:] are
	// pending (submitted, arrival still ahead of the local clock);
	// queue holds the rows whose arrival was reached, waiting for a
	// slot (FCFS).
	reqs   []Request
	next   int
	queue  []int
	now    int64
	kvUsed int64 // KV tokens reserved by live streams (capacity gate)
	// owed and backlog are the sums OutstandingTokens and PrefillBacklog
	// report, kept as each request is submitted, admitted, preempted,
	// advanced or lost to a crash: the decode tokens and prompt tokens
	// live streams still owe, plus the whole budgets of queued and
	// pending requests.
	owed, backlog int64

	// Preemption state (Sched.Preempt != PreemptOff, or a crash
	// redispatch): resume maps a request's ID to its resume point, so
	// re-admission recomputes the KV prefix (prompt plus generated
	// tokens) as prefill and decode continues where it stopped instead
	// of double-counting tokens. preemptions counts eviction events;
	// victims is per-admit scratch.
	resume      map[int]resumePoint
	preemptions int64
	victims     []*stream

	// Session prefix cache (Sched.PrefixCacheTokens > 0; nil otherwise,
	// leaving every admission on the exact pre-prefix-cache path). See
	// prefixcache.go for the retention/lookup contract.
	pfx          *prefixCache
	prefixHits   int64
	prefixMisses int64
	prefillSaved int64 // prompt tokens skipped via prefix hits

	// Telemetry (RunOptions.Recorder; nil = no recording, the exact
	// pre-telemetry branch structure). rec receives lifecycle events;
	// memoHit tags the current step's events as memo-replayed;
	// sampleEvery/nextSample drive the K-cycle gauge sampler (samples
	// are stamped on the shared k·sampleEvery boundaries so fleet
	// rollups align across nodes).
	rec         telemetry.Recorder
	memoHit     bool
	sampleEvery int64
	nextSample  int64

	// Hardware profiling (RunOptions.HWProf; nil = no capture, the
	// exact pre-profiling branch structure, mirroring rec). prof
	// receives every applied step's (cycles, counters) delta with the
	// per-stream attribution shares built in profShares scratch.
	prof       *hwprof.Profile
	profShares []hwprof.StreamShare

	// slow is the straggler multiplier on every executed (or replayed)
	// step's cycle cost (see SetSlowdown); values <= 1 leave the step
	// cost untouched — the exact pre-fault arithmetic.
	slow int64

	steps         int64
	cycles        int64
	tokens        int64
	prefillTokens int64 // prompt tokens prefilled on-node
	prefillSteps  int64 // steps that carried a prefill pass
	counters      stats.Counters
	tokenLats     []float64
	queueLats     []float64
	ttfts         []float64
	stats         []RequestStats // submit order
	ids           []int          // every submitted request ID, sorted (the duplicate check)
	unfinished    int
	running       []StreamState // per-step scratch

	// Token-step fast path (see stepcache.go). mode selects the path;
	// memo is the shared signature memo; sims lends the stepSim each
	// simulated step composes and runs on (the run's pool, or a private
	// width-1 pool built at the engine's first miss, so an engine that
	// replays every step never builds one); sig builds step signatures
	// into the reusable key buffer sigBuf; cacheStats holds the memo,
	// reset and speculation counters.
	mode       StepCacheMode
	memo       *StepMemo
	sig        signer
	sigBuf     []byte
	sims       *SimPool
	cacheStats StepCacheStats

	// Speculative next-step simulation (SetSimPool; see speculate.go):
	// whether the engine speculates, and the state of its speculations,
	// nil until the first.
	speculates bool
	spec       *specState
}

// NewEngineWith builds an empty server: a batch capacity, the
// per-token trace composition mode, the per-slot address-space stride
// (StreamStride of the request population the engine may receive — in
// a cluster, of the whole fleet's population, so every node uses the
// same address layout regardless of routing), and the run options:
// the step-cache mode and memo (zero value: the default fast path on
// the shared memo), scheduler, telemetry and profiling.
func NewEngineWith(cfg sim.Config, maxBatch int, includeAV bool, stride uint64, opts RunOptions) (*Engine, error) {
	e := new(Engine)
	if err := e.Reset(cfg, maxBatch, includeAV, stride, opts); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset makes e the empty server NewEngineWith(cfg, maxBatch,
// includeAV, stride, opts) returns — NewEngineWith builds its engine
// with it — but keeps the storage of e's tables, so runs executed one
// after another on one engine size them once. Every request, queue,
// resume point, prefix-cache entry, counter and statistic of the
// previous run is cleared; its Metrics and HW profile share no storage
// with the engine and are not touched. The previous run must be over,
// its speculations included (see SetSimPool). A Reset that fails
// leaves e as it was.
func (e *Engine) Reset(cfg sim.Config, maxBatch int, includeAV bool, stride uint64, opts RunOptions) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if maxBatch <= 0 {
		return fmt.Errorf("serving: MaxBatch must be positive, got %d", maxBatch)
	}
	if stride == 0 || stride%streamAlign != 0 {
		return fmt.Errorf("serving: stride %d is not a positive multiple of the %d-byte stream alignment", stride, streamAlign)
	}
	if err := opts.Sched.Validate(); err != nil {
		return err
	}
	// The previous run's interned configuration serves again when it is
	// the same; a configuration with parameter blocks is always looked
	// up, as their pointers never match the interned copies'.
	shared, prefix := e.cfg, e.sig.prefix
	if shared == nil || cfg.DynMG != nil || cfg.DYNCTA != nil || *shared != cfg ||
		e.includeAV != includeAV || e.stride != stride {
		c := internConfig(cfg, includeAV, stride)
		shared, prefix = &c.cfg, c.prefix
	}
	pfx, profShares := e.pfx, e.profShares
	*e = Engine{
		cfg:       shared,
		maxBatch:  maxBatch,
		includeAV: includeAV,
		stride:    stride,
		sched:     opts.Sched,
		slots:     reuse(e.slots, maxBatch)[:maxBatch],
		store:     reuse(e.store, maxBatch)[:maxBatch],
		reqs:      e.reqs[:0],
		queue:     e.queue[:0],
		resume:    e.resume,
		victims:   e.victims[:0],
		tokenLats: e.tokenLats[:0],
		queueLats: e.queueLats[:0],
		ttfts:     e.ttfts[:0],
		stats:     e.stats[:0],
		ids:       e.ids[:0],
		running:   reuse(e.running, maxBatch+1),
		mode:      opts.StepCache,
		memo:      opts.Memo,
		rec:       opts.Recorder,
		// Every step key (and every memo entry's key) embeds the
		// configuration's 8-byte id instead of the configuration. The key
		// buffer and the signer's scratch are sized for the largest
		// running set.
		sig:    signer{prefix: prefix, order: reuse(e.sig.order, maxBatch+1), models: e.sig.models},
		sigBuf: reuse(e.sigBuf, len(prefix)+streamKeyBytes*(maxBatch+1)),
		sims:   opts.Sims,
	}
	clear(e.slots)
	clear(e.store)
	clear(e.resume)
	if opts.Recorder != nil && opts.SampleEvery > 0 {
		e.sampleEvery = opts.SampleEvery
		// The first sample lands on the first boundary, not cycle 0:
		// an all-zero gauge row per node carries no information.
		e.nextSample = opts.SampleEvery
	}
	if n := opts.Sched.PrefixCacheTokens; n > 0 {
		if e.pfx = pfx; e.pfx == nil {
			e.pfx = newPrefixCache(n)
		}
		e.pfx.reset(n)
	}
	if opts.HWProf.Enabled {
		// A fresh profile: the previous run's snapshot is its own copy,
		// but the profile itself is not rewound.
		e.prof = hwprof.New(hwprof.Params{
			FreqGHz:      cfg.FreqGHz,
			LineBytes:    cfg.LineBytes,
			NumCores:     cfg.NumCores,
			DRAMChannels: cfg.DRAMChannels,
		}, opts.HWProf)
		e.profShares = reuse(profShares, maxBatch+1)
	}
	if e.mode == StepCacheOn && e.memo == nil {
		e.memo = SharedStepMemo()
	}
	return nil
}

// reuse returns s emptied, keeping its storage when it can hold n
// elements.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// Prealloc sizes the engine's per-request tables and statistics
// buffers for the work it is expected to receive — a request count and
// their total decode tokens — so the step loop appends without
// growing. Callers invoke it before the first Submit; Run and the
// cluster router do.
func (e *Engine) Prealloc(requests int, tokens int64) {
	if cap(e.reqs) < requests {
		e.reqs = append(make([]Request, 0, requests), e.reqs...)
	}
	if cap(e.stats) < requests {
		e.stats = append(make([]RequestStats, 0, requests), e.stats...)
	}
	if cap(e.queue) < requests {
		e.queue = append(make([]int, 0, requests), e.queue...)
	}
	if cap(e.ids) < requests {
		e.ids = append(make([]int, 0, requests), e.ids...)
	}
	// The three latency samples share one block, each capped at its
	// share so none appends into another's.
	nt := max(int(tokens), len(e.tokenLats))
	nr := max(requests, len(e.queueLats), len(e.ttfts))
	if cap(e.tokenLats) < nt || cap(e.queueLats) < nr || cap(e.ttfts) < nr {
		lats := make([]float64, 0, nt+2*nr)
		e.tokenLats = append(lats[:0:nt], e.tokenLats...)
		e.queueLats = append(lats[nt:nt:nt+nr], e.queueLats...)
		e.ttfts = append(lats[nt+nr:nt+nr:nt+2*nr], e.ttfts...)
	}
}

// Submit hands the engine one more request. Requests must arrive in
// nondecreasing ArrivalCycle order (the global dispatch order of a
// router, or the sorted order of a scenario) and carry unique IDs.
func (e *Engine) Submit(req Request) error {
	if err := req.Validate(); err != nil {
		return err
	}
	at, dup := slices.BinarySearch(e.ids, req.ID)
	if dup {
		return fmt.Errorf("serving: duplicate request ID %d submitted", req.ID)
	}
	if err := e.sched.CheckAdmissible(req); err != nil {
		return err
	}
	if n := len(e.reqs); e.next < n && req.ArrivalCycle < e.reqs[n-1].ArrivalCycle {
		return fmt.Errorf("serving: request %d submitted out of arrival order (%d after %d)",
			req.ID, req.ArrivalCycle, e.reqs[n-1].ArrivalCycle)
	}
	e.ids = slices.Insert(e.ids, at, req.ID)
	e.stats = append(e.stats, RequestStats{
		ID:           req.ID,
		Model:        req.Model.Name,
		ArrivalCycle: req.ArrivalCycle,
	})
	e.reqs = append(e.reqs, req)
	e.unfinished++
	e.owed += int64(req.DecodeTokens)
	e.backlog += int64(req.PromptLen)
	if e.rec != nil {
		e.rec.Record(telemetry.Event{
			Kind: telemetry.KindArrive, Cycle: req.ArrivalCycle,
			Req: req.ID, Session: req.Session, Slot: -1, Target: -1,
			Tokens: req.PromptLen, KVLen: int(kvReserve(req)),
		})
	}
	return nil
}

// admit moves pending arrivals up to the local clock into the FCFS
// queue, then fills free batch slots lowest-index first — the
// iteration-boundary admission of continuous batching. When a KV
// capacity is configured, the queue head is admitted only while its
// maximum KV footprint fits the remaining capacity; admission stays
// strict FCFS, so a too-large head blocks the queue until running
// streams retire and release their reservations — unless a preemption
// policy is set, in which case the blocked head may evict victims
// (tryPreempt) and claim their reservations.
func (e *Engine) admit() {
	for e.next < len(e.reqs) && e.reqs[e.next].ArrivalCycle <= e.now {
		e.queue = append(e.queue, e.next)
		e.next++
	}
	for len(e.queue) > 0 {
		slot := -1
		for i, s := range e.slots {
			if s == nil {
				slot = i
				break
			}
		}
		if slot < 0 {
			break
		}
		row := e.queue[0]
		req := &e.reqs[row]
		need := kvReserve(*req)
		prefix := 0
		if e.pfx != nil {
			// A usable cached prefix shrinks both the reservation and
			// the prefill debt. The lookup is read-only; notePrefix
			// applies the LRU refresh once the admission happens, so a
			// blocked head re-evaluates fresh on every pass (including
			// re-admission after preemption — re-validation, not trust).
			prefix = e.pfx.lookup(req.Session, req.PrefixLen)
			need -= int64(prefix)
		}
		if e.sched.KVCapTokens > 0 && e.kvUsed+need > e.sched.KVCapTokens {
			if !e.tryPreempt(row, need) {
				break
			}
			// Eviction may have freed a lower slot than the one found
			// above; restart the pass so slots fill lowest-index first.
			continue
		}
		// Popped in place, so the queue keeps the capacity it was sized
		// with.
		e.queue = e.queue[:copy(e.queue, e.queue[1:])]
		e.kvUsed += need
		e.notePrefix(row, prefix)
		s := &e.store[slot]
		*s = stream{
			row:      row,
			slot:     slot,
			kvLen:    req.PromptLen,
			left:     req.DecodeTokens,
			admit:    e.now,
			reserved: need,
		}
		if e.sched.Policy != SchedDecodeOnly {
			// The node runs the prompt's prefill itself: the KV cache
			// starts with the cached prefix (0 on a miss or with the
			// cache off) and fills as chunks complete.
			s.kvLen = prefix
			s.prefillLeft = req.PromptLen - prefix
		}
		if res, resumed := e.resume[req.ID]; resumed {
			// Re-admission after preemption (or redispatch after a node
			// crash): the dropped KV prefix — the prompt plus every token
			// generated before eviction — is recomputed as prefill (minus
			// any still-cached session prefix), then decode resumes where
			// it stopped. Tokens are never generated twice.
			delete(e.resume, req.ID)
			s.tokens = res.tokens
			s.left = req.DecodeTokens - res.tokens
			s.kvLen = prefix
			s.prefillLeft = req.PromptLen + res.tokens - prefix
			// The rebuilt KV prefix is recompute work, not fresh
			// prefill — attributed to the phase matching how it was
			// lost (eviction on this node vs a crash elsewhere).
			s.prefillPhase = hwprof.PhaseRecomputePreempt
			if res.redispatched {
				s.prefillPhase = hwprof.PhaseRecomputeRedispatch
			}
			if e.sched.Policy == SchedDecodeOnly {
				// Decode-only nodes assume prefill happens elsewhere;
				// a crash-recovered stream's recomputation is likewise
				// off-node — the KV prefix reappears whole.
				s.kvLen = req.PromptLen + res.tokens
				s.prefillLeft = 0
			}
			e.slots[slot] = s
			e.moveLoad(s, req, 1)
			if e.rec != nil {
				e.rec.Record(telemetry.Event{
					Kind: telemetry.KindAdmit, Cycle: e.now,
					Req: req.ID, Session: req.Session, Slot: slot, Target: -1,
					Tokens: res.tokens, KVLen: int(need),
				})
			}
			continue
		}
		e.slots[slot] = s
		e.moveLoad(s, req, 1)
		e.queueLats = append(e.queueLats, float64(e.now-req.ArrivalCycle))
		st := &e.stats[row]
		st.AdmitCycle = e.now
		st.QueueDelay = e.now - req.ArrivalCycle
		if e.rec != nil {
			e.rec.Record(telemetry.Event{
				Kind: telemetry.KindAdmit, Cycle: e.now,
				Req: req.ID, Session: req.Session, Slot: slot, Target: -1,
				KVLen: int(need),
			})
		}
	}
}

// notePrefix folds one admission's prefix-cache outcome into the
// engine: a hit refreshes the entry's LRU position and is counted
// (with its skipped tokens) in the engine and per-request stats; a
// request that carried a prefix but found none usable counts as a
// miss. Re-admissions after preemption pass through here again — each
// re-validation is a lookup of its own.
func (e *Engine) notePrefix(row, prefix int) {
	req := &e.reqs[row]
	if e.pfx == nil || req.PrefixLen == 0 {
		return
	}
	kind := telemetry.KindPrefixMiss
	if prefix > 0 {
		e.pfx.commit(req.Session)
		e.prefixHits++
		e.prefillSaved += int64(prefix)
		e.stats[row].PrefixTokens += prefix
		kind = telemetry.KindPrefixHit
	} else {
		e.prefixMisses++
	}
	if e.rec != nil {
		e.rec.Record(telemetry.Event{
			Kind: kind, Cycle: e.now,
			Req: req.ID, Session: req.Session, Slot: -1, Target: -1,
			Tokens: prefix,
		})
	}
}

// moveLoad moves a request's share of the owed and backlog sums from
// its whole budgets to what its stream s still owes (dir 1, at
// admission) or back (dir -1, at preemption).
func (e *Engine) moveLoad(s *stream, req *Request, dir int64) {
	e.owed += dir * int64(s.left-req.DecodeTokens)
	e.backlog += dir * int64(s.prefillLeft-req.PromptLen)
}

// tryPreempt frees KV capacity for a blocked admission head by
// evicting running streams under the configured victim policy. The
// eviction is all-or-nothing: victims are taken in policy order until
// the head fits, and nothing is evicted if even evicting every running
// stream would not make it fit. Only a head that has itself never been
// preempted may trigger eviction — a preempted request waits out
// head-of-line blocking like before — which bounds eviction events at
// requests × batch slots and rules out livelock. Victims drop their
// reservation and requeue behind the current FCFS queue; their decode
// progress is remembered in e.resume for recompute on re-admission.
func (e *Engine) tryPreempt(head int, need int64) bool {
	if e.sched.Preempt == PreemptOff {
		return false
	}
	if e.stats[head].Preemptions > 0 {
		return false
	}
	e.victims = e.victims[:0]
	for _, s := range e.slots {
		if s != nil {
			e.victims = append(e.victims, s)
		}
	}
	if len(e.victims) == 0 {
		return false
	}
	fewest := e.sched.Preempt == PreemptFewestTokens
	slices.SortFunc(e.victims, func(va, vb *stream) int {
		if fewest && va.tokens != vb.tokens {
			return cmp.Compare(va.tokens, vb.tokens)
		}
		return cmp.Or(cmp.Compare(vb.admit, va.admit), cmp.Compare(vb.slot, va.slot))
	})
	freed, take := int64(0), 0
	for take < len(e.victims) && e.kvUsed-freed+need > e.sched.KVCapTokens {
		freed += e.victims[take].reserved
		take++
	}
	if e.kvUsed-freed+need > e.sched.KVCapTokens {
		return false
	}
	for _, v := range e.victims[:take] {
		req := &e.reqs[v.row]
		e.slots[v.slot] = nil
		e.kvUsed -= v.reserved
		e.moveLoad(v, req, -1)
		e.setResume(req.ID, resumePoint{tokens: v.tokens})
		e.queue = append(e.queue, v.row)
		e.preemptions++
		e.stats[v.row].Preemptions++
		if e.rec != nil {
			e.rec.Record(telemetry.Event{
				Kind: telemetry.KindPreempt, Cycle: e.now,
				Req: req.ID, Session: req.Session, Slot: v.slot, Target: -1,
				Tokens: v.tokens, KVLen: int(v.reserved),
			})
		}
	}
	return true
}

func (e *Engine) runnable() bool {
	for _, s := range e.slots {
		if s != nil {
			return true
		}
	}
	return false
}

// stepOnce executes one continuous-batching iteration over the
// scheduler-selected running set: every decode-phase participant
// decodes one token, a prefill participant advances one pass, all over
// one composed multi-stream trace. Under the default fast path a
// memoized signature replays the recorded (cycles, counters) without
// composing or simulating anything; a miss claims the signature and
// borrows a stepSim from the run's pool, which composes in place and
// rewinds its persistent simulator (while, with speculation on, the
// predicted next step runs alongside on another). StepCacheOff is the
// naive reference: a fresh trace and a fresh simulator per step. All
// paths are bit-identical — the step cache equivalence tests assert
// it. The caller guarantees at least one slot is occupied.
func (e *Engine) stepOnce() error {
	e.running = e.selectStep(e.slots, e.running)
	e.memoHit = false

	if e.mode == StepCacheOff {
		tr, groupSize, err := ComposeStep(e.running, e.includeAV, e.cfg.LineBytes)
		if err != nil {
			return err
		}
		eng, err := sim.New(*e.cfg, tr, groupSize)
		if err != nil {
			return err
		}
		res, err := eng.Run()
		if err != nil {
			return fmt.Errorf("serving: step %d: %w", e.steps, err)
		}
		e.applyStep(e.stepCost(res.Cycles), &res.Counters)
		return nil
	}

	var (
		key string
		own *stepClaim
	)
	if e.mode == StepCacheOn {
		e.sigBuf = e.sig.append(e.sigBuf, e.running)
		if e.spec != nil {
			e.settleSpec(e.sigBuf)
		}
		r, ok := e.memo.lookup(e.sigBuf)
		if !ok {
			// Only a miss builds the key string: its claim, and the memo
			// entry it publishes, keep it.
			key = string(e.sigBuf)
			r, own = e.memo.claim(key)
		}
		if own == nil {
			e.cacheStats.MemoHits++
			// Replayed steps still flow through applyStep, so telemetry
			// events for memo hits are synthesized from the replayed
			// (cycles, counters) with MemoHit set — never skipped.
			e.memoHit = true
			e.applyStep(e.stepCost(r.cycles), &r.counters)
			return nil
		}
		e.cacheStats.MemoMisses++
		if e.speculates {
			e.speculate()
		}
	}

	if e.sims == nil {
		e.sims = NewSimPool(1)
	}
	s := e.sims.get(e.cfg, e.includeAV)
	res, reset, err := s.run(e.running)
	e.sims.put(s)
	if reset {
		e.cacheStats.SimResets++
	}
	if err != nil {
		if own != nil {
			e.memo.release(key, own)
		}
		return fmt.Errorf("serving: step %d: %w", e.steps, err)
	}
	if own != nil {
		e.memo.publish(key, own, newStepResult(&res))
	}
	e.applyStep(e.stepCost(res.Cycles), &res.Counters)
	return nil
}

// stepCost scales one step's cycle cost by the straggler multiplier.
// The step memo always stores the unscaled cost — scaling happens on
// the way out — so memo hits and misses agree whatever windows a node
// passed through.
func (e *Engine) stepCost(cycles int64) int64 {
	if e.slow > 1 {
		return cycles * e.slow
	}
	return cycles
}

// SetSlowdown sets the straggler multiplier: while factor > 1 every
// step the engine executes (or replays) costs factor times its nominal
// cycles, modelling a degraded node whose cycle progression lags the
// fleet. factor <= 1 restores nominal speed. The cluster's fault plan
// drives this at straggler-window boundaries; a step in flight at the
// boundary keeps the factor it started under (steps are never split).
func (e *Engine) SetSlowdown(factor int64) {
	if factor < 1 {
		factor = 1
	}
	e.slow = factor
}

// selectStep builds a step's running set over a view of the batch
// slots into running, per the scheduler policy, and returns it. The
// view is e.slots for the step about to run, or the advanced copy
// predictNext builds. Decode-only: every occupied slot decodes (the
// pre-prefill behaviour, entry for entry). Prefill-first: while any
// stream owes prefill, the step is that stream's monolithic prefill
// pass alone (oldest admission first, ties to the lowest slot) and
// decodes stall. Chunked: every decode-phase stream decodes and the
// oldest prefilling stream advances one chunk in the same step.
func (e *Engine) selectStep(slots []*stream, running []StreamState) []StreamState {
	running = running[:0]
	var pre *stream
	for _, s := range slots {
		if s == nil {
			continue
		}
		if s.prefillLeft > 0 {
			if pre == nil || s.admit < pre.admit || (s.admit == pre.admit && s.slot < pre.slot) {
				pre = s
			}
			continue
		}
		running = append(running, StreamState{
			Slot:  s.slot,
			Base:  uint64(s.slot) * e.stride,
			Model: e.reqs[s.row].Model,
			KVLen: s.kvLen,
		})
	}
	if pre == nil {
		return running
	}
	adv := e.sched.prefillTarget(pre.prefillLeft)
	st := StreamState{
		Slot:     pre.slot,
		Base:     uint64(pre.slot) * e.stride,
		Model:    e.reqs[pre.row].Model,
		KVLen:    pre.kvLen + adv,
		ChunkLen: adv,
	}
	if e.sched.Policy == SchedPrefillFirst {
		// Monolithic prefill preempts every decode stream.
		return append(running[:0], st)
	}
	return append(running, st)
}

// advance moves a stream by its part in one step — a prefill pass
// grows the KV cache by its chunk, a decode pass by one token — and
// reports whether the stream decoded a token. applyStep and
// predictNext share it.
func (s *stream) advance(rs *StreamState) (decoded bool) {
	if rs.ChunkLen > 0 {
		s.kvLen += rs.ChunkLen
		s.prefillLeft -= rs.ChunkLen
		return false
	}
	s.kvLen++
	s.left--
	s.tokens++
	return true
}

// applyStep folds one executed (or replayed) step into the engine:
// clock, aggregate counters, per-token latencies, prefill progress,
// first-token timestamps and stream retirement. Participants are the
// entries of e.running (built by selectStep for this step). ctr is only
// read: on a replay it is the shared memo entry's.
func (e *Engine) applyStep(stepCycles int64, ctr *stats.Counters) {
	e.now += stepCycles
	e.steps++
	e.cycles += stepCycles
	e.counters.Add(ctr)

	if e.prof != nil {
		// Attribution shares mirror the running set exactly: one decode
		// token per decode participant, the chunk length for a prefill
		// pass, with the stream's phase tag. Built before the retirement
		// pass below nils any slots.
		e.profShares = e.profShares[:0]
		for i := range e.running {
			rs := &e.running[i]
			sh := hwprof.StreamShare{
				Req: e.reqs[e.slots[rs.Slot].row].ID, Tokens: 1, Phase: hwprof.PhaseDecode,
			}
			if rs.ChunkLen > 0 {
				sh.Tokens = rs.ChunkLen
				sh.Phase = e.slots[rs.Slot].prefillPhase
			}
			e.profShares = append(e.profShares, sh)
		}
		e.prof.Step(e.now, stepCycles, ctr, e.profShares)
	}

	for i := range e.running {
		rs := &e.running[i]
		s := e.slots[rs.Slot]
		req := &e.reqs[s.row]
		if !s.advance(rs) {
			e.backlog -= int64(rs.ChunkLen)
			e.prefillTokens += int64(rs.ChunkLen)
			e.prefillSteps++
			if e.rec != nil {
				e.rec.Record(telemetry.Event{
					Kind: telemetry.KindPrefill, Cycle: e.now, Dur: stepCycles,
					Req: req.ID, Session: req.Session, Slot: rs.Slot, Target: -1,
					Tokens: rs.ChunkLen, MemoHit: e.memoHit,
				})
			}
			continue
		}
		e.tokens++
		e.owed--
		e.tokenLats = append(e.tokenLats, float64(stepCycles))
		if s.tokens == 1 {
			st := &e.stats[s.row]
			st.FirstTokenCycle = e.now
			st.TTFT = e.now - req.ArrivalCycle
			e.ttfts = append(e.ttfts, float64(st.TTFT))
		}
		if e.rec != nil {
			e.rec.Record(telemetry.Event{
				Kind: telemetry.KindDecode, Cycle: e.now, Dur: stepCycles,
				Req: req.ID, Session: req.Session, Slot: rs.Slot, Target: -1,
				Tokens: s.tokens, MemoHit: e.memoHit,
			})
		}
		if s.left == 0 {
			st := &e.stats[s.row]
			st.FinishCycle = e.now
			st.Tokens = s.tokens
			st.FinalKVLen = s.kvLen
			e.slots[rs.Slot] = nil
			e.kvUsed -= s.reserved
			if e.pfx != nil {
				// Retain the retired stream's final KV under its session
				// so follow-up turns can skip the shared prefix.
				e.pfx.insert(req.Session, int64(s.kvLen))
			}
			e.unfinished--
			if e.rec != nil {
				e.rec.Record(telemetry.Event{
					Kind: telemetry.KindRetire, Cycle: e.now,
					Dur: e.now - req.ArrivalCycle,
					Req: req.ID, Session: req.Session, Slot: rs.Slot, Target: -1,
					Tokens: s.tokens, KVLen: s.kvLen,
				})
			}
		}
	}
	e.sample()
}

// sample emits one KindSample gauge event per elapsed k·sampleEvery
// boundary up to the local clock. Samples are stamped on the boundary
// cycle itself — every node shares the same cycle grid, so fleet
// rollups align — and carry the engine state at the first step
// boundary at or after the sample boundary (engine state only changes
// at step boundaries; a step is never split to observe it mid-flight).
func (e *Engine) sample() {
	if e.sampleEvery <= 0 {
		return
	}
	for e.nextSample <= e.now {
		running := 0
		for _, s := range e.slots {
			if s != nil {
				running++
			}
		}
		var fill int64
		if e.pfx != nil {
			fill = e.pfx.used
		}
		e.rec.Record(telemetry.Event{
			Kind: telemetry.KindSample, Cycle: e.nextSample,
			Req: -1, Session: -1, Slot: -1, Target: -1,
			Gauges: telemetry.Gauges{
				Outstanding: e.OutstandingTokens(),
				Backlog:     e.PrefillBacklog(),
				KVUsed:      e.kvUsed,
				Running:     running,
				PrefixFill:  fill,
			},
		})
		e.nextSample += e.sampleEvery
	}
}

// Due reports whether the engine has work before cycle t: its clock is
// behind t and some submitted request is unfinished. AdvanceTo(t) is a
// no-op exactly when Due(t) is false, and Drain exactly when
// Due(math.MaxInt64) is false, so a fleet fan-out skips engines that
// are not due.
func (e *Engine) Due(t int64) bool { return e.now < t && e.unfinished > 0 }

// AdvanceTo runs iterations until the local clock reaches t or the
// engine runs out of admissible work. A step that begins before t may
// complete past it — an iteration is never split. An empty engine
// fast-forwards only to submitted arrivals at or before t, never to t
// itself, so an idle node's clock lags the global clock and admission
// timing is unaffected by how often the router polls it.
func (e *Engine) AdvanceTo(t int64) error {
	for e.Due(t) {
		e.admit()
		if !e.runnable() {
			if e.next == len(e.reqs) || e.reqs[e.next].ArrivalCycle > t {
				return nil
			}
			e.now = e.reqs[e.next].ArrivalCycle
			e.sample()
			continue
		}
		if err := e.stepOnce(); err != nil {
			return err
		}
	}
	return nil
}

// Drain runs the engine to completion: every submitted request
// retires, with idle gaps fast-forwarded to the next arrival.
func (e *Engine) Drain() error {
	for e.Due(math.MaxInt64) {
		e.admit()
		if !e.runnable() {
			if e.next == len(e.reqs) {
				return fmt.Errorf("serving: no runnable stream but %d requests unfinished", e.unfinished)
			}
			e.now = e.reqs[e.next].ArrivalCycle
			e.sample()
			continue
		}
		if err := e.stepOnce(); err != nil {
			return err
		}
	}
	return nil
}

// CrashVictim is one unfinished request lost to an Engine.Crash: the
// original request, the decode tokens it had generated when the node
// died (the resume point for redispatch — those tokens were already
// streamed out and are never generated twice, but their KV must be
// recomputed), and the partial statistics the node had recorded for it
// (first-token timestamps survive the crash; the KV does not).
type CrashVictim struct {
	Req    Request
	Tokens int
	Stats  RequestStats
}

// Crash kills the node: every in-flight stream, queued request and
// not-yet-arrived submission is evicted, the KV reservation ledger and
// the session prefix cache are wiped (a rejoining node reintegrates
// cold), and the victims are returned with their decode progress so a
// fleet-level recovery policy can redispatch them elsewhere. lost is
// the decode tokens whose KV died with the node — the recompute debt
// redispatch pays as prefill. Victim statistics rows leave the engine
// entirely: the node that finally serves a victim owns its stats, and
// the victim may even be resubmitted here after a rejoin. Retired
// requests, aggregate counters and the local clock are untouched —
// work already delivered stays delivered.
func (e *Engine) Crash() (victims []CrashVictim, lost int64) {
	take := func(row, tokens int) {
		victims = append(victims, CrashVictim{
			Req: e.reqs[row], Tokens: tokens, Stats: e.stats[row],
		})
		lost += int64(tokens)
	}
	for i, s := range e.slots {
		if s == nil {
			continue
		}
		take(s.row, s.tokens)
		e.slots[i] = nil
	}
	for _, row := range e.queue {
		take(row, e.resume[e.reqs[row].ID].tokens)
	}
	for row := e.next; row < len(e.reqs); row++ {
		take(row, e.resume[e.reqs[row].ID].tokens)
	}
	e.queue = e.queue[:0]
	e.kvUsed, e.owed, e.backlog = 0, 0, 0
	e.resume = nil
	e.unfinished = 0
	if e.pfx != nil {
		e.pfx.reset(e.sched.PrefixCacheTokens)
	}
	if len(victims) > 0 {
		gone := make(map[int]bool, len(victims))
		for _, v := range victims {
			gone[v.Req.ID] = true
		}
		kept := 0
		for i, st := range e.stats {
			if !gone[st.ID] {
				e.stats[kept], e.reqs[kept] = st, e.reqs[i]
				kept++
			}
		}
		e.stats, e.reqs = e.stats[:kept], e.reqs[:kept]
		e.ids = e.ids[:0]
		for _, st := range e.stats {
			e.ids = append(e.ids, st.ID)
		}
		slices.Sort(e.ids)
	}
	e.next = len(e.reqs)
	return victims, lost
}

// SubmitResume is Submit for a request recovered from a crashed node:
// tokens decode tokens were already generated (and streamed out)
// before the crash, so on admission the engine recomputes the lost KV
// prefix — prompt plus generated tokens — as prefill and resumes
// decode where it stopped, reusing the recompute-on-preempt path.
// tokens == 0 is exactly Submit.
func (e *Engine) SubmitResume(req Request, tokens int) error {
	if tokens < 0 || tokens >= req.DecodeTokens {
		return fmt.Errorf("serving: resume point %d outside [0, %d) for request %d",
			tokens, req.DecodeTokens, req.ID)
	}
	if err := e.Submit(req); err != nil {
		return err
	}
	if tokens > 0 {
		e.setResume(req.ID, resumePoint{tokens: tokens, redispatched: true})
	}
	return nil
}

// setResume records a request's resume point for its re-admission.
func (e *Engine) setResume(id int, p resumePoint) {
	if e.resume == nil {
		e.resume = make(map[int]resumePoint)
	}
	e.resume[id] = p
}

// HWProfile snapshots the engine's hardware-counter attribution at
// the current clock, or nil when profiling is off. Each call derives
// a fresh snapshot; callers (RunWith, the cluster's metrics assembly)
// take it once at drain.
func (e *Engine) HWProfile() *hwprof.NodeProfile {
	if e.prof == nil {
		return nil
	}
	return e.prof.Snapshot(e.now)
}

// FlushHWSamples emits the hardware-profile time-series into the
// telemetry stream: one KindHWSample event per sampling-grid bucket,
// stamped at the bucket's end boundary so hardware samples line up
// with (and sort immediately after) the gauge samples on the shared
// grid. Call once post-drain, from the goroutine that advanced the
// engine; a run without both a profiler and a recorder is a no-op.
func (e *Engine) FlushHWSamples() {
	if e.prof == nil || e.rec == nil {
		return
	}
	snap := e.prof.Snapshot(e.now)
	for i := range snap.Buckets {
		b := &snap.Buckets[i]
		e.rec.Record(telemetry.Event{
			Kind: telemetry.KindHWSample, Cycle: b.End,
			Req: -1, Session: -1, Slot: -1, Target: -1,
			HW: &telemetry.HWGauges{
				Steps:         b.Steps,
				BusyCycles:    b.BusyCycles,
				Cycles:        b.Counters.Cycles,
				DRAMBytes:     b.DRAMBytes,
				L2Hits:        b.Counters.L2Hits,
				L2Accesses:    b.Counters.L2Accesses,
				CoreMemStall:  b.Counters.CoreMemStall,
				CacheStall:    b.Counters.CacheStall,
				SliceCycles:   b.Counters.SliceCycles,
				DRAMBusCycles: b.Counters.DRAMBusCycles,
				Cores:         e.cfg.NumCores,
				Channels:      e.cfg.DRAMChannels,
				Class:         b.Class.String(),
			},
		})
	}
}

// Now returns the engine's local clock: the completion cycle of the
// last executed step (or the last idle fast-forward target).
func (e *Engine) Now() int64 { return e.now }

// Submitted returns how many requests the engine has received.
func (e *Engine) Submitted() int { return len(e.stats) }

// OutstandingTokens is the router's load signal: the decode tokens
// the node still owes — remaining budgets of running streams plus the
// full budgets of queued and not-yet-arrived submitted requests.
func (e *Engine) OutstandingTokens() int64 { return e.owed }

// PrefillBacklog is the router's time-to-first-token pressure signal:
// the prompt tokens the node still has to prefill before its requests
// emit their first token — the un-prefilled remainder of running
// streams plus the whole prompts of queued and not-yet-arrived
// submitted requests. Zero under the decode-only scheduler (the
// prompt is prefilled elsewhere, the node owes none of it).
func (e *Engine) PrefillBacklog() int64 {
	if e.sched.Policy == SchedDecodeOnly {
		return 0
	}
	return e.backlog
}

// CachedPrefix returns the KV tokens the engine's session prefix
// cache currently retains for a session — 0 with the cache off or the
// session absent. This is the router's per-node prefix-locality
// observation (the prefix-affinity policy routes to the node holding
// the most of a session's context).
func (e *Engine) CachedPrefix(session int) int64 {
	if e.pfx == nil {
		return 0
	}
	return e.pfx.cached(session)
}

// Metrics finalises the statistics accumulated so far. PerRequest is
// ordered by request ID. Calling it mid-run reports the work done so
// far (unfinished requests keep zero Finish fields). The latency
// samples are summarised in place (see Summarise): their order carries
// nothing.
func (e *Engine) Metrics() *Metrics {
	m := &Metrics{
		Requests:           len(e.stats),
		Tokens:             e.tokens,
		Steps:              e.steps,
		PrefillTokens:      e.prefillTokens,
		PrefillSteps:       e.prefillSteps,
		Preemptions:        e.preemptions,
		PrefixHits:         e.prefixHits,
		PrefixMisses:       e.prefixMisses,
		PrefillTokensSaved: e.prefillSaved,
		Cycles:             e.cycles,
		Makespan:           e.now,
		Counters:           e.counters,
	}
	if lookups := e.prefixHits + e.prefixMisses; lookups > 0 {
		m.PrefixHitRate = float64(e.prefixHits) / float64(lookups)
	}
	if m.Makespan > 0 {
		m.TokensPerKCycle = 1000 * float64(m.Tokens) / float64(m.Makespan)
	}
	if m.Steps > 0 {
		m.MeanBatchOccupancy = float64(m.Tokens) / float64(m.Steps)
	}
	m.TokenLatency = Summarise(e.tokenLats)
	m.QueueDelay = Summarise(e.queueLats)
	m.TTFT = Summarise(e.ttfts)
	m.StepCache = e.cacheStats
	m.Sim = e.counters.Derive(e.cfg.FreqGHz, e.cfg.LineBytes, e.cfg.NumCores)
	m.HW = e.HWProfile()
	m.PerRequest = append([]RequestStats(nil), e.stats...)
	slices.SortFunc(m.PerRequest, func(a, b RequestStats) int { return cmp.Compare(a.ID, b.ID) })
	return m
}
