// Package cluster is the cluster-scale serving simulator: a routed
// fleet of N simulated nodes, each a full internal/serving
// continuous-batching engine with its own cycle-level simulator
// instance, behind a request router with pluggable load-balancing
// policies (round-robin, least-outstanding-tokens, power-of-two
// choices, session/prefix affinity).
//
// The run processes arrivals in global time order. For each arriving
// request the router first advances every node's engine that has work
// before the arrival cycle, concurrently (on the bounded worker pool of
// internal/pool), then reads each node's outstanding-token load, picks
// a node per policy, and dispatches. After the last dispatch the nodes
// drain concurrently. Every node evolves only under one goroutine at a
// time and all routing decisions happen sequentially between fan-outs,
// so a cluster run is bit-reproducible at any worker-pool width.
//
// Reported metrics are fleet-level: aggregate tokens per kilocycle,
// end-to-end latency percentiles (arrival at the router to last
// token, so router-side queueing is included), per-node batch
// occupancy, and a load-imbalance coefficient (max/mean over nodes of
// outstanding tokens sampled at every routing decision).
package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/hwprof"
	"repro/internal/pool"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Options controls cluster execution.
type Options struct {
	// Parallel is the run's width (0 = as many as nodes): it bounds
	// how many node engines advance concurrently during a fleet
	// fan-out plus how many speculative step simulations run beside
	// them. Under the default step cache a node that misses the memo
	// also simulates its predicted next step when part of the width is
	// idle (see serving.SpecPool); at width 1 nothing speculates.
	// Results are bit-identical at any setting.
	Parallel int
	// StepCache selects every node engine's token-step path (default
	// on: signature memo + arena + resettable simulator; off = the
	// naive reference). Simulated metrics are bit-identical either way.
	StepCache serving.StepCacheMode
	// Memo overrides the step memo shared by the fleet's node engines
	// (nil = the process-wide serving.SharedStepMemo()). The fleet's
	// nodes execute heavily overlapping step signatures, so sharing is
	// where the cluster fast path earns its speedup.
	Memo *serving.StepMemo
	// Overload is the router's overload-control configuration:
	// saturation shedding, retry/backoff and forwarding (see
	// OverloadConfig). Unlike the fields above it changes simulated
	// results — the zero value disables it and is bit-identical to the
	// pre-overload router.
	Overload OverloadConfig
	// Faults is the run's fault-injection and recovery configuration:
	// a deterministic schedule of node crashes and straggler windows,
	// the failure detector's blind window, and the recovery policy for
	// in-flight requests lost with a crashed node (see FaultConfig).
	// Like Overload it changes simulated results — the zero value
	// disables it and is bit-identical to the immortal fleet.
	Faults FaultConfig
	// Telemetry attaches a lifecycle-event collector to the run: the
	// router records its decisions (route/forward/shed/retry/drop)
	// and every node engine records its lifecycle events and gauge
	// samples into the collector's per-node buffers. nil — the
	// default — disables recording; simulated metrics are
	// bit-identical either way, and the merged event stream is
	// byte-identical at any Parallel (each buffer is only appended to
	// by the goroutine driving its node) modulo the MemoHit
	// annotation, which — like the StepCache diagnostics — depends on
	// fan-out timing under the shared step memo (see
	// telemetry.StripMemoHits; StepCacheNoMemo removes the caveat).
	Telemetry *telemetry.Collector
	// HWProf configures per-node hardware-counter attribution (see
	// internal/hwprof): every node engine captures per-step counter
	// deltas and the fleet metrics carry the per-node profiles plus
	// the Fleet rollup with its bottleneck class. Like Telemetry the
	// zero value disables it and is bit-inert; with Telemetry also
	// attached, each node's bucket time-series flows into the merged
	// trace as KindHWSample events.
	HWProf hwprof.Spec
}

func (o Options) parallel(nodes int) int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return nodes
}

// RequestStats is one request's fleet-level outcome: the serving
// outcome plus where it ran and its end-to-end latency.
type RequestStats struct {
	serving.RequestStats
	// Node is the node that served the request, or -1 if it was
	// dropped by overload control before ever being dispatched.
	Node    int
	Session int
	// E2ELatency is FinishCycle - ArrivalCycle: router queueing,
	// backoff waits, node queueing and every decode step the request
	// lived through. ArrivalCycle, TTFT and QueueDelay always measure
	// from the ORIGINAL arrival at the router — shedding retries never
	// reset them.
	E2ELatency int64
	// Retries is how many times overload control shed the request
	// before it was dispatched (or dropped); Dropped marks a request
	// whose retry budget ran out — it generated no tokens.
	Retries int
	Dropped bool
}

// Metrics is the outcome of one cluster run.
type Metrics struct {
	Nodes    int
	Policy   string
	Requests int
	Tokens   int64
	// Makespan is the fleet completion time: the latest node-local
	// finish cycle on the shared global clock.
	Makespan int64
	// FleetTokensPerKCycle is the aggregate decode throughput of the
	// whole fleet: 1000 × Tokens / Makespan.
	FleetTokensPerKCycle float64
	// MeanBatchOccupancy is the fleet-wide mean streams per executed
	// step: ΣTokens / ΣSteps over nodes that ran at all.
	MeanBatchOccupancy float64
	// E2ELatency summarises per-request end-to-end latency (arrival at
	// the router to final token), in request-ID order.
	E2ELatency serving.Percentiles
	// TTFT summarises per-request time to first token: arrival at the
	// router to the completion of the step producing the request's
	// first decode token — router queueing, node queueing and any
	// on-node prefill included (requests carry their global arrival
	// cycle onto their node).
	TTFT serving.Percentiles
	// QueueDelay summarises per-request admission delay — arrival at
	// the router until a batch slot on the assigned node — i.e. router
	// plus node queueing, in request-ID order.
	QueueDelay serving.Percentiles
	// PrefixHits / PrefixMisses / PrefillTokensSaved aggregate the
	// per-node session prefix-cache outcomes (see
	// serving.Metrics.PrefixHits); PrefixHitRate is the fleet-wide
	// hits / (hits + misses), 0 when the cache is off or no request
	// carried a prefix. All zero with Sched.PrefixCacheTokens == 0.
	PrefixHits         int64
	PrefixMisses       int64
	PrefillTokensSaved int64
	PrefixHitRate      float64
	// LoadImbalance is max over nodes / mean over nodes of the
	// outstanding-token load accumulated across all routing-decision
	// samples: 1.0 is a perfectly balanced fleet, N means one node
	// carried everything.
	LoadImbalance float64
	// Overload is the overload-control configuration the run used;
	// the counters below stay zero when it is disabled. Shed counts
	// saturation rejections (each retry that bounces counts again),
	// Forwarded counts dispatches redirected to a less-loaded peer,
	// Retries counts scheduled backoff re-entries, and Dropped counts
	// requests whose retry budget ran out (they generated no tokens
	// and are excluded from the latency percentiles).
	Overload  OverloadConfig
	Shed      int64
	Forwarded int64
	Retries   int64
	Dropped   int64
	// Faults is the fault-injection configuration the run used; the
	// counters below aggregate the per-node fault outcomes and stay
	// zero when it is disabled. Failures counts node crash events,
	// Redispatched the unfinished requests recovered off crashed nodes
	// through the router, LostTokens the decode tokens whose KV died
	// with a node (recomputed as prefill on redispatch), and
	// DowntimeCycles the total node-cycles spent down. Requests lost
	// to a crash under the drop-on-failure policy — and dispatches
	// that exhausted their retry budget against dead nodes — count in
	// Dropped/Retries above alongside the overload-control outcomes.
	Faults         FaultConfig
	Failures       int64
	Redispatched   int64
	LostTokens     int64
	DowntimeCycles int64
	// StepCache aggregates the per-node token-step fast-path
	// diagnostics. Like serving.Metrics.StepCache it sits outside the
	// bit-identity guarantees: concurrently advancing nodes race to
	// publish shared signatures, so the hit/miss split depends on
	// fan-out timing (the simulated metrics never do).
	StepCache serving.StepCacheStats
	// HW is the fleet hardware-counter attribution rollup — summed
	// phase costs, pooled per-request percentiles and the fleet
	// bottleneck class over every node's classified buckets (the
	// per-node profiles sit on PerNode[i].HW). Nil unless
	// Options.HWProf.Enabled, and omitted from JSON then.
	HW *hwprof.FleetProfile `json:"HW,omitempty"`
	// PerNode holds every node's full serving metrics, node order.
	PerNode []*serving.Metrics
	// PerNodeFaults holds every node's fault outcome, node order; nil
	// when fault injection is disabled.
	PerNodeFaults []NodeFaultStats
	// PerRequest holds one entry per request, in request-ID order.
	PerRequest []RequestStats
}

// Run executes a cluster scenario on nodes identical copies of the
// configured system under the given router policy. The policy under
// evaluation at the cache level is carried by cfg.Throttle /
// cfg.Arbiter exactly as in serving runs. Deterministic for a fixed
// (cfg, scn, nodes, pol) at any Options.Parallel.
func Run(cfg sim.Config, scn Scenario, nodes int, pol Policy, opts Options) (*Metrics, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("cluster: node count must be positive, got %d", nodes)
	}
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	// One fleet-wide stride, sized over the whole population: any node
	// may receive any request, and a 1-node cluster must lay out
	// memory exactly like the single-node serving run.
	stride, err := serving.StreamStride(scn.Requests, scn.IncludeAV, scn.Sched)
	if err != nil {
		return nil, err
	}
	ropts := serving.RunOptions{StepCache: opts.StepCache, Memo: opts.Memo, Sched: scn.Sched, HWProf: opts.HWProf}
	par := opts.parallel(nodes)
	// The run's width budget, shared by the fan-out and speculation;
	// no speculative simulation outlives the run.
	var spec *serving.SpecPool
	if par > 1 && opts.StepCache == serving.StepCacheOn {
		spec = serving.NewSpecPool(par)
		defer spec.Wait()
	}
	engines := make([]*serving.Engine, nodes)
	// Prealloc a doubled per-node share of the population (capped at
	// the whole scenario): a balanced router lands near 1/N per node,
	// an imbalanced one (affinity) grows the one hot node dynamically —
	// O(requests) fleet-wide either way, not O(nodes × requests).
	reqShare := (len(scn.Requests) + nodes - 1) / nodes * 2
	if reqShare > len(scn.Requests) {
		reqShare = len(scn.Requests)
	}
	total := scn.TotalTokens()
	tokShare := (total + int64(nodes) - 1) / int64(nodes) * 2
	if tokShare > total {
		tokShare = total
	}
	// Node recorders are created here, sequentially, before any
	// fan-out: after this loop the collector's buffer set is fixed and
	// each buffer is touched only by its node's goroutine.
	var rrec telemetry.Recorder
	if opts.Telemetry != nil {
		rrec = opts.Telemetry.Router()
	}
	for i := range engines {
		eopts := ropts
		if opts.Telemetry != nil {
			eopts.Recorder = opts.Telemetry.Node(i)
			eopts.SampleEvery = opts.Telemetry.SampleEvery()
		}
		if engines[i], err = serving.NewEngineWith(cfg, scn.MaxBatch, scn.IncludeAV, stride, eopts); err != nil {
			return nil, err
		}
		engines[i].Prealloc(reqShare, tokShare)
		engines[i].SetSpecPool(spec)
	}

	ov := opts.Overload
	if err := ov.Validate(); err != nil {
		return nil, err
	}
	ft := opts.Faults
	if err := ft.Validate(); err != nil {
		return nil, err
	}
	var fplan []faultEvent
	if ft.Enabled() {
		if fplan, err = ft.plan(nodes); err != nil {
			return nil, err
		}
	}

	reqs := make([]Request, len(scn.Requests))
	copy(reqs, scn.Requests)
	sortRequests(reqs)

	var (
		rt                                 = newRouter(pol, nodes)
		outstanding                        = make([]int64, nodes)
		backlog                            = make([]int64, nodes)   // un-prefilled prompt tokens per node
		loadAcc                            = make([]float64, nodes) // outstanding-token integrals
		sessionOf                          = make([]int, len(reqs)) // by request ID (a permutation of [0, n))
		origArrival                        = make([]int64, len(reqs))
		retriesOf                          = make([]int, len(reqs))
		droppedReq                         = make([]bool, len(reqs))
		horizon                            int64 // the fleet has already advanced to this cycle
		shed, forwarded, retried, droppedN int64
		needBacklog                        = pol.Kind == LeastTTFTPressure || ov.Enabled()
		cachedPrefix                       []int64 // per-node cached KV for the arriving session
	)
	if pol.Kind == PrefixAffinity {
		cachedPrefix = make([]int64, nodes)
	}
	// Fault-injection state. down is ground truth; excludedV is the
	// failure detector's view, trailing reality by DetectLatency (nil
	// when blind or when faults are off — the router then decides
	// exactly as the immortal fleet). carried holds the timing stats a
	// crashed node had accumulated for its victims, overlaid during
	// assembly so TTFT/queue-delay keep measuring from the ORIGINAL
	// arrival across a redispatch.
	var (
		down       []bool
		downSince  []int64
		excludedV  []bool
		nodeFaults []NodeFaultStats
		carried    map[int]serving.RequestStats
	)
	if ft.Enabled() {
		down = make([]bool, nodes)
		downSince = make([]int64, nodes)
		nodeFaults = make([]NodeFaultStats, nodes)
		carried = make(map[int]serving.RequestStats)
		if !ft.Blind {
			excludedV = make([]bool, nodes)
		}
	}
	// Retry policy for dispatches lost to dead nodes: overload
	// control's budget when enabled, the stock defaults otherwise.
	rp := ov
	if !ov.Enabled() {
		rp = OverloadConfig{MaxRetries: DefaultMaxRetries, BackoffBase: DefaultBackoffBase}
	}
	// The dispatch loop is event-driven: fresh arrivals and backoff
	// re-entries share one (cycle, ID)-ordered queue. The sorted
	// request slice is already a valid min-heap; with overload control
	// disabled no retry event is ever pushed, so events pop in exactly
	// the pre-overload iteration order.
	evq := make(eventQueue, 0, len(reqs))
	for _, r := range reqs {
		origArrival[r.ID] = r.ArrivalCycle
		evq = append(evq, event{at: r.ArrivalCycle, id: r.ID, req: r})
	}
	// Fleet fan-out: f runs concurrently on the nodes with work before
	// cycle t, each engine touched only by its own index; on any other
	// node f would be a no-op. The pool runs a lone due node on the
	// router's goroutine. A node holds a width token while it advances,
	// so speculation only ever uses width the fan-out leaves idle.
	due := make([]*serving.Engine, 0, nodes)
	fanOut := func(t int64, f func(*serving.Engine) error) error {
		due = due[:0]
		for _, e := range engines {
			if e.Due(t) {
				due = append(due, e)
			}
		}
		return pool.ForEach(len(due), par, func(i int) error {
			if spec != nil {
				spec.Acquire()
				defer spec.Release()
			}
			return f(due[i])
		})
	}
	// Every node progresses to the event horizon. Simultaneous events
	// share one fan-out — re-advancing to the same horizon is a no-op
	// on every node (engines start at cycle 0, matching the initial
	// horizon).
	advance := func(t int64) error {
		if t == horizon {
			return nil
		}
		if err := fanOut(t, func(e *serving.Engine) error { return e.AdvanceTo(t) }); err != nil {
			return err
		}
		horizon = t
		return nil
	}
	// drop retires request id at cycle t after tries attempts: counted,
	// excluded from the latency percentiles, unfinished under any SLO.
	drop := func(t int64, id, session, tries int) {
		droppedN++
		droppedReq[id] = true
		if rrec != nil {
			rrec.Record(telemetry.Event{
				Kind: telemetry.KindDrop, Cycle: t,
				Req: id, Session: session, Slot: -1, Target: -1,
				Tokens: tries,
			})
		}
	}
	// bounce handles a dispatch at cycle t that could not land (shed, or
	// lost to a dead node): the request re-enters through rp's
	// deterministic exponential backoff, or drops once its retry budget
	// is spent. With overload control on, rp is the shed policy itself.
	// A bounced redispatched victim keeps its resume point: its
	// pre-crash tokens were already streamed out and must never be
	// generated twice.
	bounce := func(t int64, ev event) {
		r := ev.req
		sessionOf[r.ID] = r.Session
		retriesOf[r.ID] = ev.attempts
		if ev.attempts >= rp.MaxRetries {
			drop(t, r.ID, r.Session, ev.attempts)
			return
		}
		retried++
		backoff := rp.backoff(ev.attempts + 1)
		if rrec != nil {
			rrec.Record(telemetry.Event{
				Kind: telemetry.KindRetry, Cycle: t, Dur: backoff,
				Req: r.ID, Session: r.Session, Slot: -1, Target: -1,
				Tokens: ev.attempts + 1,
			})
		}
		evq.push(event{at: t + backoff, id: r.ID, req: r, attempts: ev.attempts + 1, resume: ev.resume})
	}
	fi := 0
	for len(evq) > 0 || fi < len(fplan) {
		// Fault transitions interleave with dispatches in global cycle
		// order, faults first at equal cycles: a crash at cycle C takes
		// down the node before a cycle-C dispatch can land on it, and a
		// rejoin at C receives cycle-C work cold. Within one cycle the
		// faultOp order applies (rejoin < slow-end < slow-start < crash
		// < detect). All transitions run sequentially between fan-outs,
		// so determinism at any Parallel is preserved.
		if fi < len(fplan) && (len(evq) == 0 || fplan[fi].at <= evq[0].at) {
			f := fplan[fi]
			fi++
			if err := advance(f.at); err != nil {
				return nil, err
			}
			switch f.op {
			case opCrash:
				victims, lost := engines[f.node].Crash()
				down[f.node] = true
				downSince[f.node] = f.at
				nodeFaults[f.node].Failures++
				nodeFaults[f.node].LostTokens += lost
				if rrec != nil {
					rrec.Record(telemetry.Event{
						Kind: telemetry.KindNodeDown, Cycle: f.at, Dur: ft.DetectLatency,
						Req: -1, Session: -1, Slot: -1, Target: f.node,
						Tokens: len(victims), KVLen: int(lost),
					})
				}
				reAt := f.at + ft.DetectLatency
				for _, v := range victims {
					id := v.Req.ID
					if prev, again := carried[id]; again {
						// Crashed more than once: the earliest admission and
						// first-token timestamps survive every hop.
						if v.Stats.AdmitCycle == 0 {
							v.Stats.AdmitCycle = prev.AdmitCycle
						}
						if v.Stats.FirstTokenCycle == 0 {
							v.Stats.FirstTokenCycle = prev.FirstTokenCycle
						}
						v.Stats.Preemptions += prev.Preemptions
					}
					carried[id] = v.Stats
					sessionOf[id] = v.Req.Session
					if ft.Drop {
						// Drop-on-failure: the victim dies with its node.
						drop(f.at, id, v.Req.Session, retriesOf[id])
						continue
					}
					// Redispatch: the victim re-enters the arrival queue once
					// the detector can have noticed the crash, carrying the
					// decode tokens it had generated so the new node
					// re-prefills them instead of re-emitting them.
					nodeFaults[f.node].Redispatched++
					if rrec != nil {
						rrec.Record(telemetry.Event{
							Kind: telemetry.KindRedispatch, Cycle: reAt,
							Req: id, Session: v.Req.Session, Slot: -1, Target: -1,
							Tokens: v.Tokens,
						})
					}
					evq.push(event{
						at: reAt, id: id,
						req:      Request{Request: v.Req, Session: v.Req.Session},
						attempts: retriesOf[id], resume: v.Tokens,
					})
				}
			case opRejoin:
				nodeFaults[f.node].DowntimeCycles += f.at - downSince[f.node]
				if rrec != nil {
					rrec.Record(telemetry.Event{
						Kind: telemetry.KindNodeUp, Cycle: f.at, Dur: f.at - downSince[f.node],
						Req: -1, Session: -1, Slot: -1, Target: f.node,
					})
				}
				down[f.node] = false
				if excludedV != nil {
					excludedV[f.node] = false
				}
			case opDetect:
				// The detection only lands if the node is still down from
				// the SAME incident — a crash that rejoined within the blind
				// window (or crashed again) must not be mis-marked.
				if excludedV != nil && down[f.node] && downSince[f.node] == f.incident {
					excludedV[f.node] = true
				}
			case opSlowStart:
				engines[f.node].SetSlowdown(f.factor)
			case opSlowEnd:
				engines[f.node].SetSlowdown(1)
			}
			continue
		}
		ev := evq.pop()
		t := ev.at
		if err := advance(t); err != nil {
			return nil, err
		}
		for i, e := range engines {
			outstanding[i] = e.OutstandingTokens()
		}
		if needBacklog {
			// Backlog has no consumer beyond the ttft-pressure policy
			// and the saturation signal; skip the second per-node scan
			// otherwise.
			for i, e := range engines {
				backlog[i] = e.PrefillBacklog()
			}
		}
		r := ev.req
		if cachedPrefix != nil {
			// The prefix-affinity observation: how much of this session's
			// KV each node's prefix cache retains right now. Read at the
			// routing decision, sequentially between fan-outs, like the
			// load signals above.
			for i, e := range engines {
				cachedPrefix[i] = e.CachedPrefix(r.Session)
			}
		}
		target := rt.pick(r, outstanding, backlog, cachedPrefix, excludedV)
		if rrec != nil {
			// The load snapshots alias the router's scratch slices; the
			// buffer copies them on record.
			rev := telemetry.Event{
				Kind: telemetry.KindRoute, Cycle: t,
				Req: r.ID, Session: r.Session, Slot: -1, Target: target,
				Load: outstanding,
			}
			if needBacklog {
				rev.Backlog = backlog
			}
			rrec.Record(rev)
		}
		if ov.Enabled() && outstanding[target]+backlog[target] >= ov.SaturationTokens {
			// The picked node is saturated. Forward to the least-loaded
			// peer if allowed and one has headroom; otherwise shed —
			// re-enter after deterministic exponential backoff, or drop
			// once the retry budget is spent.
			alt := -1
			if ov.Forward {
				best := -1
				for i := 0; i < nodes; i++ {
					if excludedV != nil && excludedV[i] {
						// Never forward onto a node the detector knows is dead.
						continue
					}
					if best < 0 || outstanding[i]+backlog[i] < outstanding[best]+backlog[best] {
						best = i
					}
				}
				if best >= 0 && outstanding[best]+backlog[best] < ov.SaturationTokens {
					alt = best
				}
			}
			if alt < 0 {
				shed++
				if rrec != nil {
					rrec.Record(telemetry.Event{
						Kind: telemetry.KindShed, Cycle: t,
						Req: r.ID, Session: r.Session, Slot: -1, Target: -1,
						Tokens: ev.attempts,
					})
				}
				bounce(t, ev)
				continue
			}
			if alt != target {
				forwarded++
				if rrec != nil {
					rrec.Record(telemetry.Event{
						Kind: telemetry.KindForward, Cycle: t,
						Req: r.ID, Session: r.Session, Slot: -1, Target: alt,
					})
				}
			}
			target = alt
		}
		if down != nil && down[target] {
			// The target is dead and the router could not know — the
			// detector is still blind to this crash (or routing is blind
			// by configuration). The dispatch is lost: the request
			// re-enters through the deterministic backoff path and drops
			// once its retry budget is spent.
			bounce(t, ev)
			continue
		}
		// Dispatch. The submitted copy carries the DISPATCH cycle as its
		// arrival so per-node submission order stays nondecreasing even
		// for backoff re-entries (for a never-shed request the two
		// cycles coincide); fleet-level metrics are re-based onto the
		// original arrival during assembly below.
		sub := r.Request
		sub.ArrivalCycle = t
		// The fleet-level Session is authoritative: hand-built scenarios
		// may set only the outer field, and the node's prefix cache keys
		// on what the engine sees.
		sub.Session = r.Session
		if ev.resume > 0 {
			err = engines[target].SubmitResume(sub, ev.resume)
		} else {
			err = engines[target].Submit(sub)
		}
		if err != nil {
			return nil, err
		}
		sessionOf[r.ID] = r.Session
		retriesOf[r.ID] = ev.attempts
		// Post-dispatch load sample: the routed request counts against
		// its node, so a policy that piles work up is visibly imbalanced
		// even on an otherwise idle fleet.
		for i := range loadAcc {
			s := outstanding[i]
			if i == target {
				s += int64(r.DecodeTokens)
			}
			loadAcc[i] += float64(s)
		}
	}
	if err = fanOut(math.MaxInt64, (*serving.Engine).Drain); err != nil {
		return nil, err
	}
	// The hardware-profile time-series flushes into the trace after
	// the fan-out has drained, sequentially in node order: each node's
	// KindHWSample events land behind its lifecycle events in that
	// node's buffer, so the merged stream is byte-identical at any
	// Parallel. No-op unless both a collector and the profiler are on.
	if opts.Telemetry != nil {
		for i := range engines {
			engines[i].FlushHWSamples()
		}
	}

	m := &Metrics{
		Nodes:     nodes,
		Policy:    pol.String(),
		Requests:  len(reqs),
		Overload:  ov,
		Shed:      shed,
		Forwarded: forwarded,
		Retries:   retried,
		Dropped:   droppedN,
		Faults:    ft,
		PerNode:   make([]*serving.Metrics, nodes),
	}
	var steps int64
	for i, e := range engines {
		nm := e.Metrics()
		m.PerNode[i] = nm
		m.Tokens += nm.Tokens
		steps += nm.Steps
		m.PrefixHits += nm.PrefixHits
		m.PrefixMisses += nm.PrefixMisses
		m.PrefillTokensSaved += nm.PrefillTokensSaved
		m.StepCache.Add(nm.StepCache)
		if nm.Makespan > m.Makespan {
			m.Makespan = nm.Makespan
		}
	}
	if lookups := m.PrefixHits + m.PrefixMisses; lookups > 0 {
		m.PrefixHitRate = float64(m.PrefixHits) / float64(lookups)
	}
	if opts.HWProf.Enabled {
		profs := make([]*hwprof.NodeProfile, nodes)
		for i := range m.PerNode {
			profs[i] = m.PerNode[i].HW
		}
		m.HW = hwprof.Fleet(profs)
	}
	if m.Makespan > 0 {
		m.FleetTokensPerKCycle = 1000 * float64(m.Tokens) / float64(m.Makespan)
	}
	if ft.Enabled() {
		for i := range nodeFaults {
			if down[i] && m.Makespan > downSince[i] {
				// Permanently-down node: charge downtime up to the fleet
				// makespan (no rejoin event ever closes the window).
				nodeFaults[i].DowntimeCycles += m.Makespan - downSince[i]
			}
			m.Failures += nodeFaults[i].Failures
			m.Redispatched += nodeFaults[i].Redispatched
			m.LostTokens += nodeFaults[i].LostTokens
			m.DowntimeCycles += nodeFaults[i].DowntimeCycles
		}
		m.PerNodeFaults = nodeFaults
	}
	if steps > 0 {
		m.MeanBatchOccupancy = float64(m.Tokens) / float64(steps)
	}

	// Fleet-level per-request stats in request-ID order; IDs are a
	// permutation of [0, n), so indexing by ID is total. Node-side
	// stats are re-based from the dispatch cycle back onto the
	// ORIGINAL router arrival: the backoff wait a shed request
	// accumulated before dispatch is added to its queue delay and TTFT
	// (zero delta for never-shed requests, so the disabled-overload
	// path is bit-identical).
	m.PerRequest = make([]RequestStats, len(reqs))
	for i, nm := range m.PerNode {
		for _, rs := range nm.PerRequest {
			delta := rs.ArrivalCycle - origArrival[rs.ID]
			rs.ArrivalCycle = origArrival[rs.ID]
			rs.QueueDelay += delta
			rs.TTFT += delta
			if c, ok := carried[rs.ID]; ok {
				// Redispatched request: the finishing node resumed it
				// mid-decode, so its row lacks the admission and
				// first-token timestamps the crashed node recorded. The
				// carried stats restore them against the ORIGINAL arrival
				// — a recovered request's TTFT is when its stream truly
				// started, not when it was re-prefilled.
				if rs.AdmitCycle == 0 && c.AdmitCycle != 0 {
					rs.AdmitCycle = c.AdmitCycle
					rs.QueueDelay = c.AdmitCycle - origArrival[rs.ID]
				}
				if rs.FirstTokenCycle == 0 && c.FirstTokenCycle != 0 {
					rs.FirstTokenCycle = c.FirstTokenCycle
					rs.TTFT = c.FirstTokenCycle - origArrival[rs.ID]
				}
				rs.Preemptions += c.Preemptions
			}
			m.PerRequest[rs.ID] = RequestStats{
				RequestStats: rs,
				Node:         i,
				Session:      sessionOf[rs.ID],
				E2ELatency:   rs.FinishCycle - rs.ArrivalCycle,
				Retries:      retriesOf[rs.ID],
			}
		}
	}
	for id, d := range droppedReq {
		if !d {
			continue
		}
		m.PerRequest[id] = RequestStats{
			RequestStats: serving.RequestStats{
				ID:           id,
				ArrivalCycle: origArrival[id],
			},
			Node:    -1,
			Session: sessionOf[id],
			Retries: retriesOf[id],
			Dropped: true,
		}
	}
	served := len(reqs) - int(droppedN)
	e2e := make([]float64, 0, served)
	qd := make([]float64, 0, served)
	ttft := make([]float64, 0, served)
	for _, rs := range m.PerRequest {
		if rs.Dropped {
			continue
		}
		e2e = append(e2e, float64(rs.E2ELatency))
		qd = append(qd, float64(rs.QueueDelay))
		ttft = append(ttft, float64(rs.TTFT))
	}
	m.E2ELatency = serving.Summarise(e2e)
	m.QueueDelay = serving.Summarise(qd)
	m.TTFT = serving.Summarise(ttft)
	m.LoadImbalance = imbalance(loadAcc)
	return m, nil
}

// Goodput computes the fleet goodput-under-SLO report: the serving
// SLO applied to every request's fleet-level outcome (TTFT from the
// original router arrival, backoff waits included) against the fleet
// makespan. Dropped requests count as unfinished — shedding pays for
// itself only if the goodput it preserves exceeds the tokens it
// refuses.
func (m *Metrics) Goodput(slo serving.SLO) serving.SLOReport {
	reqs := make([]serving.RequestStats, len(m.PerRequest))
	for i, r := range m.PerRequest {
		reqs[i] = r.RequestStats
	}
	return slo.GoodputOver(reqs, m.Makespan)
}

// StripStepCache zeroes the fleet-level and per-node step-cache
// diagnostics, leaving only the bit-identical simulated metrics — the
// form the determinism and equivalence tests compare.
func (m *Metrics) StripStepCache() {
	m.StepCache = serving.StepCacheStats{}
	for _, nm := range m.PerNode {
		nm.StripStepCache()
	}
}

// imbalance returns max/mean over the per-node load integrals: 1 for
// a perfectly balanced fleet, len(loads) when one node carried all of
// it, 0 when the fleet saw no load samples at all.
func imbalance(loads []float64) float64 {
	var max, sum float64
	for _, l := range loads {
		if l > max {
			max = l
		}
		sum += l
	}
	if sum == 0 {
		return 0
	}
	return max / (sum / float64(len(loads)))
}

// sortRequests orders requests by arrival cycle, ties by ID — the
// global dispatch order of the router.
func sortRequests(reqs []Request) {
	slices.SortStableFunc(reqs, func(a, b Request) int {
		return cmp.Or(cmp.Compare(a.ArrivalCycle, b.ArrivalCycle), cmp.Compare(a.ID, b.ID))
	})
}

// String renders the headline fleet metrics as an aligned block.
func (m *Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "nodes             %d (router %s)\n", m.Nodes, m.Policy)
	fmt.Fprintf(&b, "requests          %d\n", m.Requests)
	fmt.Fprintf(&b, "tokens            %d\n", m.Tokens)
	fmt.Fprintf(&b, "makespan          %d cycles\n", m.Makespan)
	fmt.Fprintf(&b, "fleet throughput  %.4f tokens/kcycle\n", m.FleetTokensPerKCycle)
	fmt.Fprintf(&b, "batch occupancy   %.2f\n", m.MeanBatchOccupancy)
	fmt.Fprintf(&b, "load imbalance    %.3f (max/mean outstanding tokens)\n", m.LoadImbalance)
	if m.PrefixHits+m.PrefixMisses > 0 {
		fmt.Fprintf(&b, "prefix cache      %d hits, %d misses, %d tokens saved (rate %.2f)\n",
			m.PrefixHits, m.PrefixMisses, m.PrefillTokensSaved, m.PrefixHitRate)
	}
	if m.Overload.Enabled() {
		fmt.Fprintf(&b, "overload          %s: shed %d  forwarded %d  retries %d  dropped %d\n",
			m.Overload, m.Shed, m.Forwarded, m.Retries, m.Dropped)
	}
	if m.Faults.Enabled() {
		fmt.Fprintf(&b, "faults            %s: failures %d  redispatched %d  lost tokens %d  downtime %d cycles\n",
			m.Faults, m.Failures, m.Redispatched, m.LostTokens, m.DowntimeCycles)
	}
	fmt.Fprintf(&b, "e2e latency       p50 %.0f  p95 %.0f  p99 %.0f  max %.0f cycles\n",
		m.E2ELatency.P50, m.E2ELatency.P95, m.E2ELatency.P99, m.E2ELatency.Max)
	fmt.Fprintf(&b, "TTFT              p50 %.0f  p95 %.0f  p99 %.0f  max %.0f cycles\n",
		m.TTFT.P50, m.TTFT.P95, m.TTFT.P99, m.TTFT.Max)
	fmt.Fprintf(&b, "queue delay       p50 %.0f  p95 %.0f  p99 %.0f  max %.0f cycles\n",
		m.QueueDelay.P50, m.QueueDelay.P95, m.QueueDelay.P99, m.QueueDelay.Max)
	fmt.Fprintf(&b, "step cache        memo %d/%d  sim resets %d  spec %d/%d\n",
		m.StepCache.MemoHits, m.StepCache.MemoHits+m.StepCache.MemoMisses,
		m.StepCache.SimResets, m.StepCache.SpecHits, m.StepCache.Speculated)
	for i, nm := range m.PerNode {
		fmt.Fprintf(&b, "node %-2d           %d req  %d tok  occupancy %.2f  tok/kcyc %.4f\n",
			i, nm.Requests, nm.Tokens, nm.MeanBatchOccupancy, nm.TokensPerKCycle)
	}
	return b.String()
}
