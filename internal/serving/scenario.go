// Scenario construction: the request population and the fixed-seed
// arrival process. Everything here is pure integer/float arithmetic on
// an explicit PRNG state, so a (seed, config) pair always produces the
// same Scenario — the serving determinism guarantee starts at
// workload generation, not just at simulation.

package serving

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/workload"
)

// minKVLen is the smallest legal KV-cache length for a decode stream:
// one output cache line of fp32 attention scores (64 B / 4 B = 16
// sequence positions), the mapping legality floor of
// dataflow.Mapping.Validate.
const minKVLen = 16

// sessionSeedMix decorrelates the session-assignment stream from the
// request-population stream drawn from the same user seed.
const sessionSeedMix = 0x5e5510aded5eed

// Request is one request of a serving scenario: a model, the prompt
// length, the number of tokens to generate, and the cycle at which it
// arrives at the server. What PromptLen means operationally depends on
// the scenario's scheduler: under the decode-only policy the prompt is
// assumed prefilled elsewhere and PromptLen is the KV-cache length
// when decoding starts; under the prefill policies the engine runs the
// PromptLen-token prefill itself before the first decode step.
type Request struct {
	ID           int
	Model        workload.ModelConfig
	PromptLen    int   // prompt length in tokens (KV length when decode starts)
	DecodeTokens int   // tokens to generate before retiring
	ArrivalCycle int64 // arrival time in core cycles
	// Session identifies the conversation the request belongs to — the
	// unit of KV/prefix-cache locality the session-affinity and
	// prefix-affinity routers exploit. Requests of one session share
	// prompt-prefix state.
	Session int
	// PrefixLen is how many leading prompt tokens are shared with the
	// session's previous turn (0 = a fresh conversation). A prefix
	// cache holding at least that much of the session's retained KV
	// lets prefill skip the shared portion; with the cache off (or on
	// a miss) the field is inert and the whole prompt prefills.
	PrefixLen int
}

// Validate checks one request.
func (r Request) Validate() error {
	if err := r.Model.Validate(); err != nil {
		return err
	}
	switch {
	case r.PromptLen < minKVLen:
		return fmt.Errorf("serving: request %d: PromptLen %d below the mapping floor %d", r.ID, r.PromptLen, minKVLen)
	case r.DecodeTokens <= 0:
		return fmt.Errorf("serving: request %d: DecodeTokens must be positive, got %d", r.ID, r.DecodeTokens)
	case r.ArrivalCycle < 0:
		return fmt.Errorf("serving: request %d: ArrivalCycle must be non-negative, got %d", r.ID, r.ArrivalCycle)
	case r.Session < 0:
		return fmt.Errorf("serving: request %d: Session must be non-negative, got %d", r.ID, r.Session)
	case r.PrefixLen < 0 || r.PrefixLen > r.PromptLen:
		return fmt.Errorf("serving: request %d: PrefixLen %d outside [0, PromptLen %d]", r.ID, r.PrefixLen, r.PromptLen)
	}
	return nil
}

// Scenario is a complete serving workload: a request population plus
// the continuous-batching limit. Requests are admitted FCFS in
// arrival order (ties broken by ID) whenever a batch slot is free.
type Scenario struct {
	Name     string
	Requests []Request
	// MaxBatch bounds how many decode streams run concurrently — the
	// batch capacity of the continuous-batching scheduler.
	MaxBatch int
	// IncludeAV appends the attention-value operator (AttProb·V) to
	// every stream's per-token work, so a token step exercises both
	// KV-cache-bound kernels of the decode stage.
	IncludeAV bool
	// Sched selects the prefill/decode co-scheduling policy and the
	// KV-capacity admission bound. The zero value is decode-only with
	// unlimited KV — the pre-prefill engine behaviour, bit-identical.
	Sched SchedulerConfig
}

// Validate checks the scenario. Request IDs must form a permutation
// of [0, len(Requests)): the engine uses them as indices into the
// per-request result slice and as FCFS tie-breakers.
func (s Scenario) Validate() error {
	if len(s.Requests) == 0 {
		return fmt.Errorf("serving: scenario has no requests")
	}
	if s.MaxBatch <= 0 {
		return fmt.Errorf("serving: MaxBatch must be positive, got %d", s.MaxBatch)
	}
	if err := s.Sched.Validate(); err != nil {
		return err
	}
	seen := make([]bool, len(s.Requests))
	for _, r := range s.Requests {
		if err := r.Validate(); err != nil {
			return err
		}
		if err := s.Sched.CheckAdmissible(r); err != nil {
			return err
		}
		if r.ID < 0 || r.ID >= len(s.Requests) {
			return fmt.Errorf("serving: request ID %d outside [0, %d)", r.ID, len(s.Requests))
		}
		if seen[r.ID] {
			return fmt.Errorf("serving: duplicate request ID %d", r.ID)
		}
		seen[r.ID] = true
	}
	return nil
}

// MaxKVLen returns the largest KV-cache length any request reaches
// (prompt plus every generated token) — the per-stream address-space
// sizing bound.
func (s Scenario) MaxKVLen() int {
	max := 0
	for _, r := range s.Requests {
		if kv := r.PromptLen + r.DecodeTokens; kv > max {
			max = kv
		}
	}
	return max
}

// TotalTokens returns the number of tokens the scenario generates.
func (s Scenario) TotalTokens() int64 {
	var n int64
	for _, r := range s.Requests {
		n += int64(r.DecodeTokens)
	}
	return n
}

// ScenarioConfig parameterises the fixed-seed scenario generator: a
// request count, a model mix, uniform prompt-length and decode-length
// ranges, and a Poisson (exponential inter-arrival) arrival process.
type ScenarioConfig struct {
	Name string
	Seed uint64
	// NumRequests is the population size.
	NumRequests int
	// Models is the per-request model mix, sampled uniformly. Empty
	// means Llama3-70B only.
	Models []workload.ModelConfig
	// MinPromptLen/MaxPromptLen bound the uniform prompt-length draw
	// (inclusive). MinPromptLen must be >= 16 (mapping legality).
	MinPromptLen, MaxPromptLen int
	// MinDecode/MaxDecode bound the uniform decode-length draw
	// (inclusive).
	MinDecode, MaxDecode int
	// MeanInterArrival is the mean of the exponential inter-arrival
	// gap in cycles. Zero means every request arrives at cycle 0 (a
	// closed-batch scenario).
	MeanInterArrival float64
	// Arrival shapes the arrival process around the base Poisson rate
	// (burst, ramp, diurnal, rate trace — see ArrivalConfig). The zero
	// value is plain Poisson, bit-identical to the pre-overload
	// generator. Ignored when MeanInterArrival is zero.
	Arrival ArrivalConfig
	// MaxBatch is the continuous-batching capacity.
	MaxBatch int
	// IncludeAV adds the AV operator to every token step.
	IncludeAV bool
	// Sched is the prefill/decode scheduler configuration (zero value:
	// decode-only, unlimited KV).
	Sched SchedulerConfig
	// NumSessions is how many distinct sessions the population is drawn
	// from; each request is assigned one uniformly from a second
	// splitmix64 stream derived from Seed, so the population draw is
	// unchanged by the session count. Zero means every request is its
	// own session (no prefix locality to exploit).
	NumSessions int
	// SessionDepth turns sessions into multi-turn conversations: when
	// at least 2, consecutive requests of one session form follow-up
	// chains of up to SessionDepth turns, each turn's prompt extending
	// the previous turn's full context (prompt plus generated tokens)
	// with a fresh suffix drawn from the [MinPromptLen, MaxPromptLen]
	// range. Follow-up turns carry PrefixLen = the shared context, so a
	// prefix cache can skip re-prefilling it. 0 or 1 leaves every
	// request a fresh single-turn prompt — bit-identical to the
	// pre-session generator. Chaining consumes no RNG draws, so the
	// arrival process and the per-turn suffix draws are identical at
	// every depth.
	SessionDepth int
}

// NewScenario draws a Scenario from the config deterministically:
// the same config (including Seed) always yields the same requests
// and arrival times, independent of platform or Go release — the
// generator uses an explicit splitmix64 stream rather than math/rand.
func NewScenario(cfg ScenarioConfig) (Scenario, error) {
	if cfg.NumRequests <= 0 {
		return Scenario{}, fmt.Errorf("serving: NumRequests must be positive, got %d", cfg.NumRequests)
	}
	if cfg.MinPromptLen < minKVLen {
		return Scenario{}, fmt.Errorf("serving: MinPromptLen %d below the mapping floor %d", cfg.MinPromptLen, minKVLen)
	}
	if cfg.MaxPromptLen < cfg.MinPromptLen {
		return Scenario{}, fmt.Errorf("serving: MaxPromptLen %d < MinPromptLen %d", cfg.MaxPromptLen, cfg.MinPromptLen)
	}
	if cfg.MinDecode <= 0 || cfg.MaxDecode < cfg.MinDecode {
		return Scenario{}, fmt.Errorf("serving: decode range [%d, %d] invalid", cfg.MinDecode, cfg.MaxDecode)
	}
	if cfg.MaxBatch <= 0 {
		return Scenario{}, fmt.Errorf("serving: MaxBatch must be positive, got %d", cfg.MaxBatch)
	}
	if cfg.NumSessions < 0 {
		return Scenario{}, fmt.Errorf("serving: NumSessions must be non-negative, got %d", cfg.NumSessions)
	}
	if cfg.SessionDepth < 0 {
		return Scenario{}, fmt.Errorf("serving: SessionDepth must be non-negative, got %d", cfg.SessionDepth)
	}
	if cfg.MeanInterArrival < 0 || math.IsNaN(cfg.MeanInterArrival) || math.IsInf(cfg.MeanInterArrival, 0) {
		return Scenario{}, fmt.Errorf("serving: MeanInterArrival must be non-negative and finite, got %g", cfg.MeanInterArrival)
	}
	models := cfg.Models
	if len(models) == 0 {
		models = []workload.ModelConfig{workload.Llama3_70B}
	}
	for _, m := range models {
		if err := m.Validate(); err != nil {
			return Scenario{}, err
		}
	}

	if err := cfg.Sched.Validate(); err != nil {
		return Scenario{}, err
	}
	if err := cfg.Arrival.Validate(); err != nil {
		return Scenario{}, err
	}

	r := Rand{State: cfg.Seed}
	scn := Scenario{
		Name:      cfg.Name,
		MaxBatch:  cfg.MaxBatch,
		IncludeAV: cfg.IncludeAV,
		Sched:     cfg.Sched,
		Requests:  make([]Request, 0, cfg.NumRequests),
	}
	var clock float64
	for i := 0; i < cfg.NumRequests; i++ {
		if cfg.MeanInterArrival > 0 {
			gap := r.ExpFloat64() * cfg.MeanInterArrival
			// Nonhomogeneous modulation rescales the SAME exponential
			// draw by the instantaneous rate multiplier, so every
			// arrival shape consumes the RNG identically and the
			// poisson path (rate ≡ 1) is bit-identical to before.
			if scale := cfg.Arrival.rate(clock); scale != 1 {
				gap /= scale
			}
			clock += gap
			// int64(clock) is undefined past the cycle range (MinInt64
			// on amd64), which would hand the engine negative arrivals.
			if !(clock < math.MaxInt64) {
				return Scenario{}, fmt.Errorf("serving: request %d arrives at cycle %g, past the int64 cycle range (MeanInterArrival %g)",
					i, clock, cfg.MeanInterArrival)
			}
		}
		scn.Requests = append(scn.Requests, Request{
			ID:           i,
			Model:        models[r.Intn(len(models))],
			PromptLen:    cfg.MinPromptLen + r.Intn(cfg.MaxPromptLen-cfg.MinPromptLen+1),
			DecodeTokens: cfg.MinDecode + r.Intn(cfg.MaxDecode-cfg.MinDecode+1),
			ArrivalCycle: int64(clock),
		})
	}
	// The generator emits requests in arrival order already, but keep
	// the invariant explicit for hand-built populations run through
	// the same engine.
	sortRequests(scn.Requests)
	// Session assignment comes from its own stream, drawn in arrival
	// order, so the population above is untouched by the session knobs.
	sr := Rand{State: cfg.Seed ^ sessionSeedMix}
	for i := range scn.Requests {
		if cfg.NumSessions > 0 {
			scn.Requests[i].Session = sr.Intn(cfg.NumSessions)
		} else {
			// Every request its own session; no prefix locality.
			scn.Requests[i].Session = scn.Requests[i].ID
		}
	}
	if cfg.SessionDepth > 1 {
		chainSessions(scn.Requests, cfg.SessionDepth)
	}
	return scn, nil
}

// chainSessions rewrites the population into multi-turn conversations:
// within each session (in arrival order) turn t>0 extends turn t-1's
// full context — the previous prompt plus its generated tokens — with
// the turn's own drawn prompt as the fresh suffix, and records the
// shared context as PrefixLen. After depth turns the chain restarts
// from a fresh context (a new conversation under the same session
// identity). Pure arithmetic on already-drawn fields: no RNG.
func chainSessions(reqs []Request, depth int) {
	type conv struct {
		turns int
		kv    int // previous turn's PromptLen + DecodeTokens
	}
	convs := make(map[int]conv)
	for i := range reqs {
		r := &reqs[i]
		c := convs[r.Session]
		if c.turns > 0 {
			r.PrefixLen = c.kv
			r.PromptLen = c.kv + r.PromptLen
		}
		c.turns++
		c.kv = r.PromptLen + r.DecodeTokens
		if c.turns >= depth {
			c = conv{}
		}
		convs[r.Session] = c
	}
}

// sortRequests orders requests by arrival cycle, ties by ID — the
// FCFS admission order of the engine.
func sortRequests(reqs []Request) {
	sort.SliceStable(reqs, func(a, b int) bool {
		if reqs[a].ArrivalCycle != reqs[b].ArrivalCycle {
			return reqs[a].ArrivalCycle < reqs[b].ArrivalCycle
		}
		return reqs[a].ID < reqs[b].ID
	})
}

// Rand is a splitmix64 generator. The sequence is fixed by the
// algorithm itself (not by math/rand's implementation), so scenarios
// are reproducible across Go releases — a requirement for the
// fixed-seed determinism tests. It is exported so the cluster
// workload generator and router draw from the same deterministic
// stream family.
type Rand struct{ State uint64 }

// Uint64 advances the stream and returns the next 64-bit draw.
func (r *Rand) Uint64() uint64 {
	r.State += 0x9e3779b97f4a7c15
	z := r.State
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// ExpFloat64 returns an exponentially distributed float with mean 1.
func (r *Rand) ExpFloat64() float64 {
	// 53 uniform mantissa bits in (0, 1]; the +1 excludes zero so the
	// log is finite.
	u := float64(r.Uint64()>>11+1) / (1 << 53)
	return -math.Log(u)
}
