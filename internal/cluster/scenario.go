// Cluster workload construction: the fleet-level request population.
// A fleet runs serving requests: the session each request carries is
// the unit of KV/prefix-cache locality the session-affinity router
// exploits. Generation is open-loop (arrivals are drawn from a fixed
// Poisson process, independent of service progress) and fixed-seed
// (splitmix64), so a (seed, config) pair always produces the same
// fleet workload.

package cluster

import (
	"fmt"

	"repro/internal/serving"
	"repro/internal/workload"
)

// Request is one decode request arriving at the cluster router: a
// serving request. Requests of the same Session share prompt-prefix
// state, so routing them to the same node models KV/prefix-cache
// locality, and the node's prefix cache keys on the same field.
type Request = serving.Request

// Scenario is a complete fleet workload: a request population in
// arrival order plus the per-node continuous-batching capacity, AV
// setting and scheduler configuration — the fields of a serving
// scenario, applied to every node. Request IDs must form a permutation
// of [0, len(Requests)): the router uses them as indices into the
// fleet-level result slice and as dispatch tie-breakers.
type Scenario serving.Scenario

// Validate checks the scenario by the serving rules.
func (s Scenario) Validate() error { return serving.Scenario(s).Validate() }

// ServingScenario is the same population as a single-node serving
// scenario: what a 1-node cluster serves, and the address-space sizing
// input for every node's StreamStride. It shares the request slice.
func (s Scenario) ServingScenario() serving.Scenario { return serving.Scenario(s) }

// TotalTokens returns the number of tokens the fleet generates.
func (s Scenario) TotalTokens() int64 { return serving.Scenario(s).TotalTokens() }

// ScenarioConfig parameterises the fixed-seed cluster workload
// generator: the serving generator's population parameters plus the
// session count.
type ScenarioConfig struct {
	serving.ScenarioConfig
	// NumSessions is how many distinct sessions the population is drawn
	// from; each request is assigned one uniformly. Zero means every
	// request is its own session (no prefix locality to exploit).
	NumSessions int
}

// NewScenario draws a cluster workload deterministically: it is the
// serving generator's scenario for the embedded config (same splitmix64
// streams, so the same seed yields the same requests a single-node
// scenario would see), with the cluster-level NumSessions forwarded
// into it. SessionDepth in the embedded config turns the sessions into
// multi-turn conversations carrying PrefixLen (see
// serving.ScenarioConfig).
func NewScenario(cfg ScenarioConfig) (Scenario, error) {
	if cfg.NumSessions < 0 {
		return Scenario{}, fmt.Errorf("cluster: NumSessions must be non-negative, got %d", cfg.NumSessions)
	}
	inner := cfg.ScenarioConfig
	if cfg.NumSessions > 0 {
		if inner.NumSessions != 0 && inner.NumSessions != cfg.NumSessions {
			return Scenario{}, fmt.Errorf("cluster: NumSessions %d contradicts the embedded serving NumSessions %d (set one)",
				cfg.NumSessions, inner.NumSessions)
		}
		inner.NumSessions = cfg.NumSessions
	}
	base, err := serving.NewScenario(inner)
	return Scenario(base), err
}

// DefaultScenario returns the stock fleet workload cmd/cluster and
// the examples use: sixteen Llama3-70B requests across four sessions
// at mixed prompt lengths, Poisson arrivals twice as dense as the
// single-node default (a fleet serves heavier traffic), per-node
// batch capacity four. scale divides the prompt-length range exactly
// like serving.DefaultScenario.
func DefaultScenario(scale int) (Scenario, error) {
	if scale <= 0 {
		scale = 1
	}
	minP, maxP := 512/scale, 2048/scale
	if minP < 16 {
		minP = 16
	}
	if maxP < minP {
		maxP = minP
	}
	return NewScenario(ScenarioConfig{
		ScenarioConfig: serving.ScenarioConfig{
			Name:             fmt.Sprintf("cluster-default/scale%d", scale),
			Seed:             1,
			NumRequests:      16,
			Models:           []workload.ModelConfig{workload.Llama3_70B},
			MinPromptLen:     minP,
			MaxPromptLen:     maxP,
			MinDecode:        4,
			MaxDecode:        8,
			MeanInterArrival: 15000,
			MaxBatch:         4,
		},
		NumSessions: 4,
	})
}
