// Router-level overload control: admission shedding, node-to-node
// forwarding and deterministic retry/backoff. A per-node saturation
// signal — outstanding decode tokens plus prefill backlog against a
// configured capacity — lets the router refuse to bury a saturated
// node: the request is forwarded to the least-loaded peer instead, or
// shed and re-enqueued after an exponential backoff, or (once its
// retry budget is spent) dropped. Everything is deterministic: backoff
// delays are a fixed doubling schedule with no jitter, and retries
// re-enter the global arrival order through the same (cycle, ID)
// event ordering as fresh arrivals.

package cluster

import (
	"fmt"
	"strconv"
	"strings"
)

// Default retry/backoff parameters filled in by ParseOverload when the
// spec omits them.
const (
	// DefaultMaxRetries is the stock retry budget of a shed request.
	DefaultMaxRetries = 3
	// DefaultBackoffBase is the stock first-retry delay in cycles;
	// retry k waits DefaultBackoffBase << (k-1).
	DefaultBackoffBase = 10000
)

// OverloadConfig is the router's overload-control configuration. The
// zero value disables it entirely — no saturation checks, no
// shedding, bit-identical to the pre-overload router.
type OverloadConfig struct {
	// SaturationTokens is the per-node saturation threshold: a node
	// whose outstanding decode tokens plus prefill backlog is at or
	// above it refuses new work. 0 disables overload control.
	SaturationTokens int64
	// MaxRetries is how many times a shed request may re-enter the
	// arrival queue before the next rejection drops it. 0 means a
	// single rejection drops the request.
	MaxRetries int
	// BackoffBase is the first retry's backoff delay in cycles; the
	// k-th retry waits BackoffBase << (k-1) — deterministic exponential
	// backoff, no jitter.
	BackoffBase int64
	// Forward lets the router first try handing a rejected request to
	// the least-loaded peer (lowest outstanding+backlog, ties to the
	// lowest index); the request is shed only when every node is
	// saturated.
	Forward bool
}

// Enabled reports whether overload control is active.
func (o OverloadConfig) Enabled() bool { return o.SaturationTokens > 0 }

// Validate checks the overload configuration.
func (o OverloadConfig) Validate() error {
	if o.SaturationTokens < 0 {
		return fmt.Errorf("cluster: SaturationTokens must be non-negative, got %d", o.SaturationTokens)
	}
	if o.MaxRetries < 0 {
		return fmt.Errorf("cluster: MaxRetries must be non-negative, got %d", o.MaxRetries)
	}
	if o.BackoffBase < 0 {
		return fmt.Errorf("cluster: BackoffBase must be non-negative, got %d", o.BackoffBase)
	}
	if !o.Enabled() && (o.MaxRetries != 0 || o.BackoffBase != 0 || o.Forward) {
		return fmt.Errorf("cluster: overload control disabled (SaturationTokens 0) but retry/backoff/forward parameters set")
	}
	return nil
}

// backoff returns the delay before the retry following the given
// number of prior rejections (1-based: attempts=1 is the first retry).
func (o OverloadConfig) backoff(attempts int) int64 {
	d := o.BackoffBase
	for i := 1; i < attempts; i++ {
		d <<= 1
	}
	return d
}

// String renders the canonical spec ParseOverload accepts.
func (o OverloadConfig) String() string {
	if !o.Enabled() {
		return "off"
	}
	s := fmt.Sprintf("%d:%d:%d", o.SaturationTokens, o.MaxRetries, o.BackoffBase)
	if o.Forward {
		s += ":forward"
	}
	return s
}

// ParseOverload reads a -shed flag value:
//
//	off (or "")
//	SAT                         e.g. 2000
//	SAT:RETRIES                 e.g. 2000:3
//	SAT:RETRIES:BACKOFF         e.g. 2000:3:20000
//	SAT:RETRIES:BACKOFF:forward e.g. 2000:3:20000:forward
//
// SAT is the per-node saturation threshold in tokens, RETRIES the
// retry budget (default 3), BACKOFF the first retry's delay in cycles
// (default 10000, doubling per retry); the trailing "forward" enables
// least-loaded-peer forwarding before shedding.
func ParseOverload(s string) (OverloadConfig, error) {
	if s == "" || s == "off" {
		return OverloadConfig{}, nil
	}
	bad := func(reason string) (OverloadConfig, error) {
		return OverloadConfig{}, fmt.Errorf("cluster: bad shed spec %q: %s (want off or SAT[:RETRIES[:BACKOFF[:forward]]])", s, reason)
	}
	parts := strings.Split(s, ":")
	if len(parts) > 4 {
		return bad("too many fields")
	}
	cfg := OverloadConfig{MaxRetries: DefaultMaxRetries, BackoffBase: DefaultBackoffBase}
	sat, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		return bad("saturation threshold is not an integer")
	}
	if sat <= 0 {
		return bad("saturation threshold must be positive (use \"off\" to disable)")
	}
	cfg.SaturationTokens = sat
	if len(parts) > 1 {
		r, err := strconv.Atoi(parts[1])
		if err != nil {
			return bad("retry cap is not an integer")
		}
		cfg.MaxRetries = r
	}
	if len(parts) > 2 {
		b, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil {
			return bad("backoff base is not an integer")
		}
		cfg.BackoffBase = b
	}
	if len(parts) > 3 {
		if parts[3] != "forward" {
			return bad("trailing field must be \"forward\"")
		}
		cfg.Forward = true
	}
	if err := cfg.Validate(); err != nil {
		return OverloadConfig{}, err
	}
	return cfg, nil
}

// event is one dispatch-loop occurrence of request id: a fresh arrival
// (attempts 0), a backoff re-entry of a shed or crash-lost request, or
// the redispatch of a request recovered from a crashed node.
type event struct {
	at       int64
	id       int
	attempts int
	// resume is the decode tokens a crash-recovered request had already
	// generated when its node died: the dispatch submits via
	// SubmitResume so the new node re-prefills prompt+resume and decode
	// continues — tokens are never generated twice. 0 for every
	// fault-free event.
	resume int
}

// eventQueue is a binary min-heap of events ordered by (at, id) — the
// same order the pre-overload router processed its sorted arrival
// slice in, so a run that never pushes a retry pops events in exactly
// the old iteration order. A slice sorted by (at, id) is already a
// valid heap, so the initial arrival population needs no sift pass.
type eventQueue []event

func (q eventQueue) before(a, b int) bool {
	if q[a].at != q[b].at {
		return q[a].at < q[b].at
	}
	return q[a].id < q[b].id
}

func (q *eventQueue) push(e event) {
	*q = append(*q, e)
	h := *q
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.before(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	*q = h
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && h.before(l, least) {
			least = l
		}
		if r < n && h.before(r, least) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return top
}
