// Speculative next-step simulation: a cluster node that misses the
// step memo simulates its predicted next step on idle fan-out width
// while it simulates the missed step itself.
//
// Unless a request is admitted, an engine's next running set depends
// only on token counts: every participant of the current step advances
// by its share and streams that finish retire. predictNext applies
// exactly that (applyStep's per-stream rule on a copy of the slots,
// then selectStep's choice), claims the predicted signature in the
// memo and simulates it on a pooled stepSim. The result is published
// under the predicted step's own signature, and a memo entry is a pure
// function of its signature, so a wrong guess (an admission, a
// preemption, a crash) can only cost the simulation, never change a
// number: the only step that ever reads the entry is one with exactly
// that signature.

package serving

import (
	"sync"

	"repro/internal/sim"
)

// SpecPool is the width budget of one fleet run, shared by its node
// fan-out and its speculative step simulations. It holds width tokens:
// each fan-out worker holds one while its node advances (Acquire and
// Release), and each speculative simulation holds one while it runs —
// taken only when free, never waited for. It also pools the
// speculative stepSims, so a run builds at most width of them whatever
// its node count. Every engine sharing a pool must run the same
// configuration.
type SpecPool struct {
	tokens chan struct{}
	wg     sync.WaitGroup
	mu     sync.Mutex
	free   []*stepSim
}

// NewSpecPool returns a budget of width tokens (at least one).
func NewSpecPool(width int) *SpecPool {
	if width < 1 {
		width = 1
	}
	return &SpecPool{tokens: make(chan struct{}, width)}
}

// Acquire takes a token, waiting until one is free.
func (p *SpecPool) Acquire() { p.tokens <- struct{}{} }

// Release returns a token.
func (p *SpecPool) Release() { <-p.tokens }

// Wait blocks until every speculative simulation launched on the pool
// has ended.
func (p *SpecPool) Wait() { p.wg.Wait() }

// tryAcquire takes a token if one is free.
func (p *SpecPool) tryAcquire() bool {
	select {
	case p.tokens <- struct{}{}:
		return true
	default:
		return false
	}
}

func (p *SpecPool) getSim(cfg sim.Config, includeAV bool) *stepSim {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	s := newStepSim(cfg, includeAV)
	return &s
}

func (p *SpecPool) putSim(s *stepSim) {
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// specState is one engine's speculation: its pool, the signature of
// the last speculation not yet compared with a real step (key, "" for
// none), a channel closed when that simulation ends, and the scratch
// predictNext advances.
type specState struct {
	pool    *SpecPool
	key     string
	done    chan struct{}
	streams []stream
	slots   []*stream
	running []StreamState
	sigBuf  []byte
}

// SetSpecPool turns on speculative next-step simulation on p's width:
// when a step misses the memo, the engine also simulates its predicted
// next step if a token is free. Only the default step path
// (StepCacheOn) speculates; in the other modes this is a no-op. The
// caller waits on p before reading results that must include every
// speculative simulation.
func (e *Engine) SetSpecPool(p *SpecPool) {
	if e.mode != StepCacheOn || p == nil {
		return
	}
	e.spec = &specState{
		pool:    p,
		streams: make([]stream, e.maxBatch),
		slots:   make([]*stream, e.maxBatch),
		running: make([]StreamState, 0, e.maxBatch+1),
	}
}

// settleSpec compares the signature of the step about to run with the
// engine's last speculation, counting a SpecHit when they match.
func (e *Engine) settleSpec(key []byte) {
	if e.spec.key == "" {
		return
	}
	if string(key) == e.spec.key {
		e.cacheStats.SpecHits++
	}
	e.spec.key = ""
}

// speculate launches the simulation of the predicted next step on a
// pooled stepSim, to run alongside the miss the engine is about to
// simulate. It gives up, never waiting, unless the engine's previous
// speculation has ended, a token is free, some stream is still running
// after this step, and no engine has published or claimed the
// predicted signature yet.
func (e *Engine) speculate() {
	sp := e.spec
	if sp.done != nil {
		select {
		case <-sp.done:
		default:
			return
		}
	}
	pool, memo := sp.pool, e.memo
	if !pool.tryAcquire() {
		return
	}
	next := e.predictNext()
	if len(next) == 0 {
		pool.Release()
		return
	}
	sp.sigBuf = e.sig.append(sp.sigBuf, next)
	key := string(sp.sigBuf)
	c := memo.tryClaim(key)
	if c == nil {
		pool.Release()
		return
	}
	s := pool.getSim(e.cfg, e.includeAV)
	s.running = append(s.running[:0], next...)
	done := make(chan struct{})
	sp.key, sp.done = key, done
	e.cacheStats.Speculated++
	pool.wg.Add(1)
	go func() {
		defer pool.wg.Done()
		res, err := s.run(s.running)
		pool.putSim(s)
		pool.Release()
		// Ended before the result is visible: a step that replays it
		// may speculate again at once.
		close(done)
		if err != nil {
			// The step that needs this signature simulates it itself
			// and reports the error there.
			memo.release(key, c)
			return
		}
		memo.publish(key, c, &stepResult{cycles: res.Cycles, counters: res.Counters})
	}()
}

// predictNext returns the running set of the step after e.running,
// assuming no request is admitted before it: the occupied slots are
// copied, advanced by e.running with applyStep's per-stream rule,
// streams whose decode budget runs out are retired, and selectStep
// picks the next set from that view.
func (e *Engine) predictNext() []StreamState {
	sp := e.spec
	for i, s := range e.slots {
		sp.slots[i] = nil
		if s != nil {
			sp.streams[i] = *s
			sp.slots[i] = &sp.streams[i]
		}
	}
	for _, rs := range e.running {
		if s := sp.slots[rs.Slot]; s.advance(rs) && s.left == 0 {
			sp.slots[rs.Slot] = nil
		}
	}
	sp.running = e.selectStep(sp.slots, sp.running)
	return sp.running
}
