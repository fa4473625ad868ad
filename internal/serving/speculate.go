// Speculative next-step simulation: a cluster node that misses the
// step memo simulates its predicted next step on idle fan-out width
// while it simulates the missed step itself.
//
// Unless a request is admitted, an engine's next running set depends
// only on token counts: every participant of the current step advances
// by its share and streams that finish retire. predictNext applies
// exactly that (applyStep's per-stream rule on a copy of the slots,
// then selectStep's choice), claims the predicted signature in the
// memo and simulates it on a stepSim borrowed from the run's SimPool.
// The result is published under the predicted step's own signature,
// and a memo entry is a pure function of its signature, so a wrong
// guess (an admission, a preemption, a crash) can only cost the
// simulation, never change a number: the only step that ever reads
// the entry is one with exactly that signature.

package serving

import (
	"sync"

	"repro/internal/sim"
)

// SimPool is the width budget of one run and the only source of its
// step simulators. At width w > 1 it holds w tokens: each fan-out
// worker holds one while its node advances (Acquire and Release), and
// each speculative simulation holds one while it runs — taken only
// when free, never waited for. Every step an engine or a speculation
// simulates borrows a stepSim from the pool and returns it before its
// token is released, so a run builds at most w of them whatever its
// node count. At width 1 one node advances at a time and nothing runs
// beside it: the pool holds no tokens and nothing speculates. A lent
// stepSim is re-aimed at the borrowing engine's configuration and AV
// setting, so engines of any configuration, and the runs of a grid
// one after another, can share a pool.
type SimPool struct {
	width  int
	tokens chan struct{} // nil at width 1
	wg     sync.WaitGroup
	mu     sync.Mutex
	free   []*stepSim
}

// NewSimPool returns a pool width wide (at least one).
func NewSimPool(width int) *SimPool {
	p := &SimPool{width: max(width, 1)}
	if width > 1 {
		p.tokens = make(chan struct{}, width)
	}
	return p
}

// Width returns the pool's width.
func (p *SimPool) Width() int { return p.width }

// Acquire takes a token, waiting until one is free.
func (p *SimPool) Acquire() {
	if p.tokens != nil {
		p.tokens <- struct{}{}
	}
}

// Release returns a token.
func (p *SimPool) Release() {
	if p.tokens != nil {
		<-p.tokens
	}
}

// Wait blocks until every speculative simulation launched on the pool
// has ended.
func (p *SimPool) Wait() { p.wg.Wait() }

// tryAcquire takes a token if one is free; a width-1 pool has none.
func (p *SimPool) tryAcquire() bool {
	select {
	case p.tokens <- struct{}{}:
		return true
	default:
		return false
	}
}

// get borrows a stepSim aimed at cfg and includeAV, building one when
// none is free.
func (p *SimPool) get(cfg *sim.Config, includeAV bool) *stepSim {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		s.aim(cfg, includeAV)
		return s
	}
	return newStepSim(*cfg, includeAV)
}

// put returns a borrowed stepSim.
func (p *SimPool) put(s *stepSim) {
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// specState is one engine's speculation: the signature of the last
// speculation not yet compared with a real step (key, "" for none), a
// channel closed when that simulation ends, and the scratch
// predictNext advances.
type specState struct {
	key     string
	done    chan struct{}
	streams []stream
	slots   []*stream
	running []StreamState
	sigBuf  []byte
}

// SetSimPool makes p, the run's pool, the source of the engine's step
// simulators; without one an engine builds a private width-1 pool at
// its first miss. On a pool wider than 1 the default step path
// (StepCacheOn) also speculates: when a step misses the memo, the
// engine simulates its predicted next step too if a token is free.
// The caller waits on p before reading results that must include
// every speculative simulation.
func (e *Engine) SetSimPool(p *SimPool) {
	e.sims = p
	e.speculates = e.mode == StepCacheOn && p != nil && p.tokens != nil
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
	if sp != nil && sp.done != nil {
		select {
		case <-sp.done:
		default:
			return
		}
	}
	pool, memo := e.sims, e.memo
	if !pool.tryAcquire() {
		return
	}
	if sp == nil {
		// The first speculation of the run builds the scratch, so a run
		// that replays every step builds none.
		sp = &specState{
			streams: make([]stream, e.maxBatch),
			slots:   make([]*stream, e.maxBatch),
			running: make([]StreamState, 0, e.maxBatch+1),
		}
		e.spec = sp
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
	s := pool.get(e.cfg, e.includeAV)
	s.running = append(s.running[:0], next...)
	done := make(chan struct{})
	sp.key, sp.done = key, done
	e.cacheStats.Speculated++
	pool.wg.Add(1)
	go func() {
		defer pool.wg.Done()
		res, _, err := s.run(s.running)
		pool.put(s)
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
		memo.publish(key, c, newStepResult(&res))
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
	for i := range e.running {
		rs := &e.running[i]
		if s := sp.slots[rs.Slot]; s.advance(rs) && s.left == 0 {
			sp.slots[rs.Slot] = nil
		}
	}
	sp.running = e.selectStep(sp.slots, sp.running)
	return sp.running
}
