// Package sched implements thread-block dispatch to cores. The paper
// extends Ramulator2's one-trace-file-per-core frontend with a global
// scheduling mechanism that can hand the thread blocks of a slow core
// to a fast core ("Without this feature, our baselines would be
// under-estimated", Section 5). Three dispatchers model the design
// space:
//
//   - AffinityPool — the default: the dataflow's spatial mapping gives
//     every (head-group, query-head) stream a home core; a core that
//     drains its own queue steals from the most-loaded core. This is
//     the paper's global scheduling.
//   - GlobalPool — a single FIFO any core pulls from.
//   - PartitionedPool — static per-core assignment with no stealing:
//     the original Ramulator2 restriction, kept for the ablation.
package sched

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/memtrace"
)

// Pool dispenses thread blocks to cores.
type Pool interface {
	// Next returns the next block for core, or false when no work
	// remains anywhere (for stealing pools) or for this core (for
	// partitioned pools).
	Next(core int) (*memtrace.ThreadBlock, bool)
	// Remaining reports how many blocks are still undispatched.
	Remaining() int
}

// GlobalPool dispatches blocks in trace order to whichever core asks
// first.
type GlobalPool struct {
	blocks []*memtrace.ThreadBlock
	next   int
}

// NewGlobalPool wraps a trace in a global FIFO dispatcher.
func NewGlobalPool(t *memtrace.Trace) *GlobalPool {
	return &GlobalPool{blocks: t.Blocks}
}

// Reload rewinds the dispatcher onto a new trace — the resettable
// engine's path for reusing one pool across runs.
func (p *GlobalPool) Reload(t *memtrace.Trace) {
	p.blocks = t.Blocks
	p.next = 0
}

// Next implements Pool.
func (p *GlobalPool) Next(core int) (*memtrace.ThreadBlock, bool) {
	if p.next >= len(p.blocks) {
		return nil, false
	}
	tb := p.blocks[p.next]
	p.next++
	return tb, true
}

// Remaining implements Pool.
func (p *GlobalPool) Remaining() int { return len(p.blocks) - p.next }

// AffinityPool is the default dispatcher: the spatial mapping assigns
// each (group, query-head) pair a home core, so the cores of one head
// group stream the same K tiles concurrently — the GQA cross-core
// reuse the CAT policies exploit. When a core's own queue empties it
// steals the oldest block from the most-loaded queue, which is the
// paper's slow-core-to-fast-core migration.
type AffinityPool struct {
	queues    [][]*memtrace.ThreadBlock
	heads     []int
	remaining int
	numCores  int
	groupSize int
	// Steals counts cross-core migrations (diagnostics).
	Steals int64
}

// NewAffinityPool partitions the trace by home core. groupSize is the
// model's G (query heads per group); sharerLimit bounds how many
// distinct cores stream one head group's K tiles concurrently —
// Section 6.2.2's "hardware-friendly workload" constraint, normally
// the MSHR's merge capacity (numTarget + the primary). Query heads
// beyond the limit fold onto the same cores (their duplicate line
// accesses merge in the private L1), and the remaining cores take
// other head groups, staggering the streams.
//
// With A = min(G, numCores, sharerLimit) and B = numCores/A, block
// (h, g) of stream s is homed on core (g mod A) + A*((h+s) mod B).
// For single-stream traces (s = 0) and Llama3-70B (G=8, 16 cores)
// this reduces to (h*G+g) mod numCores; for Llama3-405B (G=16) it
// splits the 16 query heads over 8 cores per head group so
// co-requests never exceed the MSHR target capacity. In multi-stream
// serving traces the stream index rotates each stream's head groups
// across the B dimension, so concurrent decode requests spread over
// the cores instead of piling onto the same homes.
func NewAffinityPool(t *memtrace.Trace, numCores, groupSize, sharerLimit int) (*AffinityPool, error) {
	if numCores <= 0 {
		return nil, fmt.Errorf("sched: numCores must be positive, got %d", numCores)
	}
	if groupSize <= 0 {
		return nil, fmt.Errorf("sched: groupSize must be positive, got %d", groupSize)
	}
	p := &AffinityPool{
		queues:   make([][]*memtrace.ThreadBlock, numCores),
		heads:    make([]int, numCores),
		numCores: numCores,
	}
	p.Reload(t, groupSize, sharerLimit)
	return p, nil
}

// Reload rewinds the dispatcher onto a new trace (and group size),
// reusing the per-core queue backings — the resettable engine's path
// for reusing one pool across runs. A reloaded pool is
// indistinguishable from a fresh NewAffinityPool.
func (p *AffinityPool) Reload(t *memtrace.Trace, groupSize, sharerLimit int) {
	if sharerLimit <= 0 {
		sharerLimit = p.numCores
	}
	p.groupSize = groupSize
	for c := range p.queues {
		p.queues[c] = p.queues[c][:0]
		p.heads[c] = 0
	}
	numCores := p.numCores
	a := groupSize
	if a > numCores {
		a = numCores
	}
	if a > sharerLimit {
		a = sharerLimit
	}
	b := numCores / a
	if b < 1 {
		b = 1
	}
	for _, tb := range t.Blocks {
		home := (tb.Meta.QHead % a) + a*((tb.Meta.Group+tb.Meta.Stream)%b)
		p.queues[home%numCores] = append(p.queues[home%numCores], tb)
	}
	// Interleave each core's streams tile-major: the core's windows
	// advance all of its (group, query-head) streams together, the
	// way the spatial mapping runs them concurrently on hardware. The
	// live working set therefore spans every head group at once —
	// sequence length and active-window count directly control cache
	// pressure, which is the regime the paper studies.
	for c := range p.queues {
		slices.SortStableFunc(p.queues[c], tileMajor)
	}
	p.remaining = len(t.Blocks)
	p.Steals = 0
}

// tileMajor orders a core's blocks by (TileLo, Stream, Group, QHead).
func tileMajor(a, b *memtrace.ThreadBlock) int {
	return cmp.Or(
		cmp.Compare(a.Meta.TileLo, b.Meta.TileLo),
		cmp.Compare(a.Meta.Stream, b.Meta.Stream),
		cmp.Compare(a.Meta.Group, b.Meta.Group),
		cmp.Compare(a.Meta.QHead, b.Meta.QHead),
	)
}

// Next implements Pool: own queue first, then steal from the
// most-loaded queue.
func (p *AffinityPool) Next(core int) (*memtrace.ThreadBlock, bool) {
	if core < 0 || core >= p.numCores {
		return nil, false
	}
	if tb := p.pop(core); tb != nil {
		return tb, true
	}
	// Steal from the queue with the most remaining work.
	victim, most := -1, 0
	for c := 0; c < p.numCores; c++ {
		if n := len(p.queues[c]) - p.heads[c]; n > most {
			victim, most = c, n
		}
	}
	if victim < 0 {
		return nil, false
	}
	p.Steals++
	return p.pop(victim), true
}

func (p *AffinityPool) pop(core int) *memtrace.ThreadBlock {
	if p.heads[core] >= len(p.queues[core]) {
		return nil
	}
	tb := p.queues[core][p.heads[core]]
	p.queues[core][p.heads[core]] = nil // allow GC of dispatched blocks
	p.heads[core]++
	p.remaining--
	return tb
}

// Remaining implements Pool.
func (p *AffinityPool) Remaining() int { return p.remaining }

// QueueLen reports the undispatched blocks homed on core.
func (p *AffinityPool) QueueLen(core int) int {
	return len(p.queues[core]) - p.heads[core]
}

// PartitionedPool assigns blocks statically (round-robin by block
// index) with no migration — the pre-extension Ramulator2 behaviour
// used for the global-scheduling ablation.
type PartitionedPool struct {
	queues    [][]*memtrace.ThreadBlock
	heads     []int
	remaining int
}

// NewPartitionedPool splits the trace round-robin over numCores.
func NewPartitionedPool(t *memtrace.Trace, numCores int) (*PartitionedPool, error) {
	if numCores <= 0 {
		return nil, fmt.Errorf("sched: numCores must be positive, got %d", numCores)
	}
	p := &PartitionedPool{
		queues: make([][]*memtrace.ThreadBlock, numCores),
		heads:  make([]int, numCores),
	}
	p.Reload(t)
	return p, nil
}

// Reload rewinds the dispatcher onto a new trace, reusing the per-core
// queue backings.
func (p *PartitionedPool) Reload(t *memtrace.Trace) {
	for c := range p.queues {
		p.queues[c] = p.queues[c][:0]
		p.heads[c] = 0
	}
	for i, tb := range t.Blocks {
		p.queues[i%len(p.queues)] = append(p.queues[i%len(p.queues)], tb)
	}
	p.remaining = len(t.Blocks)
}

// Next implements Pool: strictly the core's own queue.
func (p *PartitionedPool) Next(core int) (*memtrace.ThreadBlock, bool) {
	if core < 0 || core >= len(p.queues) {
		return nil, false
	}
	if p.heads[core] >= len(p.queues[core]) {
		return nil, false
	}
	tb := p.queues[core][p.heads[core]]
	p.queues[core][p.heads[core]] = nil
	p.heads[core]++
	p.remaining--
	return tb, true
}

// Remaining implements Pool.
func (p *PartitionedPool) Remaining() int { return p.remaining }
