package sim

import (
	"math"
	"math/bits"
)

// wheelSlots is the wake calendar's span in cycles (a power of two).
// Almost every wake lies a few to a few dozen cycles ahead (NoC
// transit, pipeline and data-array latencies, short compute); a wake
// further out waits in its slot for later revolutions.
const wheelSlots = 256

// calendar is the fast-forward engine's wake calendar: a timing wheel
// whose slot for cycle t holds one bitmask of the cores and one of the
// slices due at t, so a ticked cycle visits exactly those, in index
// order. Each component has one due cycle, the earliest of everything
// that can wake it; a visit recomputes it from scratch, so a wake that
// a nearer one superseded leaves only a stale bit, dropped when its
// slot comes round.
type calendar struct {
	cores, slices group
}

// group is one component class's half of the calendar.
type group struct {
	words int      // bitmask words per slot
	slots []uint64 // wheelSlots × words: the wheel
	due   []int64  // per component: next cycle it must be visited
}

func newGroup(n int) group {
	w := (n + 63) / 64
	return group{words: w, slots: make([]uint64, wheelSlots*w), due: make([]int64, n)}
}

func newCalendar(cores, slices int) calendar {
	return calendar{cores: newGroup(cores), slices: newGroup(slices)}
}

// reset makes every component due at cycle 0.
func (c *calendar) reset() {
	c.cores.reset()
	c.slices.reset()
}

func (g *group) reset() {
	clear(g.slots)
	for i := range g.due {
		g.due[i] = math.MaxInt64
		g.wake(i, 0)
	}
}

// wake makes component i due no later than cycle t.
func (g *group) wake(i int, t int64) {
	if t >= g.due[i] {
		return
	}
	g.due[i] = t
	g.slots[int(t&(wheelSlots-1))*g.words+i>>6] |= 1 << (i & 63)
}

// wakeAll makes every component in set due no later than cycle t.
func (g *group) wakeAll(set bitset, t int64) {
	for w, b := range set {
		for ; b != 0; b &= b - 1 {
			g.wake(w<<6|bits.TrailingZeros64(b), t)
		}
	}
}

// take removes and returns word w of the components due at cycle now;
// the visit that follows clears and re-arms each one's due cycle. Bits
// of components due in a later revolution stay in the slot; stale bits
// are dropped.
func (g *group) take(now int64, w int) uint64 {
	s := int(now & (wheelSlots - 1))
	word := &g.slots[s*g.words+w]
	var run, keep uint64
	for b := *word; b != 0; b &= b - 1 {
		k := bits.TrailingZeros64(b)
		switch d := g.due[w<<6|k]; {
		case d == now:
			run |= 1 << k
		case d > now && int(d&(wheelSlots-1)) == s:
			keep |= 1 << k
		}
	}
	*word = keep
	return run
}

// busy reports whether cycle t's slot holds any bit (possibly a stale
// one or a later revolution's: a cheap early "tick next cycle").
func (g *group) busy(t int64) bool {
	s := int(t&(wheelSlots-1)) * g.words
	for _, b := range g.slots[s : s+g.words] {
		if b != 0 {
			return true
		}
	}
	return false
}

// next returns the earliest due cycle of the group.
func (g *group) next() int64 {
	h := int64(math.MaxInt64)
	for _, d := range g.due {
		if d < h {
			h = d
		}
	}
	return h
}

// bitset is a set of component indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

func (b bitset) put(i int, in bool) {
	if in {
		b[i>>6] |= 1 << (i & 63)
	} else {
		b[i>>6] &^= 1 << (i & 63)
	}
}
