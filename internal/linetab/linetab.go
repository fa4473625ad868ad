// Package linetab is the simulator's per-line bookkeeping table: an
// open-addressing hash table keyed by cache-line address. It backs the
// three small line-indexed structures of the cycle loop — the
// hit_buffer's occurrence counts (arbiter), the LLC response queue's
// resident-line counts (llc) and the L1 in-flight miss merge table
// (vcore) — which Go maps would otherwise serve at a hash-map call per
// access.
//
// Slots are probed linearly from a multiplicative hash of the line and
// deletion shifts the probe run back into the hole, so there are no
// tombstones and a lookup never scans past the run its key hashes to.
// A table is sized from the bound its owner's hardware structure puts
// on live lines and kept at most half full: it doubles only when a
// caller outgrows that size, and keeps its slots across Clear, so the
// cycle loop of a reused engine allocates nothing. Nothing iterates a
// table, so slot order can never reach a simulated result.
package linetab

// maxPrealloc caps the slots allocated up front. The L1 miss table's
// bound (NumWindows × WindowDepth, 512 lines at Table 5) is far above
// what a core keeps in flight (about 200 at most in the Fig. 9 runs),
// so past 256 lines it grows on demand rather than every core carrying
// a mostly empty table.
const maxPrealloc = 1 << 9

type slot[V any] struct {
	line uint64
	used bool
	val  V
}

// Table maps line addresses to values of type V. The zero value is
// unusable; call New.
type Table[V any] struct {
	slots []slot[V]
	shift uint // 64 - log2(len(slots)): the hash keeps the top bits
	n     int
}

// New returns a table sized to hold bound live lines without growing
// (up to maxPrealloc/2 of them; a larger bound grows on demand).
func New[V any](bound int) *Table[V] {
	t := &Table[V]{}
	size := 8
	for size < 2*bound && size < maxPrealloc {
		size <<= 1
	}
	t.alloc(size)
	return t
}

func (t *Table[V]) alloc(size int) {
	t.slots = make([]slot[V], size)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
}

// home is the slot a line's probe run starts at (Fibonacci hashing:
// sequential line addresses spread across the table).
func (t *Table[V]) home(line uint64) int {
	return int((line * 0x9E3779B97F4A7C15) >> t.shift)
}

// Len returns the number of lines present.
func (t *Table[V]) Len() int { return t.n }

// find returns the slot holding line, or -1 when line is absent.
func (t *Table[V]) find(line uint64) int {
	mask := len(t.slots) - 1
	for i := t.home(line); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.used {
			return -1
		}
		if s.line == line {
			return i
		}
	}
}

// Find returns a pointer to line's value, or nil when line is absent.
// The pointer is valid until the next Insert or Delete.
func (t *Table[V]) Find(line uint64) *V {
	if i := t.find(line); i >= 0 {
		return &t.slots[i].val
	}
	return nil
}

// Insert returns a pointer to line's value, adding line with the zero
// value when absent. The pointer is valid until the next Insert or
// Delete.
func (t *Table[V]) Insert(line uint64) *V {
	mask := len(t.slots) - 1
	i := t.home(line)
	for ; t.slots[i].used; i = (i + 1) & mask {
		if t.slots[i].line == line {
			return &t.slots[i].val
		}
	}
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
		return t.Insert(line)
	}
	s := &t.slots[i]
	s.line, s.used = line, true
	t.n++
	return &s.val
}

// grow doubles the table, rehashing every line.
func (t *Table[V]) grow() {
	old := t.slots
	t.alloc(2 * len(old))
	mask := len(t.slots) - 1
	for _, s := range old {
		if !s.used {
			continue
		}
		i := t.home(s.line)
		for t.slots[i].used {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// Delete removes line, returning its value and whether it was present.
func (t *Table[V]) Delete(line uint64) (V, bool) {
	i := t.find(line)
	if i < 0 {
		var zero V
		return zero, false
	}
	v := t.slots[i].val
	t.deleteAt(i)
	return v, true
}

// deleteAt empties slot hole. Every later line of the probe run whose
// home does not lie between the hole and itself moves back into the
// hole, which keeps each run contiguous without tombstones.
func (t *Table[V]) deleteAt(hole int) {
	mask := len(t.slots) - 1
	for j := (hole + 1) & mask; t.slots[j].used; j = (j + 1) & mask {
		if h := t.home(t.slots[j].line); (j-h)&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = slot[V]{}
	t.n--
}

// Clear removes every line, keeping the slot array.
func (t *Table[V]) Clear() {
	if t.n > 0 {
		clear(t.slots)
		t.n = 0
	}
}

// Counts is a multiset of line addresses: how many times each line is
// currently held by a bounded FIFO.
type Counts struct {
	t *Table[int32]
}

// NewCounts returns a multiset sized for bound distinct lines.
func NewCounts(bound int) Counts { return Counts{New[int32](bound)} }

// Add records one more occurrence of line.
func (c Counts) Add(line uint64) { *c.t.Insert(line)++ }

// Remove drops one occurrence of line, forgetting the line at zero.
func (c Counts) Remove(line uint64) {
	i := c.t.find(line)
	switch {
	case i < 0:
	case c.t.slots[i].val <= 1:
		c.t.deleteAt(i)
	default:
		c.t.slots[i].val--
	}
}

// Has reports whether line occurs at least once.
func (c Counts) Has(line uint64) bool { return c.t.Find(line) != nil }

// Clear forgets every line.
func (c Counts) Clear() { c.t.Clear() }
