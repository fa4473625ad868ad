// Package cache implements the set-associative cache storage model
// used for both the private L1 caches and the L2/LLC slices. It
// supports the policy knobs Section 5 of the paper adds to the
// simulator frontend: allocate-on-miss vs allocate-on-fill,
// write-allocate vs write-no-allocate, write-back vs write-through,
// and a streaming insertion hint for L1 caches that see no temporal
// reuse on the KV stream.
//
// The model tracks tags and replacement state only; no data payloads
// are simulated (the simulator is trace-driven and timing-focused).
package cache

import "fmt"

// AllocPolicy selects when a line is installed in storage.
type AllocPolicy uint8

// Allocation policies.
const (
	AllocOnMiss AllocPolicy = iota // reserve the way at miss time
	AllocOnFill                    // install only when the fill returns
)

// WritePolicy combines write-hit and write-miss handling.
type WritePolicy struct {
	WriteAllocate bool // write misses fetch + install the line
	WriteBack     bool // dirty lines written back on eviction; else write-through
}

// Config describes one cache.
type Config struct {
	SizeBytes int
	LineBytes int
	Assoc     int
	Alloc     AllocPolicy
	Write     WritePolicy
	// Streaming inserts clean load fills at LRU position instead of
	// MRU, modelling the L1 "streaming" hint of Table 5: the KV
	// stream has no L1 temporal reuse, so it should not displace Q.
	Streaming bool
}

// Validate checks structural parameters.
func (c Config) Validate() error {
	switch {
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache: LineBytes must be a positive power of two, got %d", c.LineBytes)
	case c.Assoc <= 0:
		return fmt.Errorf("cache: Assoc must be positive, got %d", c.Assoc)
	case c.SizeBytes <= 0 || c.SizeBytes%(c.LineBytes*c.Assoc) != 0:
		return fmt.Errorf("cache: SizeBytes %d not divisible into %d-way sets of %d-byte lines",
			c.SizeBytes, c.Assoc, c.LineBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d must be a power of two", sets)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Assoc) }

// wayState is a way's state beside its tag.
type wayState struct {
	lru   uint64 // larger = more recently used
	valid bool
	dirty bool
}

// Cache is a tag/replacement model. Lookups and fills take line
// addresses (byte address >> log2(LineBytes)). Not safe for concurrent
// use; the engine is single-threaded.
//
// Set s owns ways [s×Assoc, (s+1)×Assoc) of two parallel arrays: the
// tags, so a lookup compares one contiguous run of line addresses, and
// the way state it reads only on a tag match or a fill.
type Cache struct {
	cfg      Config
	tags     []uint64
	ways     []wayState
	setMask  uint64
	lruClock uint64

	// IndexShift drops the low line-address bits from set selection;
	// LLC slices set it to their slice-interleave bit count, since a
	// slice sees only every NumSlices-th line. Zero (the L1) indexes
	// sets by the low line-address bits.
	IndexShift uint

	// Counters.
	Lookups        int64
	Hits           int64
	Misses         int64
	Evictions      int64
	DirtyEvictions int64
}

// New builds a cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Sets()
	return &Cache{
		cfg:     cfg,
		tags:    make([]uint64, n*cfg.Assoc),
		ways:    make([]wayState, n*cfg.Assoc),
		setMask: uint64(n - 1),
	}, nil
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// set returns the bounds [lo, hi) of line's set in tags and ways.
func (c *Cache) set(line uint64) (lo, hi int) {
	lo = int(line>>c.IndexShift&c.setMask) * c.cfg.Assoc
	return lo, lo + c.cfg.Assoc
}

// find returns the index of line's valid way, or -1 when line is not
// resident.
func (c *Cache) find(line uint64) int {
	lo, hi := c.set(line)
	for i, tag := range c.tags[lo:hi] {
		if tag == line && c.ways[lo+i].valid {
			return lo + i
		}
	}
	return -1
}

// Probe reports whether line is resident without touching replacement
// state or counters.
func (c *Cache) Probe(line uint64) bool { return c.find(line) >= 0 }

// Access performs a demand lookup. On a hit the replacement state is
// updated and, for writes under write-back, the line is marked dirty.
// The caller decides what a miss means (MSHR, fill, bypass).
func (c *Cache) Access(line uint64, write bool) (hit bool) {
	c.Lookups++
	i := c.find(line)
	if i < 0 {
		c.Misses++
		return false
	}
	c.Hits++
	c.lruClock++
	w := &c.ways[i]
	w.lru = c.lruClock
	if write && c.cfg.Write.WriteBack {
		w.dirty = true
	}
	return true
}

// AccountMisses bulk-records n repeated missing lookups without
// touching storage state. The engine's fast-forward path uses it to
// keep the diagnostic hit-rate counters identical to a per-cycle run
// in which a blocked window re-probes the same absent line every
// cycle (a miss lookup mutates nothing but these counters).
func (c *Cache) AccountMisses(n int64) {
	c.Lookups += n
	c.Misses += n
}

// Fill installs line into the cache, evicting the LRU way if the set
// is full. It returns the evicted line and whether that line was
// dirty (needs a writeback). dirty marks the incoming line dirty
// (write-allocate fill under write-back).
//
// Under the Streaming hint, clean fills are inserted at LRU position
// so that a once-read stream evicts itself rather than reused data.
func (c *Cache) Fill(line uint64, dirty bool) (victim uint64, victimDirty bool, evicted bool) {
	lo, hi := c.set(line)
	tags, set := c.tags[lo:hi], c.ways[lo:hi]
	// One pass gathers everything the fill can need: presence, the
	// first free way, the LRU victim and the minimum resident LRU (for
	// the streaming insertion position).
	free := -1
	lruSlot := 0
	minLRU := ^uint64(0)
	for i := range set {
		w := &set[i]
		if !w.valid {
			if free < 0 {
				free = i
			}
			continue
		}
		if tags[i] == line {
			// Already present (e.g. a racing fill): refresh state only.
			if dirty {
				w.dirty = true
			}
			return 0, false, false
		}
		if w.lru < set[lruSlot].lru || !set[lruSlot].valid {
			lruSlot = i
		}
		if w.lru < minLRU {
			minLRU = w.lru
		}
	}
	slot := free
	if slot < 0 {
		// Evict LRU. minLRU currently includes the victim; the
		// streaming insertion position must exclude it, recomputed
		// below only when needed.
		slot = lruSlot
		victim = tags[slot]
		victimDirty = set[slot].dirty
		evicted = true
		c.Evictions++
		if victimDirty {
			c.DirtyEvictions++
		}
	}
	c.lruClock++
	pos := c.lruClock
	if c.cfg.Streaming && !dirty {
		// Insert at LRU: use a position older than every resident way
		// (excluding the slot being replaced).
		if evicted {
			minLRU = ^uint64(0)
			for i := range set {
				if set[i].valid && i != slot && set[i].lru < minLRU {
					minLRU = set[i].lru
				}
			}
		}
		if minLRU != ^uint64(0) {
			if minLRU > 0 {
				pos = minLRU - 1
			} else {
				pos = 0
			}
		}
	}
	tags[slot] = line
	set[slot] = wayState{lru: pos, valid: true, dirty: dirty}
	return victim, victimDirty, evicted
}

// Invalidate removes line if present, returning whether it was dirty.
func (c *Cache) Invalidate(line uint64) (wasDirty, wasPresent bool) {
	i := c.find(line)
	if i < 0 {
		return false, false
	}
	w := &c.ways[i]
	wasDirty = w.dirty
	w.valid = false
	w.dirty = false
	return wasDirty, true
}

// Reset rewinds the cache to its just-constructed state — every way
// invalidated, the replacement clock and the diagnostic counters
// zeroed — without touching the backing storage, so a resettable
// engine can reuse the allocation across runs.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.ways)
	c.lruClock = 0
	c.Lookups = 0
	c.Hits = 0
	c.Misses = 0
	c.Evictions = 0
	c.DirtyEvictions = 0
}

// Occupancy returns the number of valid lines; a test/diagnostic hook.
func (c *Cache) Occupancy() int {
	n := 0
	for i := range c.ways {
		if c.ways[i].valid {
			n++
		}
	}
	return n
}

// HitRate returns Hits/Lookups, 0 when no lookups happened.
func (c *Cache) HitRate() float64 {
	if c.Lookups == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Lookups)
}
