// The session prefix cache: capacity-bounded retention of retired
// requests' KV, keyed by session, evicted LRU. It models the KV-block
// sharing of production prefix caches at the granularity this
// simulator works in — whole token counts per session.
//
// Physical legitimacy: a prefill pass's K region is byte-identical to
// the decode-phase AddressMap K region at the same stream base (the
// PrefillAddressMap coincidence the prefill tests pin), so a stream
// that starts from a cached kvLen-token prefix touches exactly the
// lines a full prefill would have produced — skipping the shared
// chunks is an accounting change, not an address-space fiction.
//
// Lifecycle:
//
//   - Retirement: the finished stream's final KV (PromptLen +
//     DecodeTokens) is retained under its session, replacing the
//     session's previous entry and evicting least-recently-used
//     sessions until it fits. An entry larger than the whole capacity
//     is not retained.
//   - Admission: a request carrying PrefixLen > 0 looks its session
//     up. The usable prefix is min(retained, PrefixLen), taken only
//     when it reaches the decode mapping floor (minKVLen); on a hit
//     the stream is born with kvLen = usable, owes only the remaining
//     prompt suffix as prefill, and reserves only suffix + decode
//     tokens against the KV capacity gate. The entry stays resident
//     (shared, LRU-refreshed): later turns of the same session can
//     hit it again.
//   - Preemption: an evicted stream's suffix KV is dropped with its
//     reservation, exactly like the recompute-on-preempt contract; the
//     cache entry it hit (if any) is unaffected. Re-admission
//     RE-VALIDATES against the cache explicitly — a fresh lookup at
//     that moment decides how much prefix the recompute prefill may
//     skip, so an entry evicted in between simply costs the full
//     recompute.
//
// With PrefixCacheTokens == 0 no prefixCache is constructed and the
// engine takes none of these paths — bit-identical to the
// pre-prefix-cache engine.

package serving

// prefixEntry is one session's retained KV in the LRU list.
type prefixEntry struct {
	session    int
	tokens     int64
	prev, next *prefixEntry // LRU neighbours; head = most recent
}

// prefixCache is the per-engine session prefix cache.
type prefixCache struct {
	cap     int64
	used    int64
	entries map[int]*prefixEntry
	head    *prefixEntry // most recently used
	tail    *prefixEntry // least recently used
}

func newPrefixCache(capTokens int64) *prefixCache {
	return &prefixCache{cap: capTokens, entries: make(map[int]*prefixEntry)}
}

// reset empties the cache and sets its capacity, keeping its map.
func (c *prefixCache) reset(capTokens int64) {
	clear(c.entries)
	c.cap, c.used, c.head, c.tail = capTokens, 0, nil, nil
}

// lookup returns the usable prefix tokens for a request of the given
// session carrying prefixLen shared tokens: min(retained, prefixLen),
// or 0 when the session has no entry or the overlap is below the
// decode mapping floor. Read-only — commit applies the LRU refresh
// once the admission actually happens.
func (c *prefixCache) lookup(session, prefixLen int) int {
	e, ok := c.entries[session]
	if !ok {
		return 0
	}
	usable := int64(prefixLen)
	if e.tokens < usable {
		usable = e.tokens
	}
	if usable < minKVLen {
		return 0
	}
	return int(usable)
}

// commit marks the session's entry most-recently-used after a hit.
func (c *prefixCache) commit(session int) {
	if e, ok := c.entries[session]; ok {
		c.moveToFront(e)
	}
}

// insert retains tokens of KV for the session, replacing its previous
// entry and evicting LRU sessions until the cache fits. A value larger
// than the whole capacity is not retained (and drops the session's
// stale entry, which the new conversation state has superseded).
func (c *prefixCache) insert(session int, tokens int64) {
	if e, ok := c.entries[session]; ok {
		c.remove(e)
	}
	if tokens <= 0 || tokens > c.cap {
		return
	}
	for c.used+tokens > c.cap && c.tail != nil {
		c.remove(c.tail)
	}
	e := &prefixEntry{session: session, tokens: tokens}
	c.entries[session] = e
	c.used += tokens
	c.pushFront(e)
}

// cached returns the retained KV tokens for a session (0 when absent)
// — the router's per-node prefix-locality observation.
func (c *prefixCache) cached(session int) int64 {
	if e, ok := c.entries[session]; ok {
		return e.tokens
	}
	return 0
}

func (c *prefixCache) pushFront(e *prefixEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *prefixCache) remove(e *prefixEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
	c.used -= e.tokens
	delete(c.entries, e.session)
}

func (c *prefixCache) moveToFront(e *prefixEntry) {
	if c.head == e {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	c.pushFront(e)
}
