// Package mshr models the Miss Status Holding Registers of an LLC
// slice — the structure Section 2.4 of the paper identifies as the
// bottleneck of LLM decoding. An MSHR file has two dimensions:
//
//   - numEntry: distinct outstanding cache misses (each entry owns one
//     in-flight DRAM transaction);
//   - numTarget: requests merged onto one entry (an "MSHR hit").
//
// Reservation fails — stalling the whole cache pipeline — when either
// dimension is exhausted (no free entry for a new miss, or the matched
// entry's target list is full).
package mshr

import (
	"fmt"
	"math/bits"
)

// Target is one requester waiting on an in-flight line: enough
// information to route the data back to the issuing core.
type Target struct {
	ReqID  int64
	Core   int
	Window int
	Write  bool
	Issue  int64 // original issue cycle (latency accounting)
}

// Entry is one outstanding miss. The primary (the request that opened
// the entry) is stored in the entry itself; Targets holds only merged
// secondary requests, so numTarget counts merge capacity exactly as
// Section 2.4 defines it.
type Entry struct {
	Line    uint64
	Valid   bool
	Primary Target
	Targets []Target
}

// Result classifies a Reserve outcome.
type Result uint8

// Reserve outcomes.
const (
	ResultNewEntry   Result = iota // allocated a fresh entry (true miss)
	ResultMerged                   // merged into an existing entry (MSHR hit)
	ResultFullEntry                // no free entry: pipeline must stall
	ResultFullTarget               // matching entry's target list full: stall
)

// String implements fmt.Stringer.
func (r Result) String() string {
	switch r {
	case ResultNewEntry:
		return "new-entry"
	case ResultMerged:
		return "merged"
	case ResultFullEntry:
		return "full-entry"
	case ResultFullTarget:
		return "full-target"
	}
	return fmt.Sprintf("Result(%d)", uint8(r))
}

// MSHR is one slice's miss file. The entry array is small (Table 5:
// six entries per slice), so linear scans are both faithful to the
// CAM hardware and fast; a compact line/occupancy mirror keeps the
// scan on one cache line for the arbiter's per-request lookups.
type MSHR struct {
	entries        []Entry
	numTarget      int
	used           int
	releaseScratch []Target
	// lines/occMask mirror the valid entries' line addresses so Lookup
	// scans a dense uint64 array instead of the fat Entry structs — the
	// software analogue of the CAM's dedicated tag array. The one-word
	// mask covers files of up to 64 entries (Table 5 uses 6); larger
	// research configurations fall back to the entry scan.
	lines   []uint64
	occMask uint64
}

// New builds an MSHR file with numEntry entries of numTarget targets.
func New(numEntry, numTarget int) (*MSHR, error) {
	if numEntry <= 0 {
		return nil, fmt.Errorf("mshr: numEntry must be positive, got %d", numEntry)
	}
	if numTarget <= 0 {
		return nil, fmt.Errorf("mshr: numTarget must be positive, got %d", numTarget)
	}
	m := &MSHR{entries: make([]Entry, numEntry), numTarget: numTarget, lines: make([]uint64, numEntry)}
	for i := range m.entries {
		m.entries[i].Targets = make([]Target, 0, numTarget)
	}
	return m, nil
}

// Reset rewinds the file to its just-constructed state: every entry
// invalidated, target backing arrays kept.
func (m *MSHR) Reset() {
	for i := range m.entries {
		m.entries[i].Valid = false
		m.entries[i].Targets = m.entries[i].Targets[:0]
	}
	m.occMask = 0
	m.used = 0
}

// NumEntry returns the entry capacity.
func (m *MSHR) NumEntry() int { return len(m.entries) }

// NumTarget returns the per-entry target capacity.
func (m *MSHR) NumTarget() int { return m.numTarget }

// Used returns the number of occupied entries.
func (m *MSHR) Used() int { return m.used }

// Lookup returns the entry index holding line, or -1.
func (m *MSHR) Lookup(line uint64) int {
	if len(m.entries) > 64 {
		for i := range m.entries {
			if m.entries[i].Valid && m.entries[i].Line == line {
				return i
			}
		}
		return -1
	}
	for mask := m.occMask; mask != 0; mask &= mask - 1 {
		i := bits.TrailingZeros64(mask)
		if m.lines[i] == line {
			return i
		}
	}
	return -1
}

// View combines Lookup and TargetsFree in one scan: whether line has
// an entry, and the remaining merge capacity (full capacity when
// absent — a new entry would be allocated). The MSHR-aware arbiter
// calls both per queued request per selection; fusing them halves its
// CAM traffic.
func (m *MSHR) View(line uint64) (present bool, targetsFree int) {
	if i := m.Lookup(line); i >= 0 {
		return true, m.numTarget - len(m.entries[i].Targets)
	}
	return false, m.numTarget
}

// Reserve attempts to register a missing request: merge onto an
// existing entry for the same line, or allocate a new entry. The
// returned index is valid for ResultNewEntry and ResultMerged.
func (m *MSHR) Reserve(line uint64, tgt Target) (Result, int) {
	if i := m.Lookup(line); i >= 0 {
		e := &m.entries[i]
		if len(e.Targets) >= m.numTarget {
			return ResultFullTarget, -1
		}
		e.Targets = append(e.Targets, tgt)
		return ResultMerged, i
	}
	for i := range m.entries {
		if !m.entries[i].Valid {
			e := &m.entries[i]
			e.Line = line
			e.Valid = true
			e.Primary = tgt
			e.Targets = e.Targets[:0]
			m.lines[i] = line
			m.occMask |= 1 << uint(i)
			m.used++
			return ResultNewEntry, i
		}
	}
	return ResultFullEntry, -1
}

// Release frees the entry holding line when its fill returns and
// hands back the primary followed by the merged targets. The returned
// slice aliases internal storage and is valid until the entry is
// reused; callers consume it immediately.
func (m *MSHR) Release(line uint64) ([]Target, bool) {
	i := m.Lookup(line)
	if i < 0 {
		return nil, false
	}
	e := &m.entries[i]
	e.Valid = false
	m.occMask &^= 1 << uint(i)
	m.used--
	m.releaseScratch = m.releaseScratch[:0]
	m.releaseScratch = append(m.releaseScratch, e.Primary)
	m.releaseScratch = append(m.releaseScratch, e.Targets...)
	return m.releaseScratch, true
}

// TargetsFree returns the remaining target capacity for line: full
// capacity if no entry matches (a new entry would be allocated).
func (m *MSHR) TargetsFree(line uint64) int {
	if i := m.Lookup(line); i >= 0 {
		return m.numTarget - len(m.entries[i].Targets)
	}
	return m.numTarget
}
