package cache

import (
	"testing"
	"testing/quick"
)

func mustCache(streaming bool) (*Cache, error) {
	return New(Config{
		SizeBytes: 4 * 64 * 2, // 2 sets, 4 ways
		LineBytes: 64,
		Assoc:     4,
		Alloc:     AllocOnFill,
		Write:     WritePolicy{WriteAllocate: true, WriteBack: true},
		Streaming: streaming,
	})
}

func smallCache(t *testing.T, streaming bool) *Cache {
	t.Helper()
	c, err := mustCache(streaming)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SizeBytes: 100, LineBytes: 64, Assoc: 2},        // not divisible
		{SizeBytes: 1024, LineBytes: 60, Assoc: 2},       // line not pow2
		{SizeBytes: 1024, LineBytes: 64, Assoc: 0},       // zero assoc
		{SizeBytes: 3 * 64 * 2, LineBytes: 64, Assoc: 2}, // 3 sets, not pow2
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d validated, want error", i)
		}
	}
	good := Config{SizeBytes: 64 << 10, LineBytes: 64, Assoc: 8}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	if good.Sets() != 128 {
		t.Fatalf("Sets=%d want 128", good.Sets())
	}
}

func TestMissThenFillThenHit(t *testing.T) {
	c := smallCache(t, false)
	if c.Access(10, false) {
		t.Fatal("cold access hit")
	}
	c.Fill(10, false)
	if !c.Access(10, false) {
		t.Fatal("access after fill missed")
	}
	if !c.Probe(10) {
		t.Fatal("probe after fill missed")
	}
	if c.Lookups != 2 || c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("counters: %d/%d/%d", c.Lookups, c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache(t, false)
	// Fill set 0 (even lines land in set 0: setIndex = line & 1).
	for _, l := range []uint64{0, 2, 4, 6} {
		c.Fill(l, false)
	}
	// Touch 0 to make it MRU; 2 becomes LRU.
	c.Access(0, false)
	victim, dirty, evicted := c.Fill(8, false)
	if !evicted || victim != 2 || dirty {
		t.Fatalf("evicted=%v victim=%d dirty=%v, want LRU line 2 clean", evicted, victim, dirty)
	}
	if c.Probe(2) {
		t.Fatal("victim still resident")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := smallCache(t, false)
	c.Fill(0, false)
	c.Access(0, true) // write hit marks dirty under write-back
	for _, l := range []uint64{2, 4, 6} {
		c.Fill(l, false)
	}
	victim, dirty, evicted := c.Fill(8, false)
	if !evicted || victim != 0 || !dirty {
		t.Fatalf("want dirty eviction of line 0, got %d dirty=%v evicted=%v", victim, dirty, evicted)
	}
	if c.DirtyEvictions != 1 {
		t.Fatalf("DirtyEvictions=%d", c.DirtyEvictions)
	}
}

func TestWriteThroughNeverDirty(t *testing.T) {
	c, err := New(Config{
		SizeBytes: 4 * 64 * 2, LineBytes: 64, Assoc: 4,
		Write: WritePolicy{WriteAllocate: false, WriteBack: false},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Fill(0, false)
	c.Access(0, true)
	for _, l := range []uint64{2, 4, 6} {
		c.Fill(l, false)
	}
	_, dirty, _ := c.Fill(8, false)
	if dirty {
		t.Fatal("write-through cache produced a dirty victim")
	}
}

func TestFillDirtyFlag(t *testing.T) {
	c := smallCache(t, false)
	c.Fill(0, true) // write-allocate fill installs dirty
	for _, l := range []uint64{2, 4, 6} {
		c.Fill(l, false)
	}
	victim, dirty, _ := c.Fill(8, false)
	if victim != 0 || !dirty {
		t.Fatalf("dirty fill not preserved: victim=%d dirty=%v", victim, dirty)
	}
}

func TestStreamingInsertsAtLRU(t *testing.T) {
	c := smallCache(t, true)
	for _, l := range []uint64{0, 2, 4, 6} {
		c.Fill(l, false)
		c.Access(l, false) // promote: these are "reused" lines
	}
	// A streaming fill must evict one resident line but itself become
	// the next victim, protecting the reused lines.
	c.Fill(8, false)
	victim, _, evicted := c.Fill(10, false)
	if !evicted || victim != 8 {
		t.Fatalf("streaming line should be evicted first, victim=%d", victim)
	}
}

func TestDoubleFillNoEvict(t *testing.T) {
	c := smallCache(t, false)
	c.Fill(0, false)
	_, _, evicted := c.Fill(0, true) // racing fill refreshes, no eviction
	if evicted {
		t.Fatal("refill of resident line evicted")
	}
	// The dirty flag must stick.
	for _, l := range []uint64{2, 4, 6} {
		c.Fill(l, false)
	}
	c.Access(2, false)
	victim, dirty, _ := c.Fill(8, false)
	if victim == 0 && !dirty {
		t.Fatal("refill lost dirty flag")
	}
}

func TestInvalidate(t *testing.T) {
	c := smallCache(t, false)
	c.Fill(0, true)
	dirty, present := c.Invalidate(0)
	if !present || !dirty {
		t.Fatalf("invalidate: present=%v dirty=%v", present, dirty)
	}
	if c.Probe(0) {
		t.Fatal("line survives invalidate")
	}
	if _, present := c.Invalidate(0); present {
		t.Fatal("double invalidate reports present")
	}
}

func TestIndexShift(t *testing.T) {
	c := smallCache(t, false)
	c.IndexShift = 3
	// Lines 0 and 8 now map to different sets; 0 and 1 to the same.
	c.Fill(0, false)
	c.Fill(8, false)
	if !c.Probe(0) || !c.Probe(8) {
		t.Fatal("custom set index broke residency")
	}
}

// Occupancy never exceeds capacity and equals the number of distinct
// resident lines.
func TestOccupancyProperty(t *testing.T) {
	check := func(lines []uint16) bool {
		c, err := mustCache(false)
		if err != nil {
			return false
		}
		resident := make(map[uint64]bool)
		for _, raw := range lines {
			line := uint64(raw % 64)
			victim, _, evicted := c.Fill(line, false)
			resident[line] = true
			if evicted {
				delete(resident, victim)
			}
		}
		if c.Occupancy() > 8 { // 2 sets x 4 ways
			return false
		}
		for l := range resident {
			if !c.Probe(l) {
				return false
			}
		}
		return c.Occupancy() == len(resident)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHitRate(t *testing.T) {
	c := smallCache(t, false)
	if c.HitRate() != 0 {
		t.Fatal("hit rate of unused cache should be 0")
	}
	c.Fill(0, false)
	c.Access(0, false)
	c.Access(2, false)
	if c.HitRate() != 0.5 {
		t.Fatalf("HitRate=%v", c.HitRate())
	}
}
