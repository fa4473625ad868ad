package linetab

import (
	"math/rand"
	"testing"
)

// collide returns n distinct lines whose probe runs all start at the
// same home slot.
func collide(t *Table[int], home, n int) []uint64 {
	var lines []uint64
	for l := uint64(0); len(lines) < n; l++ {
		if t.home(l) == home {
			lines = append(lines, l)
		}
	}
	return lines
}

// A probe run that wraps past the last slot must survive deleting its
// head: the entries stored at slots 0.. move back across the end into
// the hole, and every line stays findable.
func TestDeleteWrapsPastEnd(t *testing.T) {
	tab := New[int](4) // 8 slots
	last := len(tab.slots) - 1
	lines := collide(tab, last, 3)
	for i, l := range lines {
		*tab.Insert(l) = i + 1
	}
	if !tab.slots[last].used || !tab.slots[0].used || !tab.slots[1].used {
		t.Fatal("run did not wrap past the end")
	}
	if v, ok := tab.Delete(lines[0]); !ok || v != 1 {
		t.Fatalf("Delete = %d, %v; want 1, true", v, ok)
	}
	if tab.Find(lines[0]) != nil {
		t.Fatal("deleted line still found")
	}
	for i, l := range lines[1:] {
		if v := tab.Find(l); v == nil || *v != i+2 {
			t.Fatalf("line %d lost after wrapped delete", l)
		}
	}
	if tab.slots[1].used {
		t.Fatal("run not shifted back into the hole")
	}
	if tab.Len() != 2 {
		t.Fatalf("Len=%d want 2", tab.Len())
	}
}

// A line whose home lies inside the run between the hole and itself
// must not move into the hole.
func TestDeleteKeepsLineAtHome(t *testing.T) {
	tab := New[int](4)
	a := collide(tab, 2, 2) // homes 2, 2 -> slots 2, 3
	b := collide(tab, 4, 1) // home 4 -> slot 4
	for _, l := range append(a, b...) {
		tab.Insert(l)
	}
	tab.Delete(a[0]) // a[1] shifts to 2; b stays at 4
	if tab.Find(a[1]) == nil || tab.Find(b[0]) == nil {
		t.Fatal("line lost")
	}
	if tab.slots[4].line != b[0] || !tab.slots[4].used {
		t.Fatal("line moved away from its home slot")
	}
}

func TestClear(t *testing.T) {
	tab := New[int](8)
	for l := uint64(0); l < 8; l++ {
		*tab.Insert(l) = 7
	}
	tab.Clear()
	if tab.Len() != 0 {
		t.Fatalf("Len=%d after Clear", tab.Len())
	}
	for l := uint64(0); l < 8; l++ {
		if tab.Find(l) != nil {
			t.Fatalf("line %d survives Clear", l)
		}
		if v := tab.Insert(l); *v != 0 {
			t.Fatalf("re-inserted line %d holds stale value %d", l, *v)
		}
	}
	tab.Clear()
	tab.Clear() // empty Clear is a no-op
}

// Filling a table to its bound never grows it; one line past the bound
// doubles it and keeps every line.
func TestBound(t *testing.T) {
	const bound = 32
	tab := New[int](bound)
	size := len(tab.slots)
	for l := uint64(0); l < bound; l++ {
		*tab.Insert(l * 64) = int(l)
	}
	if len(tab.slots) != size {
		t.Fatalf("table grew within its bound: %d -> %d slots", size, len(tab.slots))
	}
	if n := testing.AllocsPerRun(100, func() {
		tab.Delete(0)
		tab.Insert(0)
		tab.Find(64)
	}); n != 0 {
		t.Fatalf("steady-state use allocates %v times per op", n)
	}
	*tab.Insert(bound * 64) = bound
	if len(tab.slots) != 2*size {
		t.Fatalf("slots=%d after exceeding the bound, want %d", len(tab.slots), 2*size)
	}
	for l := uint64(0); l <= bound; l++ {
		if v := tab.Find(l * 64); v == nil || *v != int(l) {
			t.Fatalf("line %d lost in growth", l*64)
		}
	}
	// An outsized bound preallocates only maxPrealloc slots.
	if big := New[int](1 << 30); len(big.slots) != maxPrealloc {
		t.Fatalf("outsized bound preallocated %d slots", len(big.slots))
	}
}

// Random inserts and deletes agree with a map model.
func TestMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := New[int](16)
	model := map[uint64]int{}
	for step := 0; step < 20000; step++ {
		l := uint64(rng.Intn(48))
		switch rng.Intn(3) {
		case 0, 1:
			if len(model) < 40 {
				*tab.Insert(l) += step
				model[l] += step
			}
		default:
			v, ok := tab.Delete(l)
			if want, in := model[l]; ok != in || v != want {
				t.Fatalf("step %d: Delete(%d) = %d, %v; model %d, %v", step, l, v, ok, want, in)
			}
			delete(model, l)
		}
		if tab.Len() != len(model) {
			t.Fatalf("step %d: Len=%d model=%d", step, tab.Len(), len(model))
		}
	}
	for l := uint64(0); l < 48; l++ {
		v := tab.Find(l)
		want, ok := model[l]
		if (v != nil) != ok || (ok && *v != want) {
			t.Fatalf("line %d: table %v model %d/%v", l, v, want, ok)
		}
	}
}

func TestCounts(t *testing.T) {
	c := NewCounts(4)
	c.Add(5)
	c.Add(5)
	c.Add(9)
	c.Remove(5)
	if !c.Has(5) || !c.Has(9) {
		t.Fatal("line dropped before its last occurrence")
	}
	c.Remove(5)
	c.Remove(7) // absent: no-op
	if c.Has(5) {
		t.Fatal("line kept after its last occurrence")
	}
	c.Clear()
	if c.Has(9) {
		t.Fatal("line survives Clear")
	}
}
