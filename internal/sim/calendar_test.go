package sim

import "testing"

// A wake further out than the wheel waits in its slot through earlier
// revolutions; a wake superseded by a nearer one leaves a stale bit
// that its slot drops.
func TestCalendarRevolutionsAndStaleBits(t *testing.T) {
	g := newGroup(70) // two bitmask words
	for i := range g.due {
		g.due[i] = 1 << 62
	}
	far := int64(3*wheelSlots + 5)
	g.wake(66, far)
	for now := int64(5); now < far; now += wheelSlots {
		if run := g.take(now, 1); run != 0 {
			t.Fatalf("cycle %d: far wake taken early (%b)", now, run)
		}
	}
	if run := g.take(far, 1); run != 1<<2 {
		t.Fatalf("cycle %d: far wake not taken (%b)", far, run)
	}

	g.wake(3, 40)
	g.wake(3, 20) // a nearer wake supersedes it
	if !g.busy(40) || g.next() != 20 {
		t.Fatalf("next=%d, want 20 with a stale bit at 40", g.next())
	}
	if run := g.take(20, 0); run != 1<<3 {
		t.Fatalf("cycle 20: took %b", run)
	}
	g.due[3] = 1 << 62 // visited; re-armed beyond 40
	g.wake(3, 90)
	if run := g.take(40, 0); run != 0 || g.busy(40) {
		t.Fatal("stale bit at cycle 40 was taken or kept")
	}
	if run := g.take(90, 0); run != 1<<3 {
		t.Fatalf("cycle 90: took %b", run)
	}
}
