package memreq

import "testing"

func TestPoolReuseAndIDs(t *testing.T) {
	var p Pool
	a := p.Get()
	b := p.Get()
	if a.ID == b.ID {
		t.Fatal("IDs must be unique")
	}
	if a.ID == 0 || b.ID == 0 {
		t.Fatal("IDs must be non-zero")
	}
	a.Line = 42
	a.Core = 3
	p.Put(a)
	c := p.Get()
	if c != a {
		t.Fatal("pool should reuse returned requests")
	}
	if c.Line != 0 || c.Core != 0 {
		t.Fatalf("reused request not reset: %+v", c)
	}
	if c.ID <= b.ID {
		t.Fatalf("reused request must get a fresh ID: %d <= %d", c.ID, b.ID)
	}
}

func TestPoolOutstanding(t *testing.T) {
	var p Pool
	if p.Outstanding() != 0 {
		t.Fatal("fresh pool outstanding != 0")
	}
	a := p.Get()
	b := p.Get()
	if p.Outstanding() != 2 {
		t.Fatalf("outstanding=%d want 2", p.Outstanding())
	}
	p.Put(a)
	if p.Outstanding() != 1 {
		t.Fatalf("outstanding=%d want 1", p.Outstanding())
	}
	p.Put(b)
	if p.Outstanding() != 0 {
		t.Fatalf("outstanding=%d want 0", p.Outstanding())
	}
	// Reuse keeps the accounting balanced.
	c := p.Get()
	p.Put(c)
	if p.Outstanding() != 0 {
		t.Fatalf("outstanding after reuse=%d want 0", p.Outstanding())
	}
	p.Put(nil) // must be a no-op
	if p.Outstanding() != 0 {
		t.Fatal("Put(nil) changed accounting")
	}
}
