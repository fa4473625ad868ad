package mshr

import (
	"testing"
	"testing/quick"
)

func tgt(id int64) Target { return Target{ReqID: id, Core: int(id % 16)} }

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 8); err == nil {
		t.Fatal("numEntry=0 accepted")
	}
	if _, err := New(6, 0); err == nil {
		t.Fatal("numTarget=0 accepted")
	}
	m, err := New(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumEntry() != 6 || m.NumTarget() != 8 {
		t.Fatalf("geometry %dx%d", m.NumEntry(), m.NumTarget())
	}
}

func TestAllocAndMerge(t *testing.T) {
	m, _ := New(2, 2)
	res, idx := m.Reserve(100, tgt(1))
	if res != ResultNewEntry || idx < 0 {
		t.Fatalf("first reserve: %v %d", res, idx)
	}
	if m.Used() != 1 {
		t.Fatalf("used=%d", m.Used())
	}
	// Same line merges; numTarget counts only merged secondaries.
	for i := int64(2); i <= 3; i++ {
		res, _ := m.Reserve(100, tgt(i))
		if res != ResultMerged {
			t.Fatalf("merge %d: %v", i, res)
		}
	}
	// Third secondary exceeds numTarget=2.
	res, _ = m.Reserve(100, tgt(4))
	if res != ResultFullTarget {
		t.Fatalf("want full-target, got %v", res)
	}
	if m.Used() != 1 {
		t.Fatalf("target-full changed used: %d", m.Used())
	}
}

func TestEntryExhaustion(t *testing.T) {
	m, _ := New(2, 8)
	m.Reserve(1, tgt(1))
	m.Reserve(2, tgt(2))
	res, _ := m.Reserve(3, tgt(3))
	if res != ResultFullEntry {
		t.Fatalf("want full-entry, got %v", res)
	}
}

func TestReleaseReturnsPrimaryAndTargets(t *testing.T) {
	m, _ := New(2, 4)
	m.Reserve(100, tgt(1))
	m.Reserve(100, tgt(2))
	m.Reserve(100, tgt(3))
	targets, ok := m.Release(100)
	if !ok {
		t.Fatal("release failed")
	}
	if len(targets) != 3 {
		t.Fatalf("released %d targets, want 3 (primary + 2 merges)", len(targets))
	}
	if targets[0].ReqID != 1 {
		t.Fatalf("primary must come first, got %d", targets[0].ReqID)
	}
	if m.Used() != 0 {
		t.Fatalf("used=%d after release", m.Used())
	}
	if _, ok := m.Release(100); ok {
		t.Fatal("double release succeeded")
	}
}

func TestEntryReuseAfterRelease(t *testing.T) {
	m, _ := New(1, 2)
	m.Reserve(1, tgt(1))
	m.Release(1)
	res, _ := m.Reserve(2, tgt(2))
	if res != ResultNewEntry {
		t.Fatalf("entry not reusable: %v", res)
	}
	targets, _ := m.Release(2)
	if len(targets) != 1 || targets[0].ReqID != 2 {
		t.Fatalf("stale targets after reuse: %+v", targets)
	}
}

func TestTargetsFree(t *testing.T) {
	m, _ := New(2, 3)
	if m.TargetsFree(5) != 3 {
		t.Fatal("free line should report full capacity")
	}
	m.Reserve(5, tgt(1))
	if m.TargetsFree(5) != 3 {
		t.Fatalf("primary must not consume target slots: %d", m.TargetsFree(5))
	}
	m.Reserve(5, tgt(2))
	if m.TargetsFree(5) != 2 {
		t.Fatalf("TargetsFree=%d", m.TargetsFree(5))
	}
}

func TestResultString(t *testing.T) {
	for _, r := range []Result{ResultNewEntry, ResultMerged, ResultFullEntry, ResultFullTarget} {
		if r.String() == "" {
			t.Fatal("empty result string")
		}
	}
}

// Invariants under random operation sequences: used == live entries,
// lookup agrees with reserve behaviour.
func TestQuickInvariants(t *testing.T) {
	type op struct {
		Line    uint8
		Release bool
	}
	check := func(ops []op) bool {
		m, _ := New(4, 3)
		live := map[uint64]int{} // line -> total requests registered
		for i, o := range ops {
			line := uint64(o.Line % 8)
			if o.Release {
				targets, ok := m.Release(line)
				_, wasLive := live[line]
				if ok != wasLive {
					return false
				}
				if ok {
					if len(targets) != live[line] {
						return false
					}
					delete(live, line)
				}
				continue
			}
			res, _ := m.Reserve(line, tgt(int64(i)))
			switch res {
			case ResultNewEntry:
				if _, wasLive := live[line]; wasLive {
					return false // duplicate entry for same line
				}
				live[line] = 1
			case ResultMerged:
				if live[line] == 0 || live[line] > 3 {
					return false
				}
				live[line]++
			case ResultFullEntry:
				if len(live) != 4 {
					return false
				}
			case ResultFullTarget:
				if live[line] != 4 { // primary + numTarget
					return false
				}
			}
			if m.Used() != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
