package pool

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachRunsEveryIndex: every index runs exactly once at any
// width, including widths above n and below 1.
func TestForEachRunsEveryIndex(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 3, 8, 100} {
		var hits [17]int32
		err := ForEach(len(hits), workers, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

// TestForEachFirstErrorInInputOrder: the reported error is the
// lowest-index failure, not whichever worker lost the race — and the
// remaining indices still run.
func TestForEachFirstErrorInInputOrder(t *testing.T) {
	var ran int32
	err := ForEach(10, 4, func(i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 3 || i == 7 {
			return fmt.Errorf("fail %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail 3" {
		t.Fatalf("err = %v, want the input-order first failure 'fail 3'", err)
	}
	if ran != 10 {
		t.Fatalf("%d indices ran, want all 10", ran)
	}
}

// TestForEachZeroN: an empty input is a no-op.
func TestForEachZeroN(t *testing.T) {
	if err := ForEach(0, 4, func(int) error { return fmt.Errorf("boom") }); err != nil {
		t.Fatal(err)
	}
}

// TestForEachCallerIsAWorker: width w starts w-1 goroutines and the
// caller works the remaining share, so one unit (or width 1) starts
// none. Every call blocks until all w are in flight, so each worker
// holds exactly one index when the goroutines are counted.
func TestForEachCallerIsAWorker(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, workers := range []int{1, 2, 3, 4} {
		// The previous width's goroutines may still be exiting.
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		before := runtime.NumGoroutine()
		var arrived sync.WaitGroup
		arrived.Add(workers)
		extra := make([]int, workers)
		err := ForEach(workers, workers, func(i int) error {
			arrived.Done()
			arrived.Wait()
			extra[i] = runtime.NumGoroutine() - before
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := slices.Max(extra); got != workers-1 {
			t.Errorf("width %d ran beside %d extra goroutines, want %d", workers, got, workers-1)
		}
	}
}
