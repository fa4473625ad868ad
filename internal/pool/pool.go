// Package pool provides the bounded deterministic worker pool that
// fans independent simulation units across goroutines: the experiment
// grids run matrix cells on it, and the cluster router advances its
// per-node serving engines on it. The calling goroutine is one of the
// workers: a pool of width w starts w-1 goroutines, so a single unit
// (or width 1) runs on the caller with no goroutine at all. Each unit
// writes only its own result slot, so output order — and therefore
// every figure, table and cluster metric — is independent of the
// worker count.
package pool

import (
	"sync"
	"sync/atomic"
)

// ForEach runs fn(0..n-1) across a bounded worker pool of the given
// width and returns the first error in input order (every index still
// runs). Width is clamped to [1, n]; the caller works one share and
// width-1 further goroutines the rest, each taking the next unstarted
// index. Width 1 is a plain serial loop.
func ForEach(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			errs[i] = fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
