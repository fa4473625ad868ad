package main

import (
	"sync"
	"time"
)

// The host is shared, and its speed drifts by tens of percent over
// minutes as other tenants load the memory system: steal time stays
// near zero, one-thread and two-thread calls slow down together, and a
// random walk over memory follows them more closely than a
// register-only loop does. Wall times from runs made minutes apart are therefore
// compared through a probe: that memory walk, timed in every full child
// right after its calls. A run's *_rel metrics are its wall times over
// its median probe time.
const (
	probeWords = 2 << 20    // per worker: 16 MiB of uint64, a power of two
	probeSteps = 45_000_000 // per worker; about 0.3 s on a quiet host
)

// hostProbe gives childProcs workers, as wide as a child's calls,
// 16 MiB each, touches all of it, then times probeSteps random
// read-modify-writes per worker.
func hostProbe() float64 {
	var mem [childProcs][]uint64
	for i := range mem {
		mem[i] = make([]uint64, probeWords)
		for j := range mem[i] {
			mem[i][j] = uint64(j)
		}
	}
	var sums [childProcs]uint64
	start := time.Now()
	var wg sync.WaitGroup
	for i := range mem {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i] = walk(mem[i], uint64(i)+1)
		}(i)
	}
	wg.Wait()
	d := time.Since(start).Seconds()
	for _, s := range sums {
		probeSink += s
	}
	return d
}

// probeSink keeps the walks' results live.
var probeSink uint64

// walk makes probeSteps xorshift-addressed read-modify-writes over mem,
// whose length is a power of two.
func walk(mem []uint64, x uint64) uint64 {
	mask := uint64(len(mem) - 1)
	var s uint64
	for i := 0; i < probeSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		s += mem[j]
		mem[(j*7)&mask] = s
	}
	return s
}

// relMetrics maps each relative end-to-end metric to the raw wall time
// it is computed from.
var relMetrics = map[string]string{"wall_rel": "wall_s", "warm_wall_rel": "warm_wall_s"}

// relative adds the relative metrics to one run's samples: every raw
// sample over the run's median probe time.
func relative(v map[string][]float64) {
	p := median(v["probe_s"])
	if p <= 0 {
		return
	}
	for rel, raw := range relMetrics {
		for _, x := range v[raw] {
			v[rel] = append(v[rel], x/p)
		}
	}
}
