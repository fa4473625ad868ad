package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// Every timed sample runs in its own child process: cold means a fresh
// process, and one child at a time keeps the load to one process on
// the host's cores.
const (
	childProcs   = 2 // GOMAXPROCS of a child, and the width of its calls
	childTimeout = 150 * time.Second
)

// childResult is what a child prints as its last line of stdout.
type childResult struct {
	// ReadyNs is the wall clock (Unix ns) when the first timed call
	// starts; set-up time is measured from the parent's exec to it.
	ReadyNs int64     `json:"ready_ns"`
	ColdS   float64   `json:"cold_s"`
	WarmS   []float64 `json:"warm_s"`
	Allocs  uint64    `json:"allocs"`
	// MaxRSSKB is the child's peak RSS after its calls, read before the
	// host probe allocates its memory; ProbeS is the probe's time.
	MaxRSSKB int64   `json:"max_rss_kb"`
	ProbeS   float64 `json:"probe_s"`
	// Ops counts cold, warm and width-check calls; Failed those that
	// returned an error, panicked or produced a mismatching output.
	Ops    int      `json:"ops"`
	Failed int      `json:"failed"`
	Errors []string `json:"errors,omitempty"`
}

func (r *childResult) fail(format string, args ...any) {
	r.Failed++
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// safeCall runs one call, turning a panic into an error.
func safeCall(c call, width int) (canon func() ([]byte, error), err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return c(width)
}

// runChild is the body of a child process: set up, one cold call, then
// w.warm identical calls (warm overrides it when >= 0), then the host
// probe. Outputs are checked against the cold call, against a width-1
// call on seeded workloads, and against the committed fingerprint where
// it applies.
func runChild(w benchWorkload, seed uint64, warm int, setupOnly bool) childResult {
	var r childResult
	c, err := w.prepare(seed)
	r.ReadyNs = time.Now().UnixNano()
	if err != nil {
		r.Ops = 1
		r.fail("set-up: %v", err)
		return r
	}
	if setupOnly {
		return r
	}
	if warm < 0 {
		warm = w.warm
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	canonFn, err := safeCall(c, childProcs)
	r.ColdS = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	r.Allocs = m1.Mallocs - m0.Mallocs
	r.Ops++
	if err != nil {
		r.fail("cold call: %v", err)
		return r
	}
	cold, err := canonFn()
	if err != nil {
		r.fail("cold output: %v", err)
		return r
	}
	if got, want := fingerprint(cold), fingerprints[w.name]; (seed == 0 || !w.seeded()) && got != want {
		r.fail("cold output fingerprint %s, committed %q", got, want)
	}
	check := func(what string, width int) float64 {
		r.Ops++
		start := time.Now()
		canonFn, err := safeCall(c, width)
		d := time.Since(start).Seconds()
		if err != nil {
			r.fail("%s call: %v", what, err)
			return d
		}
		out, err := canonFn()
		if err != nil {
			r.fail("%s output: %v", what, err)
		} else if !bytes.Equal(out, cold) {
			r.fail("%s output differs from the cold output (fingerprint %s)", what, fingerprint(out))
		}
		return d
	}
	for i := 0; i < warm; i++ {
		r.WarmS = append(r.WarmS, check("warm", childProcs))
	}
	if w.seeded() && warm > 0 {
		check("width-1", 1)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		r.fail("getrusage: %v", err)
		return r
	}
	r.MaxRSSKB = ru.Maxrss // Linux reports KiB
	r.ProbeS = hostProbe()
	return r
}

// seeded reports whether the seed changes the workload's inputs. The
// fleet workloads are the seeded ones; they are also the ones whose warm
// call is cheap enough to repeat at width 1 in every child.
func (w benchWorkload) seeded() bool { return w.warm > 1 }

// sample is one child as the parent saw it.
type sample struct {
	childResult
	setupS float64
	rssMB  float64
}

// spawnChild runs one child process of this binary and waits for it.
func spawnChild(w benchWorkload, seed uint64, warm int, setupOnly bool) sample {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	exe, err := os.Executable()
	if err != nil {
		return failedSample(w, warm, setupOnly, err)
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", w.name,
		"-seed", strconv.FormatUint(seed, 10), "-warm", strconv.Itoa(warm),
		"-setup-only="+strconv.FormatBool(setupOnly))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	// The child is killed if the benchmark dies first. Pdeathsig fires
	// when the thread that started the child exits, so that thread stays
	// locked to this goroutine until the child has been waited for.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	start := time.Now()
	err = cmd.Run()
	var s sample
	if err != nil {
		return failedSample(w, warm, setupOnly, fmt.Errorf("child %s: %w", w.name, err))
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		last = sc.Text()
	}
	if err := json.Unmarshal([]byte(last), &s.childResult); err != nil {
		return failedSample(w, warm, setupOnly, fmt.Errorf("child %s: bad result line %q: %w", w.name, last, err))
	}
	s.setupS = float64(s.ReadyNs-start.UnixNano()) / 1e9
	s.rssMB = float64(s.MaxRSSKB) / 1024
	return s
}

// failedSample accounts a child that died, timed out or could not be
// read: every operation it was to attempt counts as failed.
func failedSample(w benchWorkload, warm int, setupOnly bool, err error) sample {
	ops := 1
	if !setupOnly {
		if warm < 0 {
			warm = w.warm
		}
		ops += warm
		if w.seeded() && warm > 0 {
			ops++
		}
	}
	return sample{childResult: childResult{Ops: ops, Failed: ops, Errors: []string{err.Error()}}}
}
