// Step-cache guarantees: canonical signatures (slot-order invariant,
// sensitive to every simulated degree of freedom) and bit-identical
// serving metrics across the three execution paths — full fast path,
// arena+reset without memo, and the naive reference.

package serving

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/arbiter"
	"repro/internal/sim"
	"repro/internal/throttle"
	"repro/internal/workload"
)

func sigStreams() []StreamState {
	const stride = uint64(4 << 20)
	return []StreamState{
		{Slot: 0, Base: 0, Model: workload.Llama3_70B, KVLen: 32},
		{Slot: 1, Base: 1 * stride, Model: workload.Llama3_405B, KVLen: 48},
		{Slot: 2, Base: 2 * stride, Model: workload.Llama3_70B, KVLen: 16},
	}
}

// TestStepSignatureCanonical: the signature is a pure function of the
// running SET — presenting the same streams in any order yields the
// same key, for the 3-stream set and for a 5-stream set (MaxBatch 4
// plus a prefill pass) with gaps in its slots.
func TestStepSignatureCanonical(t *testing.T) {
	const stride = uint64(4 << 20)
	five := append(sigStreams(),
		StreamState{Slot: 6, Base: 6 * stride, Model: workload.Llama3_405B, KVLen: 40},
		StreamState{Slot: 4, Base: 4 * stride, Model: workload.Llama3_70B, KVLen: 32, ChunkLen: 16},
	)
	for _, streams := range [][]StreamState{sigStreams(), five} {
		want := StepSignature("prefix", streams)
		for _, p := range permutations(len(streams)) {
			shuffled := make([]StreamState, len(p))
			for i, j := range p {
				shuffled[i] = streams[j]
			}
			if got := StepSignature("prefix", shuffled); got != want {
				t.Fatalf("permutation %v changed the signature:\n%q\n%q", p, got, want)
			}
		}
	}
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int(nil), p[:at]...), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestStepSignatureSensitivity: changing any simulated degree of
// freedom — kvLen, chunk length, any model field, slot, base, or the
// config prefix — changes the key. Slot, kvLen and base also move past
// 2^16 and 2^32, so a key field narrower than its value fails.
func TestStepSignatureSensitivity(t *testing.T) {
	base := sigStreams()
	want := StepSignature("prefix", base)

	mutate := func(name string, f func([]StreamState)) {
		streams := append([]StreamState(nil), base...)
		f(streams)
		if got := StepSignature("prefix", streams); got == want {
			t.Errorf("%s did not change the signature", name)
		}
	}
	mutate("kvLen", func(s []StreamState) { s[1].KVLen++ })
	mutate("model", func(s []StreamState) { s[0].Model = workload.Llama3_405B })
	mutate("slot", func(s []StreamState) { s[2].Slot = 3 })
	mutate("base", func(s []StreamState) { s[2].Base += 4 << 20 })
	mutate("drop-stream", func(s []StreamState) { s[2] = s[0] })
	mutate("chunk", func(s []StreamState) { s[1].ChunkLen = 16 })
	mutate("model name", func(s []StreamState) { s[0].Model.Name += "-variant" })
	mutate("model H", func(s []StreamState) { s[0].Model.H++ })
	mutate("model G", func(s []StreamState) { s[0].Model.G++ })
	mutate("model D", func(s []StreamState) { s[0].Model.D++ })
	mutate("model ElemBytes", func(s []StreamState) { s[0].Model.ElemBytes++ })
	mutate("model OutBytes", func(s []StreamState) { s[0].Model.OutBytes++ })
	for _, wide := range []uint64{1 << 16, 1 << 32} {
		if wide > math.MaxInt {
			continue
		}
		mutate(fmt.Sprintf("slot+%d", wide), func(s []StreamState) { s[2].Slot += int(wide) })
		mutate(fmt.Sprintf("kvLen+%d", wide), func(s []StreamState) { s[1].KVLen += int(wide) })
		mutate(fmt.Sprintf("base+%d", wide), func(s []StreamState) { s[2].Base += wide })
	}

	if got := StepSignature("other-prefix", base); got == want {
		t.Error("config prefix did not change the signature")
	}
}

// TestConfigSignature: the prefix distinguishes configs (including
// dereferenced controller parameter blocks), AV inclusion and stride,
// and is identical for equal configs regardless of parameter-pointer
// identity.
func TestConfigSignature(t *testing.T) {
	cfg := testConfig()
	a := configSignature(cfg, false, 4<<20)
	if b := configSignature(cfg, false, 4<<20); b != a {
		t.Fatal("equal configs produced different prefixes")
	}

	mod := cfg
	mod.Arbiter = arbiter.BMA
	if configSignature(mod, false, 4<<20) == a {
		t.Error("arbiter change did not change the prefix")
	}
	if configSignature(cfg, true, 4<<20) == a {
		t.Error("AV inclusion did not change the prefix")
	}
	if configSignature(cfg, false, 8<<20) == a {
		t.Error("stride change did not change the prefix")
	}

	// Parameter blocks are compared by value, never by pointer.
	p1 := cfg
	params1 := throttle.DefaultDynMGParams()
	p1.DynMG = &params1
	p2 := cfg
	params2 := throttle.DefaultDynMGParams()
	p2.DynMG = &params2
	if configSignature(p1, false, 4<<20) != configSignature(p2, false, 4<<20) {
		t.Error("equal DynMG params at different addresses produced different prefixes")
	}
	params2.SamplingPeriod++
	if configSignature(p1, false, 4<<20) == configSignature(p2, false, 4<<20) {
		t.Error("DynMG param change did not change the prefix")
	}
}

// TestConfigKeyCoversDynMGParams: configSignature copies the DynMG
// parameter block field by field (its GearFrac slice keeps the block
// from being comparable), so a field added to DynMGParams must be added
// to dynmgKey too, or configurations that differ only in it would
// share memo entries.
func TestConfigKeyCoversDynMGParams(t *testing.T) {
	if n := reflect.TypeOf(throttle.DynMGParams{}).NumField(); n != 10 {
		t.Fatalf("DynMGParams has %d fields, dynmgKey copies 10", n)
	}
}

// TestStepCacheEquivalence is the serving half of the ISSUE 4
// acceptance: for every execution path — full fast path on a private
// memo, arena+reset without memo, and the naive reference — the
// serving metrics are bit-identical, across policies.
func TestStepCacheEquivalence(t *testing.T) {
	scn := testScenario(t)
	policies := []struct {
		label    string
		throttle string
		arb      arbiter.Kind
	}{
		{"unopt", "none", arbiter.FCFS},
		{"dynmg+BMA", "dynmg", arbiter.BMA},
		{"cobrra", "none", arbiter.COBRRA},
	}
	for _, pol := range policies {
		cfg := testConfig()
		cfg.Throttle = pol.throttle
		cfg.Arbiter = pol.arb

		naive, err := RunWith(cfg, scn, RunOptions{StepCache: StepCacheOff})
		if err != nil {
			t.Fatalf("%s naive: %v", pol.label, err)
		}
		naive.StripStepCache()

		nomemo, err := RunWith(cfg, scn, RunOptions{StepCache: StepCacheNoMemo})
		if err != nil {
			t.Fatalf("%s nomemo: %v", pol.label, err)
		}
		if nomemo.StepCache.MemoHits != 0 || nomemo.StepCache.MemoMisses != 0 {
			t.Fatalf("%s: nomemo path consulted the memo: %+v", pol.label, nomemo.StepCache)
		}
		if nomemo.StepCache.SimResets != nomemo.Steps-1 {
			t.Fatalf("%s: nomemo path executed %d steps but reset %d times",
				pol.label, nomemo.Steps, nomemo.StepCache.SimResets)
		}
		nomemo.StripStepCache()
		if !reflect.DeepEqual(nomemo, naive) {
			t.Fatalf("%s: arena+reset path diverges from naive:\n%v\n%v", pol.label, nomemo, naive)
		}

		memo := NewStepMemo()
		fast, err := RunWith(cfg, scn, RunOptions{StepCache: StepCacheOn, Memo: memo})
		if err != nil {
			t.Fatalf("%s fast: %v", pol.label, err)
		}
		if hits, misses := fast.StepCache.MemoHits, fast.StepCache.MemoMisses; hits+misses != fast.Steps {
			t.Fatalf("%s: memo lookups %d+%d do not cover %d steps", pol.label, hits, misses, fast.Steps)
		}
		fast.StripStepCache()
		if !reflect.DeepEqual(fast, naive) {
			t.Fatalf("%s: memo path diverges from naive:\n%v\n%v", pol.label, fast, naive)
		}

		// A second run on the now-warm private memo replays every step
		// and still agrees bit-for-bit.
		warm, err := RunWith(cfg, scn, RunOptions{StepCache: StepCacheOn, Memo: memo})
		if err != nil {
			t.Fatalf("%s warm: %v", pol.label, err)
		}
		if warm.StepCache.MemoMisses != 0 {
			t.Fatalf("%s: warm run missed the memo %d times", pol.label, warm.StepCache.MemoMisses)
		}
		warm.StripStepCache()
		if !reflect.DeepEqual(warm, naive) {
			t.Fatalf("%s: warm replay diverges from naive:\n%v\n%v", pol.label, warm, naive)
		}
	}
}

// TestStepCacheEquivalenceAV extends the equivalence to AV-composed
// token steps (both decode kernels per step).
func TestStepCacheEquivalenceAV(t *testing.T) {
	scn, err := NewScenario(ScenarioConfig{
		Seed: 9, NumRequests: 3,
		MinPromptLen: 16, MaxPromptLen: 32,
		MinDecode: 2, MaxDecode: 2,
		MeanInterArrival: 6000, MaxBatch: 2,
		IncludeAV: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	naive, err := RunWith(cfg, scn, RunOptions{StepCache: StepCacheOff})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := RunWith(cfg, scn, RunOptions{StepCache: StepCacheOn, Memo: NewStepMemo()})
	if err != nil {
		t.Fatal(err)
	}
	naive.StripStepCache()
	fast.StripStepCache()
	if !reflect.DeepEqual(fast, naive) {
		t.Fatalf("AV fast path diverges from naive:\n%v\n%v", fast, naive)
	}
}

// TestComposeArenaMatchesComposeStep: the arena composition used by
// the fast path produces a trace with exactly the blocks ComposeStep
// builds — same order, same IDs, same metadata, same instructions.
func TestComposeArenaMatchesComposeStep(t *testing.T) {
	streams := sigStreams()
	cfg := testConfig()
	want, wantG, err := ComposeStep(streams, false, cfg.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	got, gotG, err := newStepSim(cfg, false).compose(streams)
	if err != nil {
		t.Fatal(err)
	}
	if gotG != wantG {
		t.Fatalf("group size %d, want %d", gotG, wantG)
	}
	if len(got.Blocks) != len(want.Blocks) {
		t.Fatalf("%d blocks, want %d", len(got.Blocks), len(want.Blocks))
	}
	for i := range want.Blocks {
		if !reflect.DeepEqual(*got.Blocks[i], *want.Blocks[i]) {
			t.Fatalf("block %d differs:\n%+v\n%+v", i, *got.Blocks[i], *want.Blocks[i])
		}
	}
}

// TestComposeInPlaceAllocationFree: once a stepSim has composed a step
// at least as large, composing further distinct steps allocates
// nothing. Every measured step is new: fresh kvLens on both models,
// with AV, a prefill pass riding along in alternate steps. Each
// composed trace still matches ComposeStep's block for block.
func TestComposeInPlaceAllocationFree(t *testing.T) {
	const stride = uint64(4 << 20)
	cfg := testConfig()
	s := newStepSim(cfg, true)
	step := func(kv int) []StreamState {
		streams := []StreamState{
			{Slot: 0, Base: 0, Model: workload.Llama3_70B, KVLen: kv},
			{Slot: 1, Base: stride, Model: workload.Llama3_405B, KVLen: kv + 3},
			{Slot: 3, Base: 3 * stride, Model: workload.Llama3_70B, KVLen: 2*kv + 1},
		}
		if kv%2 == 0 {
			streams = append(streams, StreamState{Slot: 2, Base: 2 * stride, Model: workload.Llama3_405B, KVLen: kv, ChunkLen: kv / 2})
		}
		return streams
	}
	if _, _, err := s.compose(step(200)); err != nil {
		t.Fatal(err)
	}
	kv := 16
	for ; kv < 24; kv++ {
		want, wantG, err := ComposeStep(step(kv), true, cfg.LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		got, gotG, err := s.compose(step(kv))
		if err != nil {
			t.Fatal(err)
		}
		if gotG != wantG || len(got.Blocks) != len(want.Blocks) {
			t.Fatalf("kvLen %d: %d blocks, group %d; want %d, %d", kv, len(got.Blocks), gotG, len(want.Blocks), wantG)
		}
		for i := range want.Blocks {
			if !reflect.DeepEqual(*got.Blocks[i], *want.Blocks[i]) {
				t.Fatalf("kvLen %d: block %d differs:\n%+v\n%+v", kv, i, *got.Blocks[i], *want.Blocks[i])
			}
		}
	}
	steps := make([][]StreamState, 0, 64)
	for ; len(steps) < cap(steps); kv++ {
		steps = append(steps, step(kv))
	}
	next := 0
	allocs := testing.AllocsPerRun(len(steps)-1, func() {
		if _, _, err := s.compose(steps[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 0 {
		t.Fatalf("composing a new step on a warm stepSim allocates %.1f times, want 0", allocs)
	}
}

// TestStepMemoCounters: the shared-memo accessors see traffic.
func TestStepMemoCounters(t *testing.T) {
	memo := NewStepMemo()
	if memo.Len() != 0 {
		t.Fatal("fresh memo not empty")
	}
	if _, ok := memo.lookup([]byte("k")); ok {
		t.Fatal("empty memo hit")
	}
	_, own := memo.claim("k")
	memo.publish("k", own, &stepResult{cycles: 7})
	r, ok := memo.lookup([]byte("k"))
	if !ok || r.cycles != 7 {
		t.Fatalf("lookup after store: %+v %v", r, ok)
	}
	if memo.Len() != 1 {
		t.Fatalf("counters: len=%d", memo.Len())
	}
}

// TestStepMemoConcurrentReplay: memo hits race with every writer of
// the shared memo. Readers replay a set of published keys,
// republishing the same entry when a flush has dropped one, while a
// writer claims, publishes and releases fresh keys and flushes the
// memo. Every hit, and every claim another reader resolved, returns
// the pointer its key was published with. Each reader also looks up the
// newest fresh key whose publication has returned, and must find it
// unless a flush has begun since that publication began: the pending
// entries a fold moves into the snapshot, and the ones it has not moved
// yet, stay visible. Run it under -race.
func TestStepMemoConcurrentReplay(t *testing.T) {
	const readers, keys, rounds = 4, 32, 2000
	memo := SharedStepMemo()
	FlushSharedCaches()
	defer FlushSharedCaches()
	key := func(i int) string { return "replay/" + strconv.Itoa(i) }
	published := make([]*stepResult, keys)
	for i := range published {
		published[i] = &stepResult{cycles: int64(i)}
		_, own := memo.claim(key(i))
		memo.publish(key(i), own, published[i])
	}

	// fresh is a published fresh key and the number of flushes begun
	// before its publication began.
	type fresh struct {
		key     string
		flushes int64
	}
	var (
		wg       sync.WaitGroup
		hits     atomic.Int64
		checked  atomic.Int64
		flushes  atomic.Int64
		newest   atomic.Pointer[fresh]
		stop     = make(chan struct{})
		freshKey = func(i int) string { return "fresh/" + strconv.Itoa(i) }
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := freshKey(i)
			if _, own := memo.claim(k); own == nil {
				t.Errorf("fresh key %s was already published", k)
				return
			} else if i%2 == 0 {
				f := &fresh{key: k, flushes: flushes.Load()}
				memo.publish(k, own, &stepResult{cycles: -1})
				newest.Store(f)
			} else {
				memo.release(k, own)
			}
			if i%16 == 0 {
				flushes.Add(1)
				FlushSharedCaches()
			}
		}
	}()
	var replay sync.WaitGroup
	for g := 0; g < readers; g++ {
		replay.Add(1)
		go func(g int) {
			defer replay.Done()
			var buf []byte
			for n := 0; n < rounds; n++ {
				if f := newest.Load(); f != nil {
					buf = append(buf[:0], f.key...)
					_, ok := memo.lookup(buf)
					if !ok && flushes.Load() == f.flushes {
						t.Errorf("%s was published before its lookup began, with no flush since, and the lookup missed it", f.key)
						return
					}
					checked.Add(1)
				}
				i := (g*7 + n) % keys
				buf = append(buf[:0], key(i)...)
				if r, ok := memo.lookup(buf); ok {
					hits.Add(1)
					if r != published[i] {
						t.Errorf("hit on %s returned %p, want the published %p", key(i), r, published[i])
						return
					}
					continue
				}
				// A flush dropped the key: claim it again and republish the
				// same entry, or take the one another reader republished.
				r, own := memo.claim(key(i))
				if own != nil {
					r = published[i]
					memo.publish(key(i), own, r)
				}
				if r != published[i] {
					t.Errorf("claim of %s returned %p, want the published %p", key(i), r, published[i])
					return
				}
			}
		}(g)
	}
	replay.Wait()
	close(stop)
	wg.Wait()
	if hits.Load() == 0 || checked.Load() == 0 {
		t.Fatalf("%d lookups hit the memo and %d checked a fresh key; want both > 0", hits.Load(), checked.Load())
	}
}

// TestFlushSharedCaches: flushing releases the process-wide caches
// without affecting subsequent runs.
func TestFlushSharedCaches(t *testing.T) {
	scn := testScenario(t)
	cfg := testConfig()
	first, err := Run(cfg, scn)
	if err != nil {
		t.Fatal(err)
	}
	if SharedStepMemo().Len() == 0 {
		t.Fatal("run left the shared memo empty")
	}
	FlushSharedCaches()
	if n := SharedStepMemo().Len(); n != 0 {
		t.Fatalf("flush left %d memo entries", n)
	}
	second, err := Run(cfg, scn)
	if err != nil {
		t.Fatal(err)
	}
	if second.StepCache.MemoHits != 0 && second.StepCache.MemoMisses == 0 {
		t.Fatal("post-flush run hit a memo that should have been empty")
	}
	first.StripStepCache()
	second.StripStepCache()
	if !reflect.DeepEqual(first, second) {
		t.Fatal("flush changed simulated metrics")
	}
}

// TestMemoReplayAllocationFree: replaying a memoized step allocates
// nothing. Two warm runs of the same two requests, one with twice the
// decode tokens and so twice the replayed steps, allocate the same
// number of objects up to a small constant.
func TestMemoReplayAllocationFree(t *testing.T) {
	cfg := testConfig()
	memo := NewStepMemo()
	warmAllocs := func(decode int) (allocs float64, steps int64) {
		scn := Scenario{Name: "test/replay", MaxBatch: 2}
		for i := 0; i < 2; i++ {
			scn.Requests = append(scn.Requests, Request{
				ID: i, Model: workload.Llama3_70B, PromptLen: 16 + 16*i, DecodeTokens: decode,
			})
		}
		opts := RunOptions{Memo: memo}
		m, err := RunWith(cfg, scn, opts)
		if err != nil {
			t.Fatal(err)
		}
		allocs = testing.AllocsPerRun(5, func() {
			if m, err = RunWith(cfg, scn, opts); err != nil {
				t.Fatal(err)
			}
		})
		if m.StepCache.MemoMisses != 0 {
			t.Fatalf("warm run missed the memo %d times", m.StepCache.MemoMisses)
		}
		return allocs, m.Steps
	}
	short, shortSteps := warmAllocs(8)
	long, longSteps := warmAllocs(16)
	if longSteps != 2*shortSteps {
		t.Fatalf("%d and %d steps, want a 1:2 ratio", shortSteps, longSteps)
	}
	t.Logf("%d replayed steps: %.0f allocs; %d: %.0f", shortSteps, short, longSteps, long)
	if long > short+4 {
		t.Errorf("%d more replayed steps cost %.0f more allocations, want none", longSteps-shortSteps, long-short)
	}
}

// TestInternTableConcurrent: goroutines interning overlapping keys at
// once, each in its own order and across folds of the table's
// snapshot, all get one value per key, and the values are the dense
// ids 0..n-1.
func TestInternTableConcurrent(t *testing.T) {
	const keys, workers = 200, 8
	var tab internTable[int, uint64]
	add := func(n int) uint64 { return uint64(n) }
	got := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]uint64, keys)
			for i := 0; i < keys; i++ {
				k := (i*7 + w) % keys
				ids[k] = tab.get(k, add)
			}
			got[w] = ids
		}(w)
	}
	wg.Wait()
	seen := make([]bool, keys)
	for k := 0; k < keys; k++ {
		id := got[0][k]
		for w := 1; w < workers; w++ {
			if got[w][k] != id {
				t.Fatalf("key %d: worker %d got id %d, worker 0 got %d", k, w, got[w][k], id)
			}
		}
		if id >= keys || seen[id] {
			t.Fatalf("key %d: id %d is out of range or taken", k, id)
		}
		seen[id] = true
		if again := tab.get(k, func(int) uint64 { t.Fatalf("key %d added twice", k); return 0 }); again != id {
			t.Fatalf("key %d: id %d, then %d", k, id, again)
		}
	}
}

// TestStepMemoCell: the miss protocol StepMemo.Cell runs for a caller
// that simulates on its own engine. A failed simulation releases its
// claim and publishes nothing; concurrent callers of one cell simulate
// it once; a replay returns the simulated result field for field; and
// every configuration field, Reference included, keys the cell.
func TestStepMemoCell(t *testing.T) {
	memo := NewStepMemo()
	cfg := sim.DefaultConfig()
	op := workload.LogitOp{Model: workload.Llama3_70B, SeqLen: 64}
	var calls atomic.Int64
	want := sim.Result{Cycles: 1234, Steals: 5}
	want.Counters.Cycles, want.Counters.InstIssued, want.Counters.L2Hits, want.Counters.L2Accesses = 1234, 999, 30, 40
	want.Metrics = want.Counters.Derive(cfg.FreqGHz, cfg.LineBytes, cfg.NumCores)
	simulate := func() (sim.Result, error) {
		calls.Add(1)
		return want, nil
	}

	failed := fmt.Errorf("no drain")
	if _, err := memo.Cell(&cfg, op, func() (sim.Result, error) { return sim.Result{}, failed }); err != failed {
		t.Fatalf("failed simulation returned %v, want %v", err, failed)
	}
	if memo.Len() != 0 {
		t.Fatal("a failed simulation published an entry")
	}

	var wg sync.WaitGroup
	res := make([]sim.Result, 8)
	for i := range res {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := memo.Cell(&cfg, op, simulate)
			if err != nil {
				t.Error(err)
			}
			res[i] = r
		}(i)
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("8 concurrent callers simulated the cell %d times, want once", n)
	}
	for i, r := range res {
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("caller %d got %+v, want %+v", i, r, want)
		}
	}

	ref := cfg
	ref.Reference = true
	if _, err := memo.Cell(&ref, op, simulate); err != nil {
		t.Fatal(err)
	}
	if _, err := memo.Cell(&cfg, workload.LogitOp{Model: op.Model, SeqLen: 128}, simulate); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("the reference loop and another sequence simulated %d cells in all, want 3", n)
	}
}
