// Multi-stream trace composition: each running decode stream
// contributes the per-token trace of its own operator(s) at its own
// address-space offset, and the composer interleaves the streams'
// thread blocks round-robin so their memory traffic contends in the
// LLC and DRAM the way concurrent requests do on real hardware.

package serving

import (
	"fmt"
	"slices"

	"repro/internal/dataflow"
	"repro/internal/memtrace"
	"repro/internal/workload"
)

// streamAlign is the alignment of per-stream address regions: 4 MiB,
// far above the DRAM row and channel-interleave granularity, so two
// streams never share a cache line or DRAM row but still contend for
// the same slices, MSHRs, rows and channels through the normal
// address-interleaving functions.
const streamAlign = 4 << 20

// StreamState is one running stream at a step boundary: which batch
// slot it occupies (and therefore where its KV cache lives), which
// model it runs, how long its KV cache is, and — for a prefill pass —
// how many prompt tokens the pass advances.
//
// ChunkLen == 0 is a decode stream: one new token scored against a
// KVLen-token cache. ChunkLen > 0 is a prefill pass: the last ChunkLen
// tokens of a KVLen-token prompt prefix scored against the whole
// prefix (KVLen is the cache length AFTER the pass).
type StreamState struct {
	Slot     int
	Base     uint64 // address-space base of the stream's tensor region
	Model    workload.ModelConfig
	KVLen    int
	ChunkLen int // 0 = decode step; >0 = prefill pass of that many tokens
}

// StreamStride returns the per-slot address-space stride for a request
// population under a scenario's AV and scheduler settings: the largest
// tensor footprint any request reaches (Logit tensors, plus the AV
// tensors when enabled, plus — under a prefill scheduler — the largest
// prefill pass), aligned up to the 4 MiB stream region alignment. Slot i's
// region starts at i×stride; a retired request's slot — and therefore
// its KV-cache region — is reused by the next admitted request, the
// slot-reuse behaviour of a real KV-cache allocator.
func StreamStride(reqs []Request, includeAV bool, sched SchedulerConfig) (uint64, error) {
	var stride uint64
	for _, r := range reqs {
		limit, err := r.footprint(includeAV, sched)
		if err != nil {
			return 0, err
		}
		stride = max(stride, limit)
	}
	return (stride + streamAlign - 1) / streamAlign * streamAlign, nil
}

// footprint returns the end of the largest tensor region the request
// reaches from base 0 (see StreamStride).
func (r Request) footprint(includeAV bool, sched SchedulerConfig) (uint64, error) {
	op := workload.LogitOp{Model: r.Model, SeqLen: r.PromptLen + r.DecodeTokens}
	amap, err := workload.NewAddressMap(op, 0)
	if err != nil {
		return 0, err
	}
	limit := amap.Limit
	if includeAV {
		avop := workload.AVOp{Model: r.Model, SeqLen: op.SeqLen}
		avmap, err := workload.NewAVAddressMap(avop, limit)
		if err != nil {
			return 0, err
		}
		limit = avmap.Limit
	}
	if sched.Policy != SchedDecodeOnly {
		// Upper bound over every prefill pass of the request: the
		// full prefix with the largest chunk the policy can issue.
		pop := workload.PrefillOp{Model: r.Model, KVLen: r.PromptLen, ChunkLen: sched.prefillTarget(r.PromptLen)}
		pmap, err := workload.NewPrefillAddressMap(pop, 0)
		if err != nil {
			return 0, err
		}
		limit = max(limit, pmap.Limit)
	}
	return limit, nil
}

// ComposeStep builds the memory trace of one continuous-batching
// token step: every stream's per-token operator trace is generated at
// the stream's address base, stamped with the stream's slot, and the
// streams' thread blocks are interleaved round-robin (stream 0 block
// 0, stream 1 block 0, …, stream 0 block 1, …) so the composed
// dispatch order alternates streams — concurrent decode requests, not
// a concatenation of sequential ones. It composes into fresh storage;
// the step cache composes the same trace into storage it reuses.
//
// The returned group size is the largest G among the streams' models;
// the affinity dispatcher uses it together with Meta.Stream to spread
// the streams across cores.
func ComposeStep(streams []StreamState, includeAV bool, lineBytes int) (*memtrace.Trace, int, error) {
	if len(streams) == 0 {
		return nil, 0, fmt.Errorf("serving: empty step")
	}
	c := composer{includeAV: includeAV, lineBytes: lineBytes}
	tr, groupSize, err := c.compose(streams)
	if err != nil {
		return nil, 0, err
	}
	// The label names the first stream's operator trace (its Logit
	// trace when AV rides along).
	st := streams[0]
	opName := workload.LogitOp{Model: st.Model, SeqLen: st.KVLen}.Name()
	if st.ChunkLen > 0 {
		opName = workload.PrefillOp{Model: st.Model, KVLen: st.KVLen, ChunkLen: st.ChunkLen}.Name()
	}
	tr.Name = fmt.Sprintf("serve/%dstreams/%s", len(streams), dataflow.TraceName(opName, c.first))
	return tr, groupSize, nil
}

// composer builds step traces in storage it keeps from one step to the
// next: the blocks of the i-th running stream are generated straight
// into the i-th slab.
type composer struct {
	includeAV bool
	lineBytes int
	slabs     []memtrace.Slab
	trace     memtrace.Trace
	// first is the mapping the first stream was generated under.
	first dataflow.Mapping
}

// compose builds the trace of the step running streams, as ComposeStep
// does, with step-local IDs and each block's Meta.Stream stamped in
// the slabs. The trace aliases storage owned by c and stays valid
// until c composes again.
func (c *composer) compose(streams []StreamState) (*memtrace.Trace, int, error) {
	if n := len(streams) - len(c.slabs); n > 0 {
		c.slabs = append(c.slabs, make([]memtrace.Slab, n)...)
	}
	groupSize, total := 0, 0
	for i, st := range streams {
		groupSize = max(groupSize, st.Model.G)
		slab := &c.slabs[i]
		slab.Reset()
		m, err := c.generate(slab, st)
		if err != nil {
			return nil, 0, err
		}
		if i == 0 {
			c.first = m
		}
		total += len(slab.Blocks())
	}
	out := &c.trace
	out.Name = "serve/step"
	out.Blocks = slices.Grow(out.Blocks[:0], total)
	for j := 0; len(out.Blocks) < total; j++ {
		for i, st := range streams {
			if blocks := c.slabs[i].Blocks(); j < len(blocks) {
				tb := &blocks[j]
				tb.ID = len(out.Blocks)
				tb.Meta.Stream = st.Slot
				out.Blocks = append(out.Blocks, tb)
			}
		}
	}
	return out, groupSize, nil
}

// generate appends one stream's per-step thread blocks to slab:
// the decode-step Logit operator (plus AV when enabled) or, when the
// state is a prefill pass (ChunkLen > 0), the prefill operator, at the
// stream's address base. A prefill pass scores the last ChunkLen prompt
// tokens against the whole KVLen-token prefix; its K region coincides
// with the decode phase's, so the pass warms the KV-cache lines later
// decode steps read. The AV operator does not apply to prefill passes:
// IncludeAV shapes decode steps only. It returns the mapping the
// stream's operators were generated under.
func (c *composer) generate(slab *memtrace.Slab, st StreamState) (dataflow.Mapping, error) {
	if st.ChunkLen > 0 {
		op := workload.PrefillOp{Model: st.Model, KVLen: st.KVLen, ChunkLen: st.ChunkLen}
		amap, err := workload.NewPrefillAddressMap(op, st.Base)
		if err != nil {
			return dataflow.Mapping{}, err
		}
		mapping, _, err := dataflow.FindPrefillMapping(op, c.lineBytes)
		if err != nil {
			return mapping, err
		}
		_, err = dataflow.GeneratePrefill(op, amap, mapping, c.lineBytes, slab)
		return mapping, err
	}
	op := workload.LogitOp{Model: st.Model, SeqLen: st.KVLen}
	amap, err := workload.NewAddressMap(op, st.Base)
	if err != nil {
		return dataflow.Mapping{}, err
	}
	mapping, _, err := dataflow.FindMapping(op, c.lineBytes)
	if err != nil {
		return mapping, err
	}
	if _, err := dataflow.Generate(op, amap, mapping, c.lineBytes, slab); err != nil || !c.includeAV {
		return mapping, err
	}
	avop := workload.AVOp{Model: st.Model, SeqLen: st.KVLen}
	avmap, err := workload.NewAVAddressMap(avop, amap.Limit)
	if err != nil {
		return mapping, err
	}
	_, err = dataflow.GenerateAV(avop, avmap, mapping, c.lineBytes, slab)
	return mapping, err
}
