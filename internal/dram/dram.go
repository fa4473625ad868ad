// Package dram is a cycle-level DDR5 DRAM model in the spirit of the
// Ramulator2 component the paper keeps "completely unchanged"
// (Section 5; the DDR5-3200 configuration is Table 5): per
// channel command queues, rank/bank-group/bank topology, row-buffer
// state, DDR5 timing constraints and FR-FCFS scheduling, plus
// periodic refresh. All timing is expressed in *core* cycles so the
// whole simulator shares one clock domain; NewDDR5_3200 converts the
// JEDEC nanosecond parameters at the configured core frequency.
package dram

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Timing holds DDR timing constraints in core cycles.
type Timing struct {
	CL     int // read column access strobe latency
	CWL    int // write latency
	TRCD   int // activate to column command
	TRP    int // precharge period
	TRAS   int // activate to precharge
	TBurst int // data burst occupancy of the bus (BL16)
	TCCDL  int // column-to-column, same bank group
	TCCDS  int // column-to-column, different bank group
	TRRDS  int // activate-to-activate, different bank group
	TRRDL  int // activate-to-activate, same bank group
	TFAW   int // four-activate window
	TWR    int // write recovery before precharge
	TRTP   int // read to precharge
	TWTR   int // write to read turnaround
	TRFC   int // refresh cycle time
	TREFI  int // refresh interval
}

// Config describes the memory system topology and scheduling limits.
type Config struct {
	Channels      int
	Ranks         int
	BankGroups    int // per rank
	BanksPerGroup int
	RowBytes      int // row-buffer coverage per bank
	LineBytes     int
	QueueDepth    int // per-channel request queue entries
	// ChannelBitPos is the bit position (in line-address bits) where
	// the channel-interleave bits sit; channel bits are removed before
	// bank/row decoding so each channel sees a dense local space.
	ChannelBitPos int
	Timing        Timing
	// WriteDrainLow/High control write buffering: writes are drained
	// lazily, but once the pending-write count reaches High the
	// scheduler prioritises writes until it falls back to Low.
	WriteDrainLow  int
	WriteDrainHigh int
}

// NewDDR5_3200 returns the paper's Table 5 memory system:
// DDR5_8Gb_x16, 4 ranks, DDR5-3200, configurable channel count, with
// JEDEC-derived timings converted from nanoseconds into core cycles at
// freqGHz.
func NewDDR5_3200(freqGHz float64, channels int) Config {
	cyc := func(ns float64) int {
		c := int(ns*freqGHz + 0.9999)
		if c < 1 {
			c = 1
		}
		return c
	}
	return Config{
		Channels:      channels,
		Ranks:         4,
		BankGroups:    8,
		BanksPerGroup: 4,
		RowBytes:      2048,
		LineBytes:     64,
		QueueDepth:    32,
		ChannelBitPos: 3, // after the 8-way LLC slice interleave bits
		Timing: Timing{
			CL:     cyc(13.75), // CL22 @ DDR5-3200
			CWL:    cyc(11.25),
			TRCD:   cyc(13.75),
			TRP:    cyc(13.75),
			TRAS:   cyc(32.0),
			TBurst: cyc(5.0), // BL16 on a 32-bit subchannel = 64 B
			TCCDL:  cyc(5.0),
			TCCDS:  cyc(2.5),
			TRRDS:  cyc(5.0),
			TRRDL:  cyc(5.0),
			TFAW:   cyc(13.333),
			TWR:    cyc(30.0),
			TRTP:   cyc(7.5),
			TWTR:   cyc(2.5),
			TRFC:   cyc(195.0),
			TREFI:  cyc(3900.0),
		},
		WriteDrainLow:  4,
		WriteDrainHigh: 12,
	}
}

// Validate checks configuration sanity.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0 || c.Channels&(c.Channels-1) != 0:
		return fmt.Errorf("dram: Channels must be a positive power of two, got %d", c.Channels)
	case c.Ranks <= 0:
		return fmt.Errorf("dram: Ranks must be positive, got %d", c.Ranks)
	case c.BankGroups <= 0 || c.BanksPerGroup <= 0:
		return fmt.Errorf("dram: bank topology must be positive, got %dx%d", c.BankGroups, c.BanksPerGroup)
	case c.RowBytes < c.LineBytes:
		return fmt.Errorf("dram: RowBytes %d smaller than LineBytes %d", c.RowBytes, c.LineBytes)
	case c.QueueDepth <= 0:
		return fmt.Errorf("dram: QueueDepth must be positive, got %d", c.QueueDepth)
	}
	return nil
}

// Access is one line-granularity DRAM transaction. Tag and Slice are
// opaque routing values echoed in the Response.
type Access struct {
	Line    uint64
	Write   bool
	Slice   int   // LLC slice to route the response to
	Tag     int64 // opaque identifier (MSHR entry handle)
	Enqueue int64 // cycle the access entered the controller
}

// Response reports a completed read (writes complete silently).
type Response struct {
	Line  uint64
	Slice int
	Tag   int64
	Done  int64 // cycle the data burst finished
}

type bankState struct {
	activeRow int64 // -1 when precharged
	readyAct  int64 // earliest cycle an ACT may issue
	readyCol  int64 // earliest cycle a RD/WR may issue
	readyPre  int64 // earliest cycle a PRE may issue
}

type queued struct {
	acc               Access
	rank, group, bank int
	bankIdx           int // precomputed bankIndex(rank, group, bank)
	row               int64
	needsAct          bool // an ACT/PRE was issued on this request's behalf
	sawConflict       bool // a PRE closed another row first
}

type channel struct {
	queue        []queued
	banks        []bankState // rank*groups*banksPerGroup
	busFree      int64       // cycle the previous data burst ends
	actTimes     [][]int64   // per rank: its ≤4 recent ACT cycles (tFAW window), compacted in a capacity-4 array
	nextRef      int64
	refUntil     int64
	refPending   bool
	pendingWr    int
	drainingWr   bool
	lastColGroup int // bank group of the last column command (tCCD_L/S)
	lastColCycle int64
	lastColWrite bool
	// wake caches the channel's next-event horizon: while now < wake
	// and no enqueue has occurred, the FR-FCFS scans provably find
	// nothing to issue and the tick skips them. Reset on Enqueue and
	// after every issued command.
	wake int64
}

// DRAM is the memory controller + device model. Single-threaded by
// design: the engine drives it from the cycle loop.
type DRAM struct {
	cfg       Config
	channels  []channel
	resp      []Response
	respReady []Response
	// respMinDone is the earliest Done among pending responses
	// (math.MaxInt64 when none), letting Responses return without
	// scanning on cycles where nothing can be due.
	respMinDone int64
	// freed records that a command issue drained queue space since the
	// engine last consumed the flag; slices blocked on CanEnqueue use
	// it as their wake signal.
	freed bool
	// lazy enables the per-channel wake-horizon skip; the engine's
	// per-cycle reference loop disables it so the ground truth runs
	// the full FR-FCFS scan every cycle.
	lazy bool
	ctr  *stats.Counters
}

// New constructs the model. ctr is the shared counter block.
func New(cfg Config, ctr *stats.Counters) (*DRAM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ctr == nil {
		ctr = &stats.Counters{}
	}
	d := &DRAM{cfg: cfg, ctr: ctr, respMinDone: math.MaxInt64, lazy: true}
	nBanks := cfg.Ranks * cfg.BankGroups * cfg.BanksPerGroup
	d.channels = make([]channel, cfg.Channels)
	for i := range d.channels {
		ch := &d.channels[i]
		ch.queue = make([]queued, 0, cfg.QueueDepth)
		ch.banks = make([]bankState, nBanks)
		for b := range ch.banks {
			ch.banks[b].activeRow = -1
		}
		ch.actTimes = make([][]int64, cfg.Ranks)
		for r := range ch.actTimes {
			ch.actTimes[r] = make([]int64, 0, 4)
		}
		ch.nextRef = int64(cfg.Timing.TREFI)
		ch.lastColGroup = -1
	}
	return d, nil
}

// Config returns the model's configuration.
func (d *DRAM) Config() Config { return d.cfg }

// Reset rewinds the controller to its just-constructed state — empty
// queues, precharged banks, fresh refresh schedule, cleared bus and
// column history — reusing every allocation (queues, bank arrays,
// tFAW windows), so a resettable engine pays no per-run construction.
func (d *DRAM) Reset() {
	for i := range d.channels {
		ch := &d.channels[i]
		ch.queue = ch.queue[:0]
		for b := range ch.banks {
			ch.banks[b] = bankState{activeRow: -1}
		}
		for r := range ch.actTimes {
			ch.actTimes[r] = ch.actTimes[r][:0]
		}
		ch.busFree = 0
		ch.nextRef = int64(d.cfg.Timing.TREFI)
		ch.refUntil = 0
		ch.refPending = false
		ch.pendingWr = 0
		ch.drainingWr = false
		ch.lastColGroup = -1
		ch.lastColCycle = 0
		ch.lastColWrite = false
		ch.wake = 0
	}
	d.resp = d.resp[:0]
	d.respMinDone = math.MaxInt64
	d.freed = false
}

// SetLazy toggles the per-channel wake-horizon scan skip (on by
// default; the reference loop turns it off).
func (d *DRAM) SetLazy(lazy bool) { d.lazy = lazy }

// Channel returns the channel index for a line address.
func (d *DRAM) Channel(line uint64) int {
	return int(line>>uint(d.cfg.ChannelBitPos)) & (d.cfg.Channels - 1)
}

// localLine removes the channel bits from a line address, producing a
// dense per-channel line index.
func (d *DRAM) localLine(line uint64) uint64 {
	pos := uint(d.cfg.ChannelBitPos)
	chBits := uint(0)
	for c := d.cfg.Channels; c > 1; c >>= 1 {
		chBits++
	}
	low := line & ((1 << pos) - 1)
	high := line >> (pos + chBits)
	return high<<pos | low
}

// decode maps an access to its channel-local coordinates. Consecutive
// rows map to different banks (row-interleaved) to expose bank-level
// parallelism to streaming accesses.
func (d *DRAM) decode(acc Access) queued {
	cfg := &d.cfg
	local := d.localLine(acc.Line)
	linesPerRow := uint64(cfg.RowBytes / cfg.LineBytes)
	col := local % linesPerRow
	rowIdx := local / linesPerRow
	nBanks := uint64(cfg.Ranks * cfg.BankGroups * cfg.BanksPerGroup)
	bankLinear := rowIdx % nBanks
	row := int64(rowIdx / nBanks)
	rank := int(bankLinear % uint64(cfg.Ranks))
	rem := bankLinear / uint64(cfg.Ranks)
	group := int(rem % uint64(cfg.BankGroups))
	bank := int(rem / uint64(cfg.BankGroups))
	_ = col
	return queued{acc: acc, rank: rank, group: group, bank: bank,
		bankIdx: d.bankIndex(rank, group, bank), row: row}
}

// CanEnqueue reports whether the channel owning line has queue space.
func (d *DRAM) CanEnqueue(line uint64) bool {
	ch := &d.channels[d.Channel(line)]
	return len(ch.queue) < d.cfg.QueueDepth
}

// Enqueue inserts an access; the caller must have checked CanEnqueue.
func (d *DRAM) Enqueue(acc Access) error {
	ch := &d.channels[d.Channel(acc.Line)]
	if len(ch.queue) >= d.cfg.QueueDepth {
		return fmt.Errorf("dram: channel %d queue full", d.Channel(acc.Line))
	}
	q := d.decode(acc)
	ch.queue = append(ch.queue, q)
	if acc.Write {
		// A write can flip the drain-preference hysteresis, changing
		// which queued requests are eligible: full rescan next tick.
		ch.pendingWr++
		ch.wake = 0
	} else if b := d.requestBound(ch, &q); b < ch.wake {
		// A read changes nothing about existing requests' eligibility
		// for the worse; folding in its own earliest-issue bound keeps
		// the cached horizon exact without a rescan.
		ch.wake = b
	}
	return nil
}

// requestBound returns the earliest cycle at which q's next command
// (column, precharge or activate) could legally issue, given current
// bank and bus state. It ignores the global refresh/eligibility gates
// its callers account for separately; bounds may be early, never late.
func (d *DRAM) requestBound(ch *channel, q *queued) int64 {
	t := &d.cfg.Timing
	b := &ch.banks[q.bankIdx]
	switch {
	case b.activeRow == q.row:
		e := b.readyCol
		if ch.lastColGroup >= 0 {
			gap := int64(t.TCCDS)
			if ch.lastColGroup == q.group {
				gap = int64(t.TCCDL)
			}
			if ch.lastColWrite != q.acc.Write && int64(t.TWTR) > gap {
				gap = int64(t.TWTR)
			}
			if g := ch.lastColCycle + gap; g > e {
				e = g
			}
		}
		lat := int64(t.CL)
		if q.acc.Write {
			lat = int64(t.CWL)
		}
		if bf := ch.busFree - lat; bf > e {
			e = bf
		}
		return e
	case b.activeRow >= 0:
		return b.readyPre
	default:
		e := b.readyAct
		if times := ch.actTimes[q.rank]; len(times) >= 4 {
			if f := times[len(times)-4] + int64(t.TFAW); f > e {
				e = f
			}
		}
		return e
	}
}

// QueueLen returns the current occupancy of a channel's queue.
func (d *DRAM) QueueLen(chIdx int) int { return len(d.channels[chIdx].queue) }

func (d *DRAM) bankIndex(rank, group, bank int) int {
	return (rank*d.cfg.BankGroups+group)*d.cfg.BanksPerGroup + bank
}

// Tick advances the controller by one core cycle: refresh management
// plus at most one command per channel (FR-FCFS). A channel whose
// cached wake horizon has not arrived provably cannot issue anything
// and skips its scheduling scans entirely.
func (d *DRAM) Tick(now int64) {
	for ci := range d.channels {
		ch := &d.channels[ci]
		if d.lazy && now < ch.wake {
			continue
		}
		if d.tickChannel(ci, now) {
			ch.wake = now + 1 // state changed: rescan next cycle
		} else {
			ch.wake = d.channelNextEvent(ch, now)
		}
	}
}

// tickChannel runs one channel cycle and reports whether it changed
// state (issued a command or executed a refresh).
func (d *DRAM) tickChannel(ci int, now int64) bool {
	ch := &d.channels[ci]
	t := &d.cfg.Timing

	// Refresh: once due, stop issuing new columns, wait for the bus to
	// drain, then block the channel for tRFC (all-bank refresh).
	if now >= ch.nextRef {
		ch.refPending = true
	}
	if ch.refPending && now >= ch.refUntil && now >= ch.busFree {
		ch.refUntil = now + int64(t.TRFC)
		ch.nextRef = now + int64(t.TREFI)
		ch.refPending = false
		for b := range ch.banks {
			ch.banks[b].activeRow = -1
			if ch.banks[b].readyAct < ch.refUntil {
				ch.banks[b].readyAct = ch.refUntil
			}
		}
		return true
	}
	if ch.refPending || now < ch.refUntil || len(ch.queue) == 0 {
		return false
	}

	// Write drain hysteresis.
	if ch.pendingWr >= d.cfg.WriteDrainHigh {
		ch.drainingWr = true
	} else if ch.pendingWr <= d.cfg.WriteDrainLow {
		ch.drainingWr = false
	}

	// eligible applies the read/write drain preference, falling back
	// to everything when the preferred kind is absent.
	preferWrites := ch.drainingWr && ch.pendingWr > 0
	prefersExist := false
	for i := range ch.queue {
		if ch.queue[i].acc.Write == preferWrites {
			prefersExist = true
			break
		}
	}
	eligible := func(q *queued) bool {
		if !prefersExist {
			return true
		}
		return q.acc.Write == preferWrites
	}

	// FR-FCFS pass 1: oldest ready column command (row hit).
	for i := range ch.queue {
		q := &ch.queue[i]
		if !eligible(q) {
			continue
		}
		b := &ch.banks[q.bankIdx]
		if b.activeRow == q.row && d.colReady(ch, b, q, now) {
			d.issueColumn(ch, b, i, now)
			return true
		}
	}
	// Pass 2: oldest request needing row activation — issue PRE/ACT.
	for i := range ch.queue {
		q := &ch.queue[i]
		if !eligible(q) {
			continue
		}
		b := &ch.banks[q.bankIdx]
		if b.activeRow == q.row {
			continue // waiting on column timing only
		}
		if b.activeRow >= 0 {
			// Conflicting row open: precharge when legal.
			if now >= b.readyPre {
				b.activeRow = -1
				b.readyAct = max64(b.readyAct, now+int64(t.TRP))
				q.needsAct = true
				q.sawConflict = true
				return true
			}
			continue // bank busy; try a younger request's bank
		}
		// Bank precharged: ACT subject to tRRD and tFAW.
		if now < b.readyAct {
			continue
		}
		times := ch.actTimes[q.rank]
		cut := 0
		for _, at := range times {
			if now-at < int64(t.TFAW) {
				break
			}
			cut++
		}
		if cut > 0 {
			times = times[:copy(times, times[cut:])]
			ch.actTimes[q.rank] = times
		}
		if len(times) >= 4 {
			continue
		}
		b.activeRow = q.row
		b.readyCol = now + int64(t.TRCD)
		b.readyPre = now + int64(t.TRAS)
		q.needsAct = true
		ch.actTimes[q.rank] = append(times, now)
		// Apply tRRD to sibling banks of the same rank.
		for g := 0; g < d.cfg.BankGroups; g++ {
			for bk := 0; bk < d.cfg.BanksPerGroup; bk++ {
				oi := d.bankIndex(q.rank, g, bk)
				if &ch.banks[oi] == b {
					continue
				}
				delay := int64(t.TRRDS)
				if g == q.group {
					delay = int64(t.TRRDL)
				}
				if ch.banks[oi].readyAct < now+delay {
					ch.banks[oi].readyAct = now + delay
				}
			}
		}
		return true
	}
	return false
}

// colReady reports whether a column command for q may issue at now:
// bank column timing, column-to-column spacing and data-bus
// availability (bursts pipeline behind the column latency).
func (d *DRAM) colReady(ch *channel, b *bankState, q *queued, now int64) bool {
	t := &d.cfg.Timing
	if now < b.readyCol {
		return false
	}
	if ch.lastColGroup >= 0 {
		gap := int64(t.TCCDS)
		if ch.lastColGroup == q.group {
			gap = int64(t.TCCDL)
		}
		if ch.lastColWrite != q.acc.Write {
			gap = max64(gap, int64(t.TWTR))
		}
		if now < ch.lastColCycle+gap {
			return false
		}
	}
	lat := int64(t.CL)
	if q.acc.Write {
		lat = int64(t.CWL)
	}
	// The new burst starts at now+lat; it must not overlap the
	// previous burst's occupancy of the data bus.
	return now+lat >= ch.busFree
}

func (d *DRAM) issueColumn(ch *channel, b *bankState, idx int, now int64) {
	t := &d.cfg.Timing
	q := &ch.queue[idx]
	var start int64
	if q.acc.Write {
		start = now + int64(t.CWL)
		b.readyPre = max64(b.readyPre, start+int64(t.TBurst)+int64(t.TWR))
		ch.pendingWr--
		d.ctr.DRAMWrites++
	} else {
		start = now + int64(t.CL)
		b.readyPre = max64(b.readyPre, now+int64(t.TRTP))
		d.ctr.DRAMReads++
	}
	done := start + int64(t.TBurst)
	if !q.acc.Write {
		d.resp = append(d.resp, Response{Line: q.acc.Line, Slice: q.acc.Slice, Tag: q.acc.Tag, Done: done})
		if done < d.respMinDone {
			d.respMinDone = done
		}
	}
	d.freed = true
	ch.busFree = done
	ch.lastColGroup = q.group
	ch.lastColCycle = now
	ch.lastColWrite = q.acc.Write
	d.ctr.DRAMBusCycles += int64(t.TBurst)
	switch {
	case q.sawConflict:
		d.ctr.RowConflicts++
	case q.needsAct:
		d.ctr.RowMisses++
	default:
		d.ctr.RowHits++
	}
	ch.queue = append(ch.queue[:idx], ch.queue[idx+1:]...)
}

// ConsumeFreed reports whether any command issue drained channel-
// queue space since the last call, clearing the flag. The engine uses
// it to wake slices blocked on CanEnqueue.
func (d *DRAM) ConsumeFreed() bool {
	f := d.freed
	d.freed = false
	return f
}

// Responses returns read responses whose data burst has completed by
// cycle now, removing them from the pending list. The returned slice
// is only valid until the next call.
func (d *DRAM) Responses(now int64) []Response {
	if len(d.resp) == 0 || d.respMinDone > now {
		return nil
	}
	ready := d.respReady[:0]
	n := 0
	minDone := int64(math.MaxInt64)
	for _, r := range d.resp {
		if r.Done <= now {
			ready = append(ready, r)
		} else {
			if r.Done < minDone {
				minDone = r.Done
			}
			d.resp[n] = r
			n++
		}
	}
	d.resp = d.resp[:n]
	d.respMinDone = minDone
	d.respReady = ready
	return ready
}

// NextEvent returns a lower bound on the earliest cycle after now at
// which the controller can change state: complete a read burst the
// engine must collect, flip or execute a refresh, or issue a column,
// precharge or activate command for a queued request. The bound may
// be early (write-drain eligibility is ignored — a too-early horizon
// only costs a recheck, never correctness); it is never late. Called
// on post-tick state, where every channel's cached wake is fresh.
func (d *DRAM) NextEvent(now int64) int64 {
	h := d.respMinDone
	for i := range d.channels {
		if w := d.channels[i].wake; w < h {
			h = w
		}
	}
	return h
}

func (d *DRAM) channelNextEvent(ch *channel, now int64) int64 {
	h := int64(math.MaxInt64)
	if now < ch.nextRef {
		h = ch.nextRef // refPending flips, blocking new columns
	}
	if ch.refPending {
		// The all-bank refresh issues once the bus drains and any
		// previous refresh window closes; nothing else can issue first.
		e := now + 1
		if ch.refUntil > e {
			e = ch.refUntil
		}
		if ch.busFree > e {
			e = ch.busFree
		}
		return e
	}
	if now < ch.refUntil {
		// Channel blocked by an in-progress refresh.
		if len(ch.queue) > 0 && ch.refUntil < h {
			h = ch.refUntil
		}
		return h
	}
	// The write-drain eligibility filter below mirrors tickChannel's;
	// it is stable across a skipped window (pendingWr frozen) and any
	// write enqueue resets the wake for a full rescan.
	preferWrites := ch.drainingWr && ch.pendingWr > 0
	prefersExist := false
	for i := range ch.queue {
		if ch.queue[i].acc.Write == preferWrites {
			prefersExist = true
			break
		}
	}
	for i := range ch.queue {
		q := &ch.queue[i]
		if prefersExist && q.acc.Write != preferWrites {
			continue
		}
		e := d.requestBound(ch, q)
		if e <= now+1 {
			return now + 1
		}
		if e < h {
			h = e
		}
	}
	return h
}

// Pending reports the number of in-flight and queued transactions,
// used by the engine's drain check.
func (d *DRAM) Pending() int {
	n := len(d.resp)
	for i := range d.channels {
		n += len(d.channels[i].queue)
	}
	return n
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
