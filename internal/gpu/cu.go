package gpu

import (
	"fmt"

	"mgpucompress/internal/mem"
	"mgpucompress/internal/metrics"
	"mgpucompress/internal/sim"
)

// CUConfig parameterizes a compute unit.
type CUConfig struct {
	// IssueWidth is the number of memory operations a CU can issue per
	// cycle.
	IssueWidth int
	// MaxResidentWGs bounds the workgroups active on the CU at once.
	MaxResidentWGs  int
	PortBufferBytes int
}

// DefaultCUConfig returns GCN3-like defaults.
func DefaultCUConfig() CUConfig {
	return CUConfig{IssueWidth: 1, MaxResidentWGs: 4, PortBufferBytes: 8 * 1024}
}

type wgInstance struct {
	id            int
	kernel        *Kernel
	waves         []*Wave
	pendingWrites int
	doneWaves     int
}

func (wg *wgInstance) complete() bool {
	return wg.doneWaves == len(wg.waves) && wg.pendingWrites == 0
}

// CU is one compute unit. It executes the operation streams of its resident
// workgroups, interleaving wavefronts to hide memory latency the way a real
// GPU's SIMD scheduler does.
type CU struct {
	sim.ComponentBase
	part   *sim.Partition
	ticker *sim.Ticker
	cfg    CUConfig
	msgs   *mem.Pool

	// ToL1 connects to the CU's private L1 vector cache.
	ToL1  *sim.Port
	l1Dst *sim.Port

	queue  sim.FIFO[*wgInstance] // assigned, waiting for a resident slot
	active []*wgInstance

	pendingReads  map[uint64]*Wave
	pendingWrites map[uint64]*wgInstance

	// freeWGs and freeWaves recycle retired workgroups and their
	// wavefronts, op stacks and program state included.
	freeWGs   []*wgInstance
	freeWaves []*Wave

	// OnWGDone is called (same cycle) when a workgroup retires.
	OnWGDone func(wg int)

	rrIndex int
	// ready is issue's scratch list of issuable wavefronts, reused across
	// ticks.
	ready []*Wave

	// wake is the earliest busyUntil among resident wavefronts that are
	// not done, waiting or at a barrier, as of the end of the last tick: at
	// or before that tick when one was ready, TimeInf when none is
	// eligible. settled records that the last tick's retireWGs ended no
	// stream, so running it again changes nothing; only then may
	// scheduleNext promise quiet ticks with TickQuiet.
	wake    sim.Time
	settled bool

	// Stats
	WGsRetired      uint64
	MemReadsIssued  uint64
	MemWritesIssued uint64
	ComputeCycles   uint64
}

// RegisterMetrics exposes the CU counters under prefix (e.g. "gpu0/cu_3").
func (c *CU) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.CounterFunc(prefix+"/wgs_retired", func() uint64 { return c.WGsRetired })
	reg.CounterFunc(prefix+"/mem_reads_issued", func() uint64 { return c.MemReadsIssued })
	reg.CounterFunc(prefix+"/mem_writes_issued", func() uint64 { return c.MemWritesIssued })
	reg.CounterFunc(prefix+"/compute_cycles", func() uint64 { return c.ComputeCycles })
}

// NewCU builds a compute unit. A config that cannot run (no issue slot, no
// resident workgroup) is a wiring bug and panics.
func NewCU(name string, part *sim.Partition, cfg CUConfig) *CU {
	if cfg.IssueWidth <= 0 {
		panic(fmt.Sprintf("cu %s: IssueWidth %d must be positive", name, cfg.IssueWidth))
	}
	if cfg.MaxResidentWGs <= 0 {
		panic(fmt.Sprintf("cu %s: MaxResidentWGs %d must be positive", name, cfg.MaxResidentWGs))
	}
	c := &CU{
		ComponentBase: sim.NewComponentBase(name),
		part:          part,
		cfg:           cfg,
		msgs:          mem.PoolOf(part),
		pendingReads:  make(map[uint64]*Wave),
		pendingWrites: make(map[uint64]*wgInstance),
	}
	c.ToL1 = sim.NewPort(c, name+".ToL1", cfg.PortBufferBytes)
	c.ticker = sim.NewTicker(part, c)
	if sim.Poison {
		c.ticker.Check = c.checkQuiet
	}
	return c
}

// Assign queues a workgroup on this CU. Called by the command processor.
func (c *CU) Assign(now sim.Time, k *Kernel, wg int) {
	var inst *wgInstance
	if n := len(c.freeWGs); n > 0 {
		inst = c.freeWGs[n-1]
		c.freeWGs = c.freeWGs[:n-1]
	} else {
		inst = new(wgInstance)
	}
	inst.id, inst.kernel = wg, k
	c.queue.Push(inst)
	c.ticker.TickNow(now)
}

// Idle reports whether the CU has no work at all.
func (c *CU) Idle() bool {
	return c.queue.Len() == 0 && len(c.active) == 0
}

// NotifyRecv implements sim.Component.
func (c *CU) NotifyRecv(now sim.Time, _ *sim.Port) { c.ticker.TickNow(now) }

// NotifyPortFree implements sim.Component.
func (c *CU) NotifyPortFree(now sim.Time, _ *sim.Port) { c.ticker.TickNow(now) }

// Handle implements sim.Handler.
func (c *CU) Handle(e *sim.Event) error { return c.tick(e.Time()) }

// tick runs one cycle of the CU, always in full. The quiet ticks of an
// oversubscribed CU whose resident wavefronts all wait on memory are ghost
// ticks (see scheduleNext); the few a touched ghost's stale record brings
// here drain, activate, issue and retire nothing and re-arm the same way.
func (c *CU) tick(now sim.Time) error {
	c.drainResponses(now)
	c.activateWGs(now)
	c.issue(now)
	c.settled = !c.retireWGs(now)
	c.wake = c.nextWake(now)
	c.scheduleNext(now)
	return nil
}

// drainResponses hands every arrived response to its wavefront or
// workgroup.
func (c *CU) drainResponses(now sim.Time) {
	for {
		msg := c.ToL1.Retrieve(now)
		if msg == nil {
			return
		}
		switch rsp := msg.(type) {
		case *mem.DataReady:
			wf, ok := c.pendingReads[rsp.RspTo]
			if !ok {
				panic(fmt.Sprintf("%s: data for unknown read %d", c.Name(), rsp.RspTo))
			}
			delete(c.pendingReads, rsp.RspTo)
			wf.waiting = false
			// The completed read is still the head of the stream; pop it
			// and put its continuation's operations in front.
			rd := wf.head()
			then, arg := rd.then, rd.arg
			wf.pop()
			if then != nil {
				wf.resume(then, rsp.Data, arg)
			}
		case *mem.WriteACK:
			wg, ok := c.pendingWrites[rsp.RspTo]
			if !ok {
				panic(fmt.Sprintf("%s: ack for unknown write %d", c.Name(), rsp.RspTo))
			}
			delete(c.pendingWrites, rsp.RspTo)
			wg.pendingWrites--
		default:
			panic(fmt.Sprintf("%s: unexpected response %T", c.Name(), msg))
		}
		c.msgs.Release(msg)
	}
}

// activateWGs moves queued workgroups into free resident slots.
func (c *CU) activateWGs(now sim.Time) {
	for len(c.active) < c.cfg.MaxResidentWGs && c.queue.Len() > 0 {
		inst := c.queue.Pop()
		n := inst.kernel.Program.Waves(inst.id)
		if n == 0 {
			// Degenerate empty workgroup: retires immediately.
			c.WGsRetired++
			if c.OnWGDone != nil {
				c.OnWGDone(inst.id)
			}
			c.release(inst)
			continue
		}
		for i := 0; i < n; i++ {
			inst.waves = append(inst.waves, c.newWave(inst, i))
		}
		c.active = append(c.active, inst)
	}
}

// newWave takes a recycled wavefront (or a new one) for wave i of inst.
func (c *CU) newWave(inst *wgInstance, i int) *Wave {
	var w *Wave
	if n := len(c.freeWaves); n > 0 {
		w = c.freeWaves[n-1]
		c.freeWaves = c.freeWaves[:n-1]
	} else {
		w = new(Wave)
	}
	w.WG, w.Index, w.Step = inst.id, i, 0
	w.prog, w.wg = inst.kernel.Program, inst
	return w
}

// release recycles a retired workgroup and its wavefronts, clearing every
// field but the op stacks' capacity and the program state.
func (c *CU) release(inst *wgInstance) {
	for i, w := range inst.waves {
		*w = Wave{State: w.State, ops: w.ops[:0]}
		c.freeWaves = append(c.freeWaves, w)
		inst.waves[i] = nil
	}
	*inst = wgInstance{waves: inst.waves[:0]}
	c.freeWGs = append(c.freeWGs, inst)
}

// issue executes up to IssueWidth operations, rotating across wavefronts.
func (c *CU) issue(now sim.Time) {
	waves := c.ready[:0]
	for _, wg := range c.active {
		for _, wf := range wg.waves {
			if !wf.done && !wf.waiting && !wf.atBarrier && wf.busyUntil <= now {
				waves = append(waves, wf)
			}
		}
	}
	c.ready = waves
	if len(waves) == 0 {
		return
	}
	issued := 0
	for i := 0; i < len(waves) && issued < c.cfg.IssueWidth; i++ {
		wf := waves[(c.rrIndex+i)%len(waves)]
		if c.step(now, wf) {
			issued++
		}
	}
	c.rrIndex++
}

// step executes one operation of the wavefront; reports whether an issue
// slot was consumed.
func (c *CU) step(now sim.Time, wf *Wave) bool {
	if !wf.more() {
		wf.done = true
		wf.wg.doneWaves++
		return false
	}
	switch op := wf.head(); op.kind {
	case opCompute:
		cycles := op.n
		wf.pop()
		if cycles > 0 {
			wf.busyUntil = now + sim.Time(cycles)
			c.ComputeCycles += uint64(cycles)
		}
		return true
	case opRead:
		req := c.msgs.ReadReq(c.ToL1, c.l1Top(), op.addr, int(op.n))
		c.part.AssignMsgID(req)
		if !c.ToL1.Send(now, req) {
			c.msgs.Release(req)
			return false
		}
		c.MemReadsIssued++
		c.pendingReads[req.ID] = wf
		wf.waiting = true // op popped when the data returns
		return true
	case opWrite:
		req := c.msgs.WriteReq(c.ToL1, c.l1Top(), op.addr, len(op.data))
		copy(req.Data, op.data)
		c.part.AssignMsgID(req)
		if !c.ToL1.Send(now, req) {
			c.msgs.Release(req)
			return false
		}
		c.MemWritesIssued++
		wf.pop()
		wf.wg.pendingWrites++
		c.pendingWrites[req.ID] = wf.wg
		return true
	case opBarrier:
		wf.atBarrier = true
		c.tryReleaseBarrier(wf.wg)
		return false
	default:
		panic(fmt.Sprintf("%s: unknown op kind %d", c.Name(), op.kind))
	}
}

func (c *CU) tryReleaseBarrier(wg *wgInstance) {
	if wg.pendingWrites > 0 {
		return
	}
	for _, wf := range wg.waves {
		if !wf.done && !wf.atBarrier {
			return
		}
	}
	for _, wf := range wg.waves {
		if wf.atBarrier {
			wf.atBarrier = false
			wf.pop() // the barrier
		}
	}
}

// retireWGs releases barriers, ends streams that ran out outside step and
// retires complete workgroups. It reports whether it ended a stream: only
// then can a second call change anything, by releasing a barrier the ended
// wavefront was holding up.
func (c *CU) retireWGs(now sim.Time) bool {
	ended := false
	kept := c.active[:0]
	for _, wg := range c.active {
		// Barriers may become releasable when the last write drains.
		c.tryReleaseBarrier(wg)
		// Wavefronts whose stream ended outside step().
		for _, wf := range wg.waves {
			if !wf.done && !wf.waiting && !wf.more() {
				wf.done = true
				wg.doneWaves++
				ended = true
			}
		}
		if wg.complete() {
			c.WGsRetired++
			if c.OnWGDone != nil {
				c.OnWGDone(wg.id)
			}
			c.release(wg)
			continue
		}
		kept = append(kept, wg)
	}
	c.active = kept
	return ended
}

// nextWake returns the earliest busyUntil among the wavefronts issue could
// pick once they are no longer busy, at most now when one is ready already.
func (c *CU) nextWake(now sim.Time) sim.Time {
	next := sim.TimeInf
	for _, wg := range c.active {
		for _, wf := range wg.waves {
			if wf.done || wf.waiting || wf.atBarrier {
				continue
			}
			if wf.busyUntil <= now {
				return now
			}
			if wf.busyUntil < next {
				next = wf.busyUntil
			}
		}
	}
	return next
}

// scheduleNext decides when the CU needs to run again. An oversubscribed CU
// whose resident slots are all taken, that is settled and whose wake is
// still ahead re-arms with TickQuiet: until wake, every tick it would run
// drains, activates, issues and retires nothing unless a response, an
// assignment or a freed port touches the ticker first.
func (c *CU) scheduleNext(now sim.Time) {
	switch {
	case c.queue.Len() > 0 && len(c.active) >= c.cfg.MaxResidentWGs && c.settled && c.wake > now:
		c.ticker.TickQuiet(now, c.wake)
	case c.queue.Len() > 0 || c.wake <= now:
		c.ticker.TickLater(now)
	case c.wake != sim.TimeInf:
		c.ticker.TickAt(c.wake)
	}
	// Otherwise everything is waiting on memory or barriers; responses
	// re-tick via NotifyRecv.
}

// checkQuiet runs, read-only, what a ghost tick skips, and panics if any
// of it would have changed something: a buffered response, a free slot
// with a workgroup waiting, a ready wavefront, a releasable barrier, a
// stream that ran out or a complete workgroup. Poison builds set it as the
// ticker's Check hook, which runs on every ghost tick.
func (c *CU) checkQuiet(now sim.Time) {
	if c.ToL1.Buffered() != 0 {
		panic(fmt.Sprintf("%s: quiet tick at %d skipped a buffered response", c.Name(), now))
	}
	if c.queue.Len() > 0 && len(c.active) < c.cfg.MaxResidentWGs {
		panic(fmt.Sprintf("%s: quiet tick at %d skipped a workgroup activation", c.Name(), now))
	}
	for _, wg := range c.active {
		releasable := wg.pendingWrites == 0
		atBarrier := false
		for _, wf := range wg.waves {
			switch {
			case wf.done:
			case wf.atBarrier:
				atBarrier = true
			case wf.waiting:
				releasable = false
			case wf.busyUntil <= now:
				panic(fmt.Sprintf("%s: quiet tick at %d skipped a ready wavefront", c.Name(), now))
			case len(wf.ops) == 0:
				panic(fmt.Sprintf("%s: quiet tick at %d skipped an ended stream", c.Name(), now))
			default:
				releasable = false
			}
		}
		if atBarrier && releasable {
			panic(fmt.Sprintf("%s: quiet tick at %d skipped a releasable barrier", c.Name(), now))
		}
		if wg.complete() {
			panic(fmt.Sprintf("%s: quiet tick at %d skipped a complete workgroup", c.Name(), now))
		}
	}
}

// l1Top returns the destination port for memory operations.
func (c *CU) l1Top() *sim.Port {
	conn := c.ToL1.Connection()
	if conn == nil {
		panic(fmt.Sprintf("%s: ToL1 not connected", c.Name()))
	}
	if c.l1Dst == nil {
		panic(fmt.Sprintf("%s: L1 destination not set", c.Name()))
	}
	return c.l1Dst
}

// CheckQuiescent reports an error if the CU still waits for a read or a
// write acknowledgment.
func (c *CU) CheckQuiescent() error {
	if len(c.pendingReads) != 0 || len(c.pendingWrites) != 0 {
		return fmt.Errorf("%s: %d reads and %d writes outstanding",
			c.Name(), len(c.pendingReads), len(c.pendingWrites))
	}
	return nil
}

// SetL1 points the CU at its L1 cache's top port.
func (c *CU) SetL1(p *sim.Port) { c.l1Dst = p }
