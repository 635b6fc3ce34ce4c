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

type wavefront struct {
	wg    *wgInstance
	queue []Op
	// busyUntil is set by ComputeOps.
	busyUntil sim.Time
	waiting   bool // blocked on an outstanding read
	atBarrier bool
	done      bool
}

type wgInstance struct {
	id            int
	kernel        *Kernel
	waves         []*wavefront
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

	// ToL1 connects to the CU's private L1 vector cache.
	ToL1  *sim.Port
	l1Dst *sim.Port

	queue  []*wgInstance // assigned, waiting for a resident slot
	active []*wgInstance

	pendingReads  map[uint64]*wavefront
	pendingWrites map[uint64]*wgInstance

	// OnWGDone is called (same cycle) when a workgroup retires.
	OnWGDone func(wg int)

	rrIndex int
	// ready is issue's scratch list of issuable wavefronts, reused across
	// ticks.
	ready []*wavefront

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

// NewCU builds a compute unit.
func NewCU(name string, part *sim.Partition, cfg CUConfig) *CU {
	if cfg.IssueWidth <= 0 {
		cfg.IssueWidth = 1
	}
	if cfg.MaxResidentWGs <= 0 {
		cfg.MaxResidentWGs = 4
	}
	c := &CU{
		ComponentBase: sim.NewComponentBase(name),
		part:          part,
		cfg:           cfg,
		pendingReads:  make(map[uint64]*wavefront),
		pendingWrites: make(map[uint64]*wgInstance),
	}
	c.ToL1 = sim.NewPort(c, name+".ToL1", cfg.PortBufferBytes)
	c.ticker = sim.NewTicker(part, c)
	return c
}

// Assign queues a workgroup on this CU. Called by the command processor.
func (c *CU) Assign(now sim.Time, k *Kernel, wg int) {
	inst := &wgInstance{id: wg, kernel: k}
	c.queue = append(c.queue, inst)
	c.ticker.TickNow(now)
}

// Idle reports whether the CU has no work at all.
func (c *CU) Idle() bool {
	return len(c.queue) == 0 && len(c.active) == 0
}

// NotifyRecv implements sim.Component.
func (c *CU) NotifyRecv(now sim.Time, _ *sim.Port) { c.ticker.TickNow(now) }

// NotifyPortFree implements sim.Component.
func (c *CU) NotifyPortFree(now sim.Time, _ *sim.Port) { c.ticker.TickNow(now) }

// Handle implements sim.Handler.
func (c *CU) Handle(e *sim.Event) error { return c.tick(e.Time()) }

func (c *CU) tick(now sim.Time) error {
	c.drainResponses(now)
	c.activateWGs(now)
	c.issue(now)
	c.retireWGs(now)
	c.scheduleNext(now)
	return nil
}

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
			// The completed op is still at the head of the queue; pop it
			// and splice in its continuation.
			op := wf.queue[0].(ReadOp)
			wf.queue = wf.queue[1:]
			if op.Then != nil {
				cont := op.Then(rsp.Data)
				if len(cont) > 0 {
					wf.queue = append(append([]Op{}, cont...), wf.queue...)
				}
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
	}
}

func (c *CU) activateWGs(now sim.Time) {
	for len(c.active) < c.cfg.MaxResidentWGs && len(c.queue) > 0 {
		inst := c.queue[0]
		c.queue = c.queue[1:]
		streams := inst.kernel.Program(inst.id)
		if len(streams) == 0 {
			// Degenerate empty workgroup: retires immediately.
			c.WGsRetired++
			if c.OnWGDone != nil {
				c.OnWGDone(inst.id)
			}
			continue
		}
		for _, ops := range streams {
			inst.waves = append(inst.waves, &wavefront{wg: inst, queue: ops})
		}
		c.active = append(c.active, inst)
	}
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
func (c *CU) step(now sim.Time, wf *wavefront) bool {
	if len(wf.queue) == 0 {
		wf.done = true
		wf.wg.doneWaves++
		return false
	}
	switch op := wf.queue[0].(type) {
	case ComputeOp:
		wf.queue = wf.queue[1:]
		if op.Cycles > 0 {
			wf.busyUntil = now + sim.Time(op.Cycles)
			c.ComputeCycles += uint64(op.Cycles)
		}
		return true
	case ReadOp:
		req := mem.NewReadReq(c.ToL1, c.l1Top(), op.Addr, op.N)
		c.part.AssignMsgID(req)
		if !c.ToL1.Send(now, req) {
			return false
		}
		c.MemReadsIssued++
		c.pendingReads[req.ID] = wf
		wf.waiting = true // op popped when the data returns
		return true
	case WriteOp:
		req := mem.NewWriteReq(c.ToL1, c.l1Top(), op.Addr, op.Data)
		c.part.AssignMsgID(req)
		if !c.ToL1.Send(now, req) {
			return false
		}
		c.MemWritesIssued++
		wf.queue = wf.queue[1:]
		wf.wg.pendingWrites++
		c.pendingWrites[req.ID] = wf.wg
		return true
	case BarrierOp:
		wf.atBarrier = true
		c.tryReleaseBarrier(wf.wg)
		return false
	default:
		panic(fmt.Sprintf("%s: unknown op %T", c.Name(), op))
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
			wf.queue = wf.queue[1:] // pop the barrier
		}
	}
}

func (c *CU) retireWGs(now sim.Time) {
	kept := c.active[:0]
	for _, wg := range c.active {
		// Barriers may become releasable when the last write drains.
		c.tryReleaseBarrier(wg)
		// Wavefronts whose queue emptied outside step().
		for _, wf := range wg.waves {
			if !wf.done && len(wf.queue) == 0 && !wf.waiting {
				wf.done = true
				wg.doneWaves++
			}
		}
		if wg.complete() {
			c.WGsRetired++
			if c.OnWGDone != nil {
				c.OnWGDone(wg.id)
			}
			continue
		}
		kept = append(kept, wg)
	}
	c.active = kept
}

// scheduleNext decides when the CU needs to run again.
func (c *CU) scheduleNext(now sim.Time) {
	if len(c.queue) > 0 {
		c.ticker.TickLater(now)
		return
	}
	next := sim.TimeInf
	anyReady := false
	for _, wg := range c.active {
		for _, wf := range wg.waves {
			if wf.done || wf.waiting || wf.atBarrier {
				continue
			}
			if wf.busyUntil > now {
				if wf.busyUntil < next {
					next = wf.busyUntil
				}
			} else {
				anyReady = true
			}
		}
	}
	if anyReady {
		c.ticker.TickLater(now)
	} else if next != sim.TimeInf {
		c.ticker.TickAt(next)
	}
	// Otherwise everything is waiting on memory or barriers; responses
	// re-tick via NotifyRecv.
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

// SetL1 points the CU at its L1 cache's top port.
func (c *CU) SetL1(p *sim.Port) { c.l1Dst = p }
