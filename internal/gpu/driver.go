package gpu

import (
	"fmt"

	"mgpucompress/internal/mem"
	"mgpucompress/internal/metrics"
	"mgpucompress/internal/sim"
	"mgpucompress/internal/trace"
)

// Control message sizes on the fabric, in bytes. Launch commands and
// completion interrupts are header-only messages framed like the Fig. 4
// requests/responses.
const (
	LaunchCmdBytes  = 16
	KernelDoneBytes = 4
)

// LaunchCmd tells a GPU's command processor to run workgroups of a kernel.
// The kernel structure itself travels out of band (like a pre-loaded code
// object); the argument block was already written into GPU memory through
// the compressing fabric path.
type LaunchCmd struct {
	sim.MsgMeta
	Kernel *Kernel
	WGs    []int
	Seq    int
}

// Meta implements sim.Msg.
func (m *LaunchCmd) Meta() *sim.MsgMeta { return &m.MsgMeta }

// KernelDone signals that a GPU finished all its workgroups of a launch.
type KernelDone struct {
	sim.MsgMeta
	GPU int
	Seq int
}

// Meta implements sim.Msg.
func (m *KernelDone) Meta() *sim.MsgMeta { return &m.MsgMeta }

// CommandProcessor receives launch commands for one GPU and feeds the GPU's
// CUs round-robin.
type CommandProcessor struct {
	sim.ComponentBase
	part *sim.Partition
	GPU  int

	// ToFabric is the CP's bus endpoint.
	ToFabric *sim.Port

	CUs []*CU

	driverPort  *sim.Port
	onWGDone    func(int) // cp.wgDone, bound once
	outstanding int
	seq         int
	nextCU      int
	pendingDone bool
}

// NewCommandProcessor builds a CP for gpu.
func NewCommandProcessor(name string, part *sim.Partition, gpu int) *CommandProcessor {
	cp := &CommandProcessor{
		ComponentBase: sim.NewComponentBase(name),
		part:          part,
		GPU:           gpu,
	}
	cp.ToFabric = sim.NewPort(cp, name+".ToFabric", 4*1024)
	cp.onWGDone = cp.wgDone
	return cp
}

// Handle implements sim.Handler.
func (cp *CommandProcessor) Handle(e *sim.Event) error {
	return fmt.Errorf("%s: unexpected event at %d", cp.Name(), e.Time())
}

// NotifyRecv implements sim.Component: dispatch launches immediately.
func (cp *CommandProcessor) NotifyRecv(now sim.Time, p *sim.Port) {
	for {
		msg := p.Retrieve(now)
		if msg == nil {
			return
		}
		cmd, ok := msg.(*LaunchCmd)
		if !ok {
			panic(fmt.Sprintf("%s: unexpected message %T", cp.Name(), msg))
		}
		cp.driverPort = cmd.Src
		cp.seq = cmd.Seq
		cp.outstanding = len(cmd.WGs)
		if cp.outstanding == 0 {
			cp.signalDone(now)
			continue
		}
		for _, wg := range cmd.WGs {
			cu := cp.CUs[cp.nextCU%len(cp.CUs)]
			cp.nextCU++
			cu.OnWGDone = cp.onWGDone
			cu.Assign(now, cmd.Kernel, wg)
		}
	}
}

// NotifyPortFree implements sim.Component: retry a completion signal that
// could not enter the fabric.
func (cp *CommandProcessor) NotifyPortFree(now sim.Time, _ *sim.Port) {
	if cp.pendingDone {
		cp.signalDone(now)
	}
}

func (cp *CommandProcessor) wgDone(int) {
	cp.outstanding--
	if cp.outstanding == 0 {
		cp.signalDone(cp.part.Now())
	}
}

func (cp *CommandProcessor) signalDone(now sim.Time) {
	done := &KernelDone{GPU: cp.GPU, Seq: cp.seq}
	done.Src, done.Dst, done.Bytes = cp.ToFabric, cp.driverPort, KernelDoneBytes
	cp.part.AssignMsgID(done)
	if !cp.ToFabric.Send(now, done) {
		cp.pendingDone = true
		return
	}
	cp.pendingDone = false
}

// Driver is the host runtime: it owns kernel launches, writes argument
// blocks into each GPU's memory through its own RDMA engine (so the
// metadata rides the same compressed fabric path as data), and synchronizes
// kernel boundaries.
type Driver struct {
	sim.ComponentBase
	part  *sim.Partition
	space *mem.Space
	msgs  *mem.Pool

	// Ctrl is the driver's bus endpoint for launch/done control traffic.
	Ctrl *sim.Port
	// ToRDMA connects to the host RDMA's L1-side port for arg writes.
	ToRDMA *sim.Port

	// CPPorts maps GPU index to its command processor's fabric port.
	CPPorts []*sim.Port
	// RDMAPort is the host RDMA's ToL1 port (destination for arg writes).
	RDMAPort *sim.Port
	// InvalidateL1s is called at every kernel boundary, modeling the GCN
	// L1 invalidation between kernels.
	InvalidateL1s func()

	// ArgBuffers holds one per-GPU argument buffer, allocated by the
	// platform.
	ArgBuffers []mem.Buffer

	seq         int
	kernel      *Kernel
	assignments [][]int
	pendingAcks int
	pendingDone int

	// Spans, when non-nil, receives one kernel-track span per launch.
	Spans *trace.Recorder

	// Stats
	KernelsLaunched uint64
	ArgBytesWritten uint64
}

// RegisterMetrics exposes the driver counters under prefix (conventionally
// "driver").
func (d *Driver) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.CounterFunc(prefix+"/kernels_launched", func() uint64 { return d.KernelsLaunched })
	reg.CounterFunc(prefix+"/arg_bytes_written", func() uint64 { return d.ArgBytesWritten })
}

// NewDriver builds the host driver.
func NewDriver(name string, part *sim.Partition, space *mem.Space) *Driver {
	d := &Driver{
		ComponentBase: sim.NewComponentBase(name),
		part:          part,
		space:         space,
		msgs:          mem.PoolOf(part),
	}
	d.Ctrl = sim.NewPort(d, name+".Ctrl", 4*1024)
	d.ToRDMA = sim.NewPort(d, name+".ToRDMA", 8*1024)
	return d
}

// Handle implements sim.Handler.
func (d *Driver) Handle(e *sim.Event) error {
	return fmt.Errorf("%s: unexpected event at %d", d.Name(), e.Time())
}

// NotifyPortFree implements sim.Component.
func (d *Driver) NotifyPortFree(sim.Time, *sim.Port) {}

// NotifyRecv implements sim.Component.
func (d *Driver) NotifyRecv(now sim.Time, p *sim.Port) {
	for {
		msg := p.Retrieve(now)
		if msg == nil {
			return
		}
		switch rsp := msg.(type) {
		case *mem.WriteACK:
			d.msgs.Release(rsp)
			d.pendingAcks--
			if d.pendingAcks == 0 {
				d.broadcastLaunch(now)
			}
		case *KernelDone:
			if rsp.Seq != d.seq {
				panic(fmt.Sprintf("%s: stale completion for launch %d (current %d)", d.Name(), rsp.Seq, d.seq))
			}
			d.pendingDone--
			if d.pendingDone == 0 {
				d.finishKernel()
			}
		default:
			panic(fmt.Sprintf("%s: unexpected message %T", d.Name(), msg))
		}
	}
}

// Placement is the rule Launch deals a grid's workgroups to GPUs by
// (Sec. VI-A): round-robin over all CUs of all GPUs, GPU 0's CUs first, so
// workgroup wg goes to the GPU owning global CU wg mod (GPUs × CUsPerGPU).
// Workloads use it to place each workgroup's output in its own GPU's
// memory.
type Placement struct {
	GPUs, CUsPerGPU int
}

// Of returns the GPU that runs workgroup wg and wg's rank among that GPU's
// workgroups: the order in which the GPU's command processor receives it.
func (pl Placement) Of(wg int) (gpu, rank int) {
	total := pl.GPUs * pl.CUsPerGPU
	cu := wg % total
	return cu / pl.CUsPerGPU, wg/total*pl.CUsPerGPU + cu%pl.CUsPerGPU
}

// Ranks returns the ranks each GPU spans for a grid of n workgroups: every
// rank Of returns is below it. It counts whole rounds of CUsPerGPU, so the
// last, partial round is rounded up.
func (pl Placement) Ranks(n int) int {
	total := pl.GPUs * pl.CUsPerGPU
	return (n + total - 1) / total * pl.CUsPerGPU
}

// Launch starts a kernel across all GPUs and runs the engine until it
// completes. It must be called from host code (outside event handlers).
// Every GPU must have the same number of CUs.
func (d *Driver) Launch(k *Kernel) error {
	if err := k.Validate(); err != nil {
		return err
	}
	pl := Placement{GPUs: len(d.CPPorts)}
	for g, port := range d.CPPorts {
		n := len(port.Component().(*CommandProcessor).CUs)
		if g > 0 && n != pl.CUsPerGPU {
			return fmt.Errorf("gpu: GPU %d has %d CUs, GPU 0 has %d", g, n, pl.CUsPerGPU)
		}
		pl.CUsPerGPU = n
	}
	if pl.CUsPerGPU == 0 {
		return fmt.Errorf("gpu: no CUs available")
	}
	d.assignments = make([][]int, pl.GPUs)
	for wg := 0; wg < k.NumWorkgroups; wg++ {
		g, _ := pl.Of(wg)
		d.assignments[g] = append(d.assignments[g], wg)
	}

	d.seq++
	d.kernel = k
	d.pendingDone = pl.GPUs
	d.KernelsLaunched++

	now := d.part.Now()
	d.pendingAcks = 0
	if len(k.Args) > 0 {
		d.writeArgs(now, k)
	}
	if d.pendingAcks == 0 {
		d.broadcastLaunch(now)
	}
	if err := d.part.Engine().Run(); err != nil {
		return err
	}
	if d.pendingDone != 0 {
		return fmt.Errorf("gpu: kernel %q deadlocked with %d GPUs outstanding", k.Name, d.pendingDone)
	}
	// The kernel boundary: invalidate L1s from host code, once every
	// partition has reached its barrier. finishKernel only pauses the run,
	// so the invalidation never races a still-draining partition window.
	if d.InvalidateL1s != nil {
		d.InvalidateL1s()
	}
	if d.Spans != nil {
		d.Spans.Record(trace.Span{
			Track: "kernel",
			Name:  k.Name,
			Cat:   "kernel",
			Start: now,
			End:   d.part.Engine().Now(),
		})
	}
	return nil
}

// writeArgs writes the argument block into each GPU's argument buffer via
// the host RDMA, padded to whole cache lines (the padding zeros are real
// bytes on the wire).
func (d *Driver) writeArgs(now sim.Time, k *Kernel) {
	padded := append([]byte(nil), k.Args...)
	for len(padded)%mem.LineSize != 0 {
		padded = append(padded, 0)
	}
	for g := range d.CPPorts {
		buf := d.ArgBuffers[g]
		if uint64(len(padded)) > buf.Size() {
			panic(fmt.Sprintf("gpu: args of %d bytes exceed arg buffer %d", len(padded), buf.Size()))
		}
		for off := 0; off < len(padded); off += mem.LineSize {
			addr := buf.Addr(uint64(off))
			w := d.msgs.WriteReq(d.ToRDMA, d.RDMAPort, addr, mem.LineSize)
			copy(w.Data, padded[off:])
			d.part.AssignMsgID(w)
			if !d.ToRDMA.Send(now, w) {
				panic("gpu: driver RDMA rejected arg write")
			}
			d.pendingAcks++
			d.ArgBytesWritten += mem.LineSize
		}
	}
}

func (d *Driver) broadcastLaunch(now sim.Time) {
	for g, port := range d.CPPorts {
		cmd := &LaunchCmd{Kernel: d.kernel, WGs: d.assignments[g], Seq: d.seq}
		cmd.Src, cmd.Dst, cmd.Bytes = d.Ctrl, port, LaunchCmdBytes
		d.part.AssignMsgID(cmd)
		if !d.Ctrl.Send(now, cmd) {
			panic("gpu: driver control port rejected launch")
		}
	}
}

func (d *Driver) finishKernel() {
	d.part.Pause()
}
