package mem

import (
	"fmt"

	"mgpucompress/internal/metrics"
	"mgpucompress/internal/sim"
)

// DRAMConfig sets the channel timing. The defaults approximate one HBM
// channel of the R9 Nano: 512 GB/s aggregate over 32 channels at 1 GHz is
// 16 B/cycle/channel, i.e. a 64 B line every 4 cycles, with ~120 cycles of
// access latency.
type DRAMConfig struct {
	AccessLatency    sim.Time // cycles from dequeue to data
	CyclesPerLine    sim.Time // minimum spacing between line services
	MaxPendingWrites int      // writes buffered before back-pressure
	MaxPendingReads  int
	PortBufferBytes  int
}

// DefaultDRAMConfig returns the R9 Nano-like defaults.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{
		AccessLatency:    120,
		CyclesPerLine:    4,
		MaxPendingWrites: 64,
		MaxPendingReads:  64,
		PortBufferBytes:  16 * 1024,
	}
}

// DRAM models one memory channel. It services requests in order at a fixed
// line rate and applies the functional read/write on the Space when each
// request completes, so the data a response carries is exact.
type DRAM struct {
	sim.ComponentBase
	part   *sim.Partition
	ticker *sim.Ticker
	cfg    DRAMConfig
	space  *Space
	msgs   *Pool

	// Top is the single request/response port.
	Top *sim.Port

	busyUntil sim.Time
	inflight  int

	// Stats
	Reads  uint64
	Writes uint64
}

// RegisterMetrics exposes the channel counters under prefix (e.g.
// "gpu0/dram_1").
func (d *DRAM) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.CounterFunc(prefix+"/reads", func() uint64 { return d.Reads })
	reg.CounterFunc(prefix+"/writes", func() uint64 { return d.Writes })
}

// NewDRAM builds a channel controller bound to space.
func NewDRAM(name string, part *sim.Partition, space *Space, cfg DRAMConfig) *DRAM {
	d := &DRAM{
		ComponentBase: sim.NewComponentBase(name),
		part:          part,
		cfg:           cfg,
		space:         space,
		msgs:          PoolOf(part),
	}
	d.Top = sim.NewPort(d, name+".Top", cfg.PortBufferBytes)
	d.ticker = sim.NewTicker(part, d)
	return d
}

// NotifyRecv implements sim.Component.
func (d *DRAM) NotifyRecv(now sim.Time, _ *sim.Port) { d.ticker.TickNow(now) }

// NotifyPortFree implements sim.Component.
func (d *DRAM) NotifyPortFree(now sim.Time, _ *sim.Port) { d.ticker.TickNow(now) }

// Handle implements sim.Handler: ticks dequeue requests.
func (d *DRAM) Handle(e *sim.Event) error {
	d.tick(e.Time())
	return nil
}

// dramDone fires when the access for the record's request completes and its
// response can be sent.
type dramDone struct{ d *DRAM }

func (r dramDone) Handle(e *sim.Event) error { return r.d.complete(e.Time(), e.Msg()) }

func (d *DRAM) tick(now sim.Time) {
	for {
		if now < d.busyUntil {
			d.ticker.TickAt(d.busyUntil)
			return
		}
		msg := d.Top.Peek()
		if msg == nil {
			return
		}
		switch msg.(type) {
		case *ReadReq:
			if d.inflight >= d.cfg.MaxPendingReads {
				return
			}
		case *WriteReq:
			if d.inflight >= d.cfg.MaxPendingWrites {
				return
			}
		default:
			panic(fmt.Sprintf("%s: unexpected message %T", d.Name(), msg))
		}
		d.Top.Retrieve(now)
		d.inflight++
		d.busyUntil = now + d.cfg.CyclesPerLine
		d.part.Schedule(now+d.cfg.AccessLatency, dramDone{d}, msg, 0)
	}
}

// complete applies the request's access, sends its response and releases
// the request.
func (d *DRAM) complete(now sim.Time, msg sim.Msg) error {
	d.inflight--
	var rsp sim.Msg
	switch req := msg.(type) {
	case *ReadReq:
		d.Reads++
		r := d.msgs.DataReady(d.Top, req.Src, req.ID, req.Addr, req.N)
		d.space.ReadInto(req.Addr, r.Data)
		rsp = r
	case *WriteReq:
		d.Writes++
		d.space.Write(req.Addr, req.Data)
		rsp = d.msgs.WriteACK(d.Top, req.Src, req.ID, req.Addr)
	}
	d.msgs.Release(msg)
	if !d.Top.Send(now, rsp) {
		return fmt.Errorf("%s: response rejected by connection", d.Name())
	}
	d.ticker.TickNow(now)
	return nil
}

// CheckQuiescent reports an error if the channel still has accesses in
// flight.
func (d *DRAM) CheckQuiescent() error {
	if d.inflight != 0 {
		return fmt.Errorf("%s: %d accesses in flight", d.Name(), d.inflight)
	}
	return nil
}
