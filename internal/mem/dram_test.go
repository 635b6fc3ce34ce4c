package mem

import (
	"bytes"
	"testing"

	"mgpucompress/internal/sim"
)

// requester is a minimal component that fires requests at a DRAM channel
// and records responses.
type requester struct {
	sim.ComponentBase
	msgs      *Pool
	port      *sim.Port
	responses []sim.Msg
	recvTimes []sim.Time
}

func newRequester(name string) *requester {
	r := &requester{ComponentBase: sim.NewComponentBase(name)}
	r.port = sim.NewPort(r, name+".port", 0)
	return r
}

func (r *requester) Handle(*sim.Event) error { return nil }

func (r *requester) NotifyRecv(now sim.Time, p *sim.Port) {
	for {
		m := p.Retrieve(now)
		if m == nil {
			return
		}
		r.responses = append(r.responses, m)
		r.recvTimes = append(r.recvTimes, now)
	}
}

func (r *requester) NotifyPortFree(sim.Time, *sim.Port) {}

func buildDRAMTestbench(t *testing.T, cfg DRAMConfig) (*sim.Engine, *Space, *DRAM, *requester) {
	t.Helper()
	engine := sim.NewEngine()
	part := engine.Partition(0)
	space := NewSpace(4)
	dram := NewDRAM("DRAM", part, space, cfg)
	req := newRequester("req")
	req.msgs = PoolOf(part)
	conn := sim.NewDirectConnection("link", part, 1)
	conn.Plug(dram.Top)
	conn.Plug(req.port)
	return engine, space, dram, req
}

func TestDRAMReadReturnsData(t *testing.T) {
	engine, space, dram, req := buildDRAMTestbench(t, DefaultDRAMConfig())
	space.Write(256, []byte{1, 2, 3, 4})

	r := req.msgs.ReadReq(req.port, dram.Top, 256, 64)
	req.port.Send(0, r)
	id := r.ID // the DRAM releases r
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(req.responses) != 1 {
		t.Fatalf("got %d responses", len(req.responses))
	}
	rsp, ok := req.responses[0].(*DataReady)
	if !ok {
		t.Fatalf("response is %T", req.responses[0])
	}
	if rsp.RspTo != id {
		t.Errorf("RspTo = %d, want %d", rsp.RspTo, id)
	}
	if !bytes.Equal(rsp.Data[:4], []byte{1, 2, 3, 4}) {
		t.Errorf("data = %v", rsp.Data[:4])
	}
	// Latency: 1 (link) + 120 (access) + 1 (link back) = 122.
	if got := req.recvTimes[0]; got != 122 {
		t.Errorf("response at %d, want 122", got)
	}
	if dram.Reads != 1 || dram.Writes != 0 {
		t.Errorf("counters = %d/%d", dram.Reads, dram.Writes)
	}
}

func TestDRAMWriteAppliesAndAcks(t *testing.T) {
	engine, space, dram, req := buildDRAMTestbench(t, DefaultDRAMConfig())
	data := []byte{9, 8, 7, 6, 5}
	w := req.msgs.WriteReq(req.port, dram.Top, 512, len(data))
	copy(w.Data, data)
	req.port.Send(0, w)
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(req.responses) != 1 {
		t.Fatalf("got %d responses", len(req.responses))
	}
	if _, ok := req.responses[0].(*WriteACK); !ok {
		t.Fatalf("response is %T", req.responses[0])
	}
	if got := space.Read(512, 5); !bytes.Equal(got, data) {
		t.Errorf("memory = %v, want %v", got, data)
	}
	if dram.Writes != 1 {
		t.Errorf("write counter = %d", dram.Writes)
	}
}

func TestDRAMThroughputLimit(t *testing.T) {
	cfg := DefaultDRAMConfig()
	cfg.AccessLatency = 10
	cfg.CyclesPerLine = 4
	engine, _, dram, req := buildDRAMTestbench(t, cfg)

	const n = 16
	for i := 0; i < n; i++ {
		req.port.Send(0, req.msgs.ReadReq(req.port, dram.Top, uint64(i*64), 64))
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(req.responses) != n {
		t.Fatalf("got %d responses, want %d", len(req.responses), n)
	}
	// Service rate is one line per 4 cycles: the last response cannot
	// arrive before (n-1)*4 + access + links.
	minLast := sim.Time((n-1)*4 + 10 + 2)
	if got := req.recvTimes[n-1]; got < minLast {
		t.Errorf("last response at %d, violates line rate (min %d)", got, minLast)
	}
	// And the channel must not be slower than ~1 line/4cy plus constants.
	if got := req.recvTimes[n-1]; got > minLast+8 {
		t.Errorf("last response at %d, too slow (expected ≈%d)", got, minLast)
	}
}

func TestDRAMInflightLimitBackpressure(t *testing.T) {
	cfg := DefaultDRAMConfig()
	cfg.AccessLatency = 100
	cfg.CyclesPerLine = 1
	cfg.MaxInflight = 2
	engine, _, dram, req := buildDRAMTestbench(t, cfg)

	for i := 0; i < 6; i++ {
		req.port.Send(0, req.msgs.ReadReq(req.port, dram.Top, uint64(i*64), 64))
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(req.responses) != 6 {
		t.Fatalf("got %d responses, want 6", len(req.responses))
	}
	// With only 2 in flight and 100-cycle access, batches of 2 complete
	// roughly every 100 cycles: the last response must be after 300.
	if got := req.recvTimes[5]; got < 300 {
		t.Errorf("last response at %d: inflight limit not enforced", got)
	}
}

func TestDRAMRejectsUnknownMessage(t *testing.T) {
	engine, _, dram, req := buildDRAMTestbench(t, DefaultDRAMConfig())
	ack := req.msgs.WriteACK(req.port, dram.Top, 1, 0)
	req.port.Send(0, ack)
	defer func() {
		if recover() == nil {
			t.Error("unknown message type did not panic")
		}
	}()
	_ = engine.Run()
}
