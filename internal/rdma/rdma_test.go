package rdma

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"mgpucompress/internal/comp"
	"mgpucompress/internal/core"
	"mgpucompress/internal/fabric"
	"mgpucompress/internal/mem"
	"mgpucompress/internal/sim"
	"mgpucompress/internal/stats"
)

// l1stub plays the role of a GPU's L1 complex: it fires remote requests at
// the RDMA engine and records responses, or, when discard is set, counts
// them and releases them into it.
type l1stub struct {
	sim.ComponentBase
	port    *sim.Port
	reads   map[uint64]*mem.DataReady
	acks    map[uint64]*mem.WriteACK
	times   map[uint64]sim.Time
	discard *mem.Pool
	got     int
}

func newL1Stub(name string) *l1stub {
	s := &l1stub{
		ComponentBase: sim.NewComponentBase(name),
		reads:         make(map[uint64]*mem.DataReady),
		acks:          make(map[uint64]*mem.WriteACK),
		times:         make(map[uint64]sim.Time),
	}
	s.port = sim.NewPort(s, name+".port", 0)
	return s
}

func (s *l1stub) Handle(*sim.Event) error { return nil }

func (s *l1stub) NotifyRecv(now sim.Time, p *sim.Port) {
	for {
		m := p.Retrieve(now)
		if m == nil {
			return
		}
		if s.discard != nil {
			s.got++
			s.discard.Release(m)
			continue
		}
		switch rsp := m.(type) {
		case *mem.DataReady:
			s.reads[rsp.RspTo] = rsp
			s.times[rsp.RspTo] = now
		case *mem.WriteACK:
			s.acks[rsp.RspTo] = rsp
			s.times[rsp.RspTo] = now
		}
	}
}

func (s *l1stub) NotifyPortFree(sim.Time, *sim.Port) {}

// recorder captures Recorder callbacks for assertions.
type recorder struct {
	payloads []core.Decision
	lines    [][]byte
}

func (r *recorder) Payload(line []byte, d core.Decision) {
	r.lines = append(r.lines, append([]byte(nil), line...))
	r.payloads = append(r.payloads, d)
}

// testbed wires two GPUs' RDMA engines over a bus, each backed by one DRAM
// channel standing in for the local L2 complex.
type testbed struct {
	engine *sim.Engine
	part   *sim.Partition
	space  *mem.Space
	bus    *fabric.Bus
	rdmas  [2]*Engine
	drams  [2]*mem.DRAM
	l1s    [2]*l1stub
	rec    *recorder
}

func newTestbed(t *testing.T, policy func(gpu int) core.Policy) *testbed {
	t.Helper()
	tb := &testbed{
		engine: sim.NewEngine(),
		rec:    &recorder{},
	}
	tb.part = tb.engine.Partition(0)
	tb.space = mem.NewSpace(2)
	tb.bus = fabric.NewBus("bus", tb.part, fabric.DefaultConfig())

	for g := 0; g < 2; g++ {
		g := g
		tb.drams[g] = mem.NewDRAM("DRAM", tb.part, tb.space, mem.DefaultDRAMConfig())
		tb.l1s[g] = newL1Stub("L1")
		tb.rdmas[g] = New("RDMA", tb.part, policy(g), tb.rec)
		tb.rdmas[g].OwnerOf = tb.space.GPUOf
		tb.rdmas[g].L2Router = func(uint64) *sim.Port { return tb.drams[g].Top }
		tb.rdmas[g].RemotePort = func(gpu int) *sim.Port { return tb.rdmas[gpu].ToFabric }

		l1conn := sim.NewDirectConnection("l1conn", tb.part, 1)
		l1conn.Plug(tb.l1s[g].port)
		l1conn.Plug(tb.rdmas[g].ToL1)
		l2conn := sim.NewDirectConnection("l2conn", tb.part, 1)
		l2conn.Plug(tb.rdmas[g].ToL2)
		l2conn.Plug(tb.drams[g].Top)
		tb.bus.Attach(tb.rdmas[g].ToFabric, tb.part)
	}
	return tb
}

// read sends a read of the line at addr from GPU g's L1 stub and returns
// its ID; the engine releases the request itself.
func (tb *testbed) read(g int, addr uint64) uint64 {
	return tb.send(g, mem.PoolOf(tb.part).ReadReq(tb.l1s[g].port, tb.rdmas[g].ToL1, addr, comp.LineSize))
}

// write sends a write of data at addr from GPU g's L1 stub and returns its
// ID.
func (tb *testbed) write(g int, addr uint64, data []byte) uint64 {
	w := mem.PoolOf(tb.part).WriteReq(tb.l1s[g].port, tb.rdmas[g].ToL1, addr, len(data))
	copy(w.Data, data)
	return tb.send(g, w)
}

// traffic merges both engines' traffic ledgers.
func (tb *testbed) traffic() stats.Traffic {
	var t stats.Traffic
	for _, e := range tb.rdmas {
		t.Merge(&e.Traffic)
	}
	return t
}

func (tb *testbed) send(g int, m sim.Msg) uint64 {
	tb.l1s[g].port.Send(tb.engine.Now(), m)
	return m.Meta().ID
}

func compressibleLine() []byte {
	line := make([]byte, comp.LineSize)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(line[i*8:], 1<<50+uint64(i*3))
	}
	return line
}

// remoteAddr returns a line-aligned address owned by GPU 1.
func remoteAddr(s *mem.Space) uint64 {
	for p := uint64(0); ; p++ {
		addr := p * mem.PageSize
		if s.GPUOf(addr) == 1 {
			return addr
		}
	}
}

func TestRemoteReadRoundTrip(t *testing.T) {
	tb := newTestbed(t, func(int) core.Policy { return core.NewStatic(comp.BDI) })
	addr := remoteAddr(tb.space)
	want := compressibleLine()
	tb.space.Write(addr, want)

	req := tb.read(0, addr)
	if err := tb.engine.Run(); err != nil {
		t.Fatal(err)
	}
	rsp, ok := tb.l1s[0].reads[req]
	if !ok {
		t.Fatal("no response")
	}
	if !bytes.Equal(rsp.Data, want) {
		t.Errorf("data mismatch:\n got %x\nwant %x", rsp.Data, want)
	}
	traffic := tb.traffic()
	if traffic.RemoteReads != 1 || tb.rdmas[0].Traffic.RemoteReads != 1 {
		t.Errorf("counted %d remote reads", traffic.RemoteReads)
	}
	if len(tb.rec.payloads) != 1 || traffic.Lines != 1 {
		t.Fatalf("recorded %d payloads, counted %d lines", len(tb.rec.payloads), traffic.Lines)
	}
	if tb.rec.payloads[0].Alg != comp.BDI {
		t.Errorf("payload compressed with %v, want BDI", tb.rec.payloads[0].Alg)
	}
	// Header accounting: ReadReq (16) + DataReady (4).
	if traffic.HeaderBytes != 20 {
		t.Errorf("header bytes = %d, want 20", traffic.HeaderBytes)
	}
}

func TestRemoteWriteRoundTrip(t *testing.T) {
	tb := newTestbed(t, func(int) core.Policy { return core.NewStatic(comp.BDI) })
	addr := remoteAddr(tb.space)
	data := compressibleLine()

	req := tb.write(0, addr, data)
	if err := tb.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.l1s[0].acks[req]; !ok {
		t.Fatal("no ack")
	}
	if got := tb.space.Read(addr, comp.LineSize); !bytes.Equal(got, data) {
		t.Error("remote write not applied")
	}
	traffic := tb.traffic()
	if traffic.RemoteWrites != 1 || tb.rdmas[0].Traffic.RemoteWrites != 1 {
		t.Errorf("counted %d remote writes", traffic.RemoteWrites)
	}
	if tb.rec.payloads[0].Alg != comp.BDI {
		t.Errorf("write payload alg = %v", tb.rec.payloads[0].Alg)
	}
	if traffic.HeaderBytes != 20 { // WriteReq 16 + WriteACK 4
		t.Errorf("header bytes = %d, want 20", traffic.HeaderBytes)
	}
}

func TestIncompressiblePayloadShipsRawAndBypassesDecompressor(t *testing.T) {
	tb := newTestbed(t, func(int) core.Policy { return core.NewStatic(comp.BDI) })
	addr := remoteAddr(tb.space)
	// Random-ish line BDI cannot compress.
	line := make([]byte, comp.LineSize)
	for i := range line {
		line[i] = byte(i*37 + 11)
	}
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(line[i*8:], 0xDEADBEEF12345678+uint64(i)*0x1111111111111111)
	}
	tb.space.Write(addr, line)

	req := tb.read(0, addr)
	if err := tb.engine.Run(); err != nil {
		t.Fatal(err)
	}
	rsp, ok := tb.l1s[0].reads[req]
	if !ok {
		t.Fatal("no response")
	}
	if !bytes.Equal(rsp.Data, line) {
		t.Error("data mismatch")
	}
	d := tb.rec.payloads[0]
	if d.Alg != comp.None {
		t.Errorf("incompressible payload shipped as %v", d.Alg)
	}
	if d.DecompressionCycles != 0 {
		t.Error("raw payload charged decompression latency")
	}
}

func TestCompressionReducesWireBytes(t *testing.T) {
	run := func(policy func(int) core.Policy) uint64 {
		tb := newTestbed(t, policy)
		addr := remoteAddr(tb.space)
		tb.space.Write(addr, compressibleLine())
		for i := 0; i < 20; i++ {
			tb.read(0, addr+uint64(i%2)*64)
			if err := tb.engine.Run(); err != nil {
				t.Fatal(err)
			}
		}
		return tb.bus.TotalBytes()
	}
	raw := run(func(int) core.Policy { return core.Uncompressed{} })
	compressed := run(func(int) core.Policy { return core.NewStatic(comp.BDI) })
	if compressed >= raw {
		t.Errorf("BDI traffic %d not below raw traffic %d", compressed, raw)
	}
	// 20 lines compressed from 64 B to ≈18 B payloads: expect a large gap.
	if float64(compressed) > 0.6*float64(raw) {
		t.Errorf("traffic reduction too small: %d vs %d", compressed, raw)
	}
}

func TestCompressionLatencyDelaysResponse(t *testing.T) {
	respTime := func(policy func(int) core.Policy) sim.Time {
		tb := newTestbed(t, policy)
		addr := remoteAddr(tb.space)
		tb.space.Write(addr, compressibleLine())
		req := tb.read(0, addr)
		if err := tb.engine.Run(); err != nil {
			t.Fatal(err)
		}
		return tb.l1s[0].times[req]
	}
	raw := respTime(func(int) core.Policy { return core.Uncompressed{} })
	slow := respTime(func(int) core.Policy { return core.NewStatic(comp.CPackZ) })
	// C-Pack+Z adds 16 compression + 9 decompression cycles, but also
	// shortens the payload transfer. Verify the codec latency is actually
	// modeled: the response cannot be 25 cycles earlier than raw minus the
	// transfer savings (raw payload 64 B = 4 cycles vs compressed ≈ 2).
	if slow < raw {
		saved := raw - slow
		if saved > 3 { // max possible transfer saving
			t.Errorf("C-Pack+Z response at %d vs raw %d: latency not charged", slow, raw)
		}
	}
	if slow > raw+40 {
		t.Errorf("C-Pack+Z response at %d vs raw %d: too slow", slow, raw)
	}
}

func TestAdaptivePolicyOverRDMA(t *testing.T) {
	tb := newTestbed(t, func(int) core.Policy {
		return core.NewAdaptive(core.Config{Lambda: 6, SampleCount: 3, RunLength: 5})
	})
	addr := remoteAddr(tb.space)
	tb.space.Write(addr, compressibleLine())
	var reqs []uint64
	for i := 0; i < 30; i++ {
		req := tb.read(0, addr)
		reqs = append(reqs, req)
		if err := tb.engine.Run(); err != nil {
			t.Fatal(err)
		}
	}
	want := compressibleLine()
	for _, r := range reqs {
		rsp, ok := tb.l1s[0].reads[r]
		if !ok {
			t.Fatalf("request %d lost", r)
		}
		if !bytes.Equal(rsp.Data, want) {
			t.Fatalf("request %d data mismatch", r)
		}
	}
	// After sampling, BDI should be selected for this data.
	sawBDI := false
	for _, d := range tb.rec.payloads {
		if !d.Sampling && d.Alg == comp.BDI {
			sawBDI = true
		}
	}
	if !sawBDI {
		t.Error("adaptive policy never ran BDI in the running phase")
	}
}

func TestPartialLinePayloadShipsRaw(t *testing.T) {
	tb := newTestbed(t, func(int) core.Policy { return core.NewStatic(comp.FPC) })
	addr := remoteAddr(tb.space)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	req := tb.write(0, addr, data)
	if err := tb.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.l1s[0].acks[req]; !ok {
		t.Fatal("no ack")
	}
	if got := tb.space.Read(addr, 8); !bytes.Equal(got, data) {
		t.Error("partial write not applied")
	}
}

func TestManyOutstandingRequestsAllComplete(t *testing.T) {
	tb := newTestbed(t, func(int) core.Policy { return core.NewAdaptive(core.Config{Lambda: 6}) })
	addr := remoteAddr(tb.space)
	var reads []uint64
	var writes []uint64
	for i := 0; i < 200; i++ {
		lineAddr := addr + uint64(i%32)*64
		if i%3 == 0 {
			w := tb.write(0, lineAddr, compressibleLine())
			writes = append(writes, w)
		} else {
			r := tb.read(0, lineAddr)
			reads = append(reads, r)
		}
	}
	if err := tb.engine.Run(); err != nil {
		t.Fatal(err)
	}
	for _, r := range reads {
		if _, ok := tb.l1s[0].reads[r]; !ok {
			t.Fatalf("read %d lost", r)
		}
	}
	for _, w := range writes {
		if _, ok := tb.l1s[0].acks[w]; !ok {
			t.Fatalf("write %d lost", w)
		}
	}
	tb.checkQuiescent(t)
}

// checkQuiescent fails the test if an engine still tracks a request.
func (tb *testbed) checkQuiescent(t *testing.T) {
	t.Helper()
	for _, e := range tb.rdmas {
		if err := e.CheckQuiescent(); err != nil {
			t.Error(err)
		}
	}
}

// TestCheckQuiescentParkedWireMessage: after a completed round trip, a wire
// message still parked for the fabric fails the run-end check, and the
// check passes once it has left.
func TestCheckQuiescentParkedWireMessage(t *testing.T) {
	tb := newTestbed(t, func(int) core.Policy { return core.NewStatic(comp.BDI) })
	tb.read(0, remoteAddr(tb.space))
	if err := tb.engine.Run(); err != nil {
		t.Fatal(err)
	}
	tb.checkQuiescent(t)
	e := tb.rdmas[1]
	e.outQueue.Push(&WriteACK{})
	if err := e.CheckQuiescent(); err == nil || !strings.Contains(err.Error(), "1 wire messages parked") {
		t.Errorf("a parked wire message passed the check (%v)", err)
	}
	e.outQueue.Pop()
	tb.checkQuiescent(t)
}

// TestCheckQuiescentUnreleasedWireMessage: after a completed round trip,
// every wire message is back in its pool; one taken and never released
// fails the run-end check until it is.
func TestCheckQuiescentUnreleasedWireMessage(t *testing.T) {
	tb := newTestbed(t, func(int) core.Policy { return core.NewStatic(comp.BDI) })
	tb.read(0, remoteAddr(tb.space))
	tb.write(0, remoteAddr(tb.space), compressibleLine())
	if err := tb.engine.Run(); err != nil {
		t.Fatal(err)
	}
	tb.checkQuiescent(t)
	e := tb.rdmas[1]
	ack := e.wires.writeACK()
	if err := e.CheckQuiescent(); err == nil || !strings.Contains(err.Error(), "1 WriteACK and 0 NACK never released") {
		t.Errorf("an unreleased wire message passed the check (%v)", err)
	}
	ack.Release()
	tb.checkQuiescent(t)
}

// Sec. V: because the Comp Alg field travels with every packet, GPUs can
// run entirely different compression algorithms without exchanging any
// configuration. GPU 0 compresses with FPC while GPU 1 uses BDI; traffic in
// both directions must stay correct.
func TestHeterogeneousPoliciesPerGPU(t *testing.T) {
	tb := newTestbed(t, func(gpu int) core.Policy {
		if gpu == 0 {
			return core.NewStatic(comp.FPC)
		}
		return core.NewStatic(comp.BDI)
	})
	addr1 := remoteAddr(tb.space) // owned by GPU 1
	// An address owned by GPU 0.
	var addr0 uint64
	for p := uint64(0); ; p++ {
		if tb.space.GPUOf(p*mem.PageSize) == 0 {
			addr0 = p * mem.PageSize
			break
		}
	}
	want := compressibleLine()
	tb.space.Write(addr0, want)
	tb.space.Write(addr1, want)

	// GPU 0 reads GPU 1's line (GPU 1 compresses the response with BDI);
	// GPU 1 reads GPU 0's line (GPU 0 compresses with FPC).
	r01 := tb.read(0, addr1)
	r10 := tb.read(1, addr0)
	if err := tb.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if got := tb.l1s[0].reads[r01]; got == nil || !bytes.Equal(got.Data, want) {
		t.Error("GPU0 read via BDI-compressing owner failed")
	}
	if got := tb.l1s[1].reads[r10]; got == nil || !bytes.Equal(got.Data, want) {
		t.Error("GPU1 read via FPC-compressing owner failed")
	}
	// Both algorithms must appear in the recorded decisions.
	algs := map[comp.Algorithm]bool{}
	for _, d := range tb.rec.payloads {
		algs[d.Alg] = true
	}
	if !algs[comp.BDI] {
		t.Error("BDI never used")
	}
	// The compressible test line compresses under both codecs; FPC is the
	// one GPU 0 applies to its outgoing payload.
	if !algs[comp.FPC] && !algs[comp.None] {
		t.Error("FPC/None never used")
	}
}

func TestNopRecorder(t *testing.T) {
	var r NopRecorder
	r.Payload(nil, core.Decision{})
	// New must substitute a NopRecorder when given nil.
	engine := sim.NewEngine()
	e := New("R", engine.Partition(0), nil, nil)
	if e.Rec == nil {
		t.Fatal("nil recorder not substituted")
	}
	e.Rec.Payload(nil, core.Decision{}) // must not panic
}
