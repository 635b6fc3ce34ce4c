package rdma

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mgpucompress/internal/comp"
	"mgpucompress/internal/core"
	"mgpucompress/internal/mem"
	"mgpucompress/internal/sim"
)

// The packed header sizes must equal the byte sizes charged on the fabric.
func TestWireHeaderSizesMatchAccounting(t *testing.T) {
	cases := []struct {
		h    Header
		want int
	}{
		{Header{Type: MsgRead, Seq: 1, Addr: 0x123456789AB, Length: 64}, mem.ReadReqHeaderBytes},
		{Header{Type: MsgDataReady, Seq: 2, CompAlg: comp.BDI}, mem.DataReadyHeaderBytes},
		{Header{Type: MsgWrite, Seq: 3, Addr: 0xFFF, CompAlg: comp.FPC, Length: 64}, mem.WriteReqHeaderBytes},
		{Header{Type: MsgWriteACK, Seq: 4}, mem.WriteACKHeaderBytes},
	}
	for _, c := range cases {
		buf, err := EncodeHeader(c.h)
		if err != nil {
			t.Fatalf("%v: %v", c.h.Type, err)
		}
		if len(buf) != c.want {
			t.Errorf("%v header = %d bytes, want %d", c.h.Type, len(buf), c.want)
		}
	}
}

// Property: encode/decode is the identity for every valid header.
func TestWireHeaderRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := Header{
			Type:    MsgType(rng.Intn(4)),
			Seq:     uint16(rng.Uint32()),
			Addr:    rng.Uint64() & addrMask,
			Length:  rng.Uint32(),
			CompAlg: comp.Algorithm(rng.Intn(5)),
		}
		// Fields not carried by the type are dropped on the wire.
		switch h.Type {
		case MsgDataReady:
			h.Addr, h.Length = 0, 0
		case MsgWriteACK:
			h.Addr, h.Length, h.CompAlg = 0, 0, 0
		case MsgRead:
			h.CompAlg = 0
		}
		buf, err := EncodeHeader(h)
		if err != nil {
			return false
		}
		got, err := DecodeHeader(buf)
		if err != nil {
			return false
		}
		return got == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestWireHeaderRejectsOversizedFields(t *testing.T) {
	if _, err := EncodeHeader(Header{Type: MsgRead, Addr: 1 << 48}); err == nil {
		t.Error("49-bit address accepted")
	}
	if _, err := EncodeHeader(Header{Type: MsgDataReady, CompAlg: 16}); err == nil {
		t.Error("5-bit Comp Alg accepted")
	}
	if _, err := EncodeHeader(Header{Type: MsgType(9)}); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestWireDecodeTruncatedErrors(t *testing.T) {
	buf, err := EncodeHeader(Header{Type: MsgRead, Seq: 7, Addr: 0x1000, Length: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeHeader(buf[:4]); err == nil {
		t.Error("truncated Read header decoded")
	}
	if _, err := DecodeHeader(nil); err == nil {
		t.Error("empty header decoded")
	}
}

// The struct messages produce headers consistent with their fields.
func TestMessageHeaderExtraction(t *testing.T) {
	r := &ReadReq{Addr: 0xABCDE0, N: 64}
	r.ID = 0x1234
	h := r.Header()
	if h.Type != MsgRead || h.Seq != 0x1234 || h.Addr != 0xABCDE0 || h.Length != 64 {
		t.Errorf("ReadReq header = %+v", h)
	}
	buf, err := EncodeHeader(h)
	if err != nil || len(buf) != mem.ReadReqHeaderBytes {
		t.Fatalf("encode: %v, %d bytes", err, len(buf))
	}
	back, err := DecodeHeader(buf)
	if err != nil || back != h {
		t.Errorf("round trip %+v != %+v", back, h)
	}

	d := &DataReady{RspTo: 77, Payload: Payload{Alg: comp.CPackZ}}
	if hd := d.Header(); hd.Type != MsgDataReady || hd.Seq != 77 || hd.CompAlg != comp.CPackZ {
		t.Errorf("DataReady header = %+v", hd)
	}
	w := &WriteReq{Addr: 0x99, Payload: Payload{Alg: comp.None, RawLen: 64}}
	w.ID = 5
	if hw := w.Header(); hw.Type != MsgWrite || hw.CompAlg != comp.None || hw.Length != 64 {
		t.Errorf("WriteReq header = %+v", hw)
	}
	a := &WriteACK{RspTo: 9}
	if ha := a.Header(); ha.Type != MsgWriteACK || ha.Seq != 9 {
		t.Errorf("WriteACK header = %+v", ha)
	}
}

func TestMsgTypeString(t *testing.T) {
	for _, tt := range []MsgType{MsgRead, MsgDataReady, MsgWrite, MsgWriteACK} {
		if tt.String() == "" {
			t.Error("unnamed message type")
		}
	}
	if MsgType(9).String() != "MsgType(9)" {
		t.Error("unknown type string")
	}
}

// captureConn stands in for the fabric: it takes every message an engine
// sends on its fabric port and keeps it.
type captureConn struct {
	part *sim.Partition
	sent []sim.Msg
}

func (c *captureConn) Send(_ sim.Time, m sim.Msg) bool      { c.sent = append(c.sent, m); return true }
func (c *captureConn) NotifyBufferFree(sim.Time, *sim.Port) {}
func (c *captureConn) Plug(p *sim.Port)                     { p.SetConnection(c) }
func (c *captureConn) Partition() *sim.Partition            { return c.part }

// wireBench is a lone engine whose fabric port is a captureConn. Every
// remote address belongs to GPU 1, whose port is peer. The guard, when on,
// times out far past any run the tests make.
type wireBench struct {
	engine *sim.Engine
	e      *Engine
	fabric *captureConn
	peer   *sim.Port
	msgs   *mem.Pool
}

func newWireBench(policy core.Policy, guard bool) *wireBench {
	engine := sim.NewEngine()
	part := engine.Partition(0)
	b := &wireBench{engine: engine, fabric: &captureConn{part: part}, msgs: mem.PoolOf(part)}
	b.e = New("R", part, policy, nil)
	if guard {
		b.e.Guard = &GuardConfig{TimeoutCycles: 1 << 40, MaxAttempts: 3}
	}
	b.peer = sim.NewPort(b.e, "peer", 0)
	b.e.OwnerOf = func(uint64) int { return 1 }
	b.e.RemotePort = func(int) *sim.Port { return b.peer }
	b.fabric.Plug(b.e.ToFabric)
	return b
}

// local hands the engine a request from its L1s.
func (b *wireBench) local(t *testing.T, req sim.Msg) {
	t.Helper()
	req.Meta().Src = b.peer
	b.engine.Partition(0).AssignMsgID(req)
	if err := b.e.handleLocal(b.engine.Now(), req); err != nil {
		t.Fatal(err)
	}
}

// read and write issue a remote read of n bytes and a remote write of data.
func (b *wireBench) read(t *testing.T, n int) {
	b.local(t, b.msgs.ReadReq(nil, b.e.ToL1, 0x1000, n))
}

func (b *wireBench) write(t *testing.T, data []byte) {
	w := b.msgs.WriteReq(nil, b.e.ToL1, 0x1000, len(data))
	copy(w.Data, data)
	b.local(t, w)
}

// l2 hands the engine its L2's answer to a remote request it serves.
func (b *wireBench) l2(t *testing.T, rsp sim.Msg) {
	t.Helper()
	b.e.serving[99] = mem.ReplyTo{Src: b.peer, ID: 7}
	b.engine.Partition(0).AssignMsgID(rsp)
	if err := b.e.handleL2Response(b.engine.Now(), rsp); err != nil {
		t.Fatal(err)
	}
}

// sent runs out the compression latency and returns the one message the
// engine sent.
func (b *wireBench) sent(t *testing.T) sim.Msg {
	t.Helper()
	if err := b.engine.RunUntil(1000); err != nil {
		t.Fatal(err)
	}
	if len(b.fabric.sent) != 1 {
		t.Fatalf("engine sent %d wire messages, want 1", len(b.fabric.sent))
	}
	return b.fabric.sent[0]
}

// TestWireMessageBytes pins the fabric size the engine charges each wire
// message: its Fig. 4 header, its payload's wire bytes (raw, compressed or
// a partial line), and, under the guard, the CRC trailer of a
// payload-bearing message.
func TestWireMessageBytes(t *testing.T) {
	line := compressibleLine()
	packed := comp.NewBDI().Compress(line).WireBytes()
	if packed >= comp.LineSize {
		t.Fatalf("test line packs to %d bytes under BDI; want a compressed line", packed)
	}
	partial := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	l2Data := func(b *wireBench, data []byte) sim.Msg {
		d := b.msgs.DataReady(nil, b.e.ToL2, 99, 0x1000, len(data))
		copy(d.Data, data)
		return d
	}
	bdi := func() core.Policy { return core.NewStatic(comp.BDI) }
	raw := func() core.Policy { return core.Uncompressed{} }
	cases := []struct {
		name    string
		policy  func() core.Policy
		send    func(*testing.T, *wireBench)
		header  int
		payload int // bytes that carry a CRC trailer under the guard; -1: none
	}{
		{"ReadReq", bdi, func(t *testing.T, b *wireBench) { b.read(t, comp.LineSize) }, mem.ReadReqHeaderBytes, -1},
		{"WriteReq/raw", raw, func(t *testing.T, b *wireBench) { b.write(t, line) }, mem.WriteReqHeaderBytes, comp.LineSize},
		{"WriteReq/compressed", bdi, func(t *testing.T, b *wireBench) { b.write(t, line) }, mem.WriteReqHeaderBytes, packed},
		{"WriteReq/partial", bdi, func(t *testing.T, b *wireBench) { b.write(t, partial) }, mem.WriteReqHeaderBytes, len(partial)},
		{"DataReady/raw", raw, func(t *testing.T, b *wireBench) { b.l2(t, l2Data(b, line)) }, mem.DataReadyHeaderBytes, comp.LineSize},
		{"DataReady/compressed", bdi, func(t *testing.T, b *wireBench) { b.l2(t, l2Data(b, line)) }, mem.DataReadyHeaderBytes, packed},
		{"DataReady/partial", bdi, func(t *testing.T, b *wireBench) { b.l2(t, l2Data(b, partial)) }, mem.DataReadyHeaderBytes, len(partial)},
		{"WriteACK", bdi, func(t *testing.T, b *wireBench) {
			b.l2(t, b.msgs.WriteACK(nil, b.e.ToL2, 99, 0x1000))
		}, mem.WriteACKHeaderBytes, -1},
	}
	for _, guard := range []bool{false, true} {
		for _, c := range cases {
			name := c.name
			if guard {
				name += "/guard"
			}
			t.Run(name, func(t *testing.T) {
				b := newWireBench(c.policy(), guard)
				c.send(t, b)
				want := c.header
				if c.payload >= 0 {
					want += c.payload
					if guard {
						want += CRCTrailerBytes
					}
				}
				if got := b.sent(t).Meta().Bytes; got != want {
					t.Errorf("%s charged %d bytes, want %d", c.name, got, want)
				}
			})
		}
	}
	t.Run("NACK/guard", func(t *testing.T) {
		b := newWireBench(core.Uncompressed{}, true)
		w := &WriteReq{Addr: 0x1000, Payload: Payload{Alg: comp.BDI, Enc: comp.NewBDI().Compress(line), RawLen: comp.LineSize}}
		w.Src, w.ID = b.peer, 5
		w.Payload.CRC = PayloadCRC(w.Payload) + 1
		if err := b.e.handleWire(0, w); err != nil {
			t.Fatal(err)
		}
		nack, ok := b.sent(t).(*NACK)
		if !ok || nack.Bytes != NACKHeaderBytes || nack.RspTo != 5 || nack.Alg != comp.BDI {
			t.Errorf("corrupt write answered with %+v, want a %d-byte NACK of request 5 naming BDI", b.fabric.sent[0], NACKHeaderBytes)
		}
	})
}
