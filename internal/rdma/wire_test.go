package rdma

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mgpucompress/internal/comp"
	"mgpucompress/internal/mem"
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
