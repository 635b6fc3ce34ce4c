package mem

import (
	"testing"

	"mgpucompress/internal/sim"
)

type portOwner struct {
	sim.ComponentBase
}

func (portOwner) Handle(*sim.Event) error        { return nil }
func (portOwner) NotifyRecv(sim.Time, *sim.Port) {}
func (portOwner) NotifyPortFree(sim.Time, *sim.Port) {
}

func TestMessageWireSizesMatchFig4(t *testing.T) {
	o := &portOwner{ComponentBase: sim.NewComponentBase("o")}
	src := sim.NewPort(o, "src", 0)
	dst := sim.NewPort(o, "dst", 0)

	// Fig. 4 header sizes: ReadReq 128 bits, DataReady 32 bits + payload,
	// WriteReq 128 bits + payload, WriteACK 32 bits.
	if r := NewReadReq(src, dst, 0x1000, 64); r.Bytes != 16 {
		t.Errorf("ReadReq = %d bytes, want 16", r.Bytes)
	}
	payload := make([]byte, 64)
	if d := NewDataReady(src, dst, 7, 0x1000, payload); d.Bytes != 4+64 {
		t.Errorf("DataReady = %d bytes, want 68", d.Bytes)
	}
	if w := NewWriteReq(src, dst, 0x1000, payload); w.Bytes != 16+64 {
		t.Errorf("WriteReq = %d bytes, want 80", w.Bytes)
	}
	if a := NewWriteACK(src, dst, 7, 0x1000); a.Bytes != 4 {
		t.Errorf("WriteACK = %d bytes, want 4", a.Bytes)
	}
}

func TestMessageRouting(t *testing.T) {
	o := &portOwner{ComponentBase: sim.NewComponentBase("o")}
	src := sim.NewPort(o, "src", 0)
	dst := sim.NewPort(o, "dst", 0)
	r := NewReadReq(src, dst, 0xABC, 64)
	if r.Src != src || r.Dst != dst || r.Addr != 0xABC || r.N != 64 {
		t.Error("ReadReq fields wrong")
	}
	d := NewDataReady(src, dst, 42, 0xABC, []byte{1})
	if d.RspTo != 42 || len(d.Data) != 1 {
		t.Error("DataReady fields wrong")
	}
	// Meta must return the embedded metadata (same pointer across calls).
	if d.Meta() != d.Meta() || d.Meta().Dst != dst {
		t.Error("Meta inconsistent")
	}
}

func TestPartialPayloadSizes(t *testing.T) {
	o := &portOwner{ComponentBase: sim.NewComponentBase("o")}
	src := sim.NewPort(o, "src", 0)
	dst := sim.NewPort(o, "dst", 0)
	for _, n := range []int{1, 4, 17, 63} {
		w := NewWriteReq(src, dst, 0, make([]byte, n))
		if w.Bytes != 16+n {
			t.Errorf("WriteReq(%d) = %d bytes", n, w.Bytes)
		}
		d := NewDataReady(src, dst, 1, 0, make([]byte, n))
		if d.Bytes != 4+n {
			t.Errorf("DataReady(%d) = %d bytes", n, d.Bytes)
		}
	}
}
