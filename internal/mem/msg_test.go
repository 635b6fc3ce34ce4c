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

// testPool returns a fresh partition's pool and two ports to route between.
func testPool() (msgs *Pool, src, dst *sim.Port) {
	o := &portOwner{ComponentBase: sim.NewComponentBase("o")}
	return PoolOf(sim.NewEngine().Partition(0)), sim.NewPort(o, "src", 0), sim.NewPort(o, "dst", 0)
}

func TestMessageWireSizesMatchFig4(t *testing.T) {
	msgs, src, dst := testPool()

	// Fig. 4 header sizes: ReadReq 128 bits, DataReady 32 bits + payload,
	// WriteReq 128 bits + payload, WriteACK 32 bits.
	if r := msgs.ReadReq(src, dst, 0x1000, 64); r.Bytes != 16 {
		t.Errorf("ReadReq = %d bytes, want 16", r.Bytes)
	}
	if d := msgs.DataReady(src, dst, 7, 0x1000, 64); d.Bytes != 4+64 {
		t.Errorf("DataReady = %d bytes, want 68", d.Bytes)
	}
	if w := msgs.WriteReq(src, dst, 0x1000, 64); w.Bytes != 16+64 {
		t.Errorf("WriteReq = %d bytes, want 80", w.Bytes)
	}
	if a := msgs.WriteACK(src, dst, 7, 0x1000); a.Bytes != 4 {
		t.Errorf("WriteACK = %d bytes, want 4", a.Bytes)
	}
}

func TestMessageRouting(t *testing.T) {
	msgs, src, dst := testPool()
	r := msgs.ReadReq(src, dst, 0xABC, 64)
	if r.Src != src || r.Dst != dst || r.Addr != 0xABC || r.N != 64 {
		t.Error("ReadReq fields wrong")
	}
	d := msgs.DataReady(src, dst, 42, 0xABC, 1)
	if d.RspTo != 42 || len(d.Data) != 1 {
		t.Error("DataReady fields wrong")
	}
	// Meta must return the embedded metadata (same pointer across calls).
	if d.Meta() != d.Meta() || d.Meta().Dst != dst {
		t.Error("Meta inconsistent")
	}
}

func TestPartialPayloadSizes(t *testing.T) {
	msgs, src, dst := testPool()
	for _, n := range []int{1, 4, 17, 63, LineSize + 1} {
		w := msgs.WriteReq(src, dst, 0, n)
		if w.Bytes != 16+n || len(w.Data) != n {
			t.Errorf("WriteReq(%d) = %d bytes carrying %d", n, w.Bytes, len(w.Data))
		}
		d := msgs.DataReady(src, dst, 1, 0, n)
		if d.Bytes != 4+n || len(d.Data) != n {
			t.Errorf("DataReady(%d) = %d bytes carrying %d", n, d.Bytes, len(d.Data))
		}
	}
}

// TestPoolRecyclesZeroedMessages: a released message comes back zeroed,
// with ID 0 so the next sender numbers it afresh, and the live count
// tracks every take and release.
func TestPoolRecyclesZeroedMessages(t *testing.T) {
	if sim.Poison {
		t.Skip("poison builds quarantine released messages instead of reusing them")
	}
	msgs, src, dst := testPool()
	d := msgs.DataReady(src, dst, 7, 0x40, LineSize)
	d.ID = 99
	d.Data[0] = 1
	a := msgs.WriteACK(src, dst, 7, 0x40)
	if live := msgs.Live(); live != 2 {
		t.Fatalf("%d live, want 2", live)
	}
	msgs.Release(d)
	msgs.Release(a)
	if err := msgs.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
	again := msgs.DataReady(src, dst, 8, 0x80, 4)
	if again != d {
		t.Fatal("a released message was not reused")
	}
	if again.ID != 0 || again.RspTo != 8 || again.Data[0] != 0 || len(again.Data) != 4 {
		t.Errorf("reused message not reset: ID %d, RspTo %d, data %v", again.ID, again.RspTo, again.Data)
	}
	if err := msgs.CheckQuiescent(); err == nil {
		t.Error("a live message passed the check")
	}
}

// TestPoolReleaseTwicePanics: a message is released exactly once, in every
// build; a poison build also overwrites what the releaser left behind.
func TestPoolReleaseTwicePanics(t *testing.T) {
	msgs, src, dst := testPool()
	d := msgs.DataReady(src, dst, 7, 0x40, LineSize)
	msgs.Release(d)
	if sim.Poison && (d.Data[0] != sim.PoisonByte || d.Addr != sim.PoisonWord || d.RspTo != sim.PoisonWord) {
		t.Errorf("released message not poisoned: %+v", d)
	}
	defer func() {
		if recover() == nil {
			t.Error("second release did not panic")
		}
	}()
	msgs.Release(d)
}

func TestPoolRejectsForeignMessages(t *testing.T) {
	msgs, _, _ := testPool()
	for _, m := range []sim.Msg{&ReadReq{}, &testMsg{}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("releasing %T did not panic", m)
				}
			}()
			msgs.Release(m)
		}()
	}
}

type testMsg struct{ sim.MsgMeta }

func (m *testMsg) Meta() *sim.MsgMeta { return &m.MsgMeta }
