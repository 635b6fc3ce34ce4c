//go:build !race

package mem

import (
	"testing"

	"mgpucompress/internal/sim"
)

// ReadInto and the fixed-width readers copy into caller storage and
// allocate nothing. The race detector instruments allocations, so the file
// is excluded under -race.
func TestReadIntoAllocationFree(t *testing.T) {
	s := NewSpace(4)
	s.Write(PageSize-8, make([]byte, 16)) // the line read below straddles a page
	var line [LineSize]byte
	var sum uint64
	got := testing.AllocsPerRun(20, func() {
		s.ReadInto(PageSize-32, line[:])
		s.ReadInto(8*PageSize, line[:]) // unwritten memory
		sum += uint64(s.ReadUint32(PageSize-2)) + s.ReadUint64(16)
	})
	if got != 0 {
		t.Errorf("%v allocs per run, want 0", got)
	}
}

// releaser counts the responses arriving at its port and releases them.
type releaser struct {
	portOwner
	msgs *Pool
	got  int
}

func (r *releaser) NotifyRecv(now sim.Time, p *sim.Port) {
	for m := p.Retrieve(now); m != nil; m = p.Retrieve(now) {
		r.got++
		r.msgs.Release(m)
	}
}

// A read and a write through a DRAM channel, requests and responses drawn
// from the partition's pool and released by their receivers, allocate
// nothing once the pool and the queues are warm.
func TestPooledRoundTripAllocationFree(t *testing.T) {
	if sim.Poison {
		t.Skip("poison builds quarantine released messages instead of reusing them")
	}
	engine := sim.NewEngine()
	part := engine.Partition(0)
	dram := NewDRAM("DRAM", part, NewSpace(4), DefaultDRAMConfig())
	r := &releaser{msgs: PoolOf(part)}
	port := sim.NewPort(r, "req", 0)
	conn := sim.NewDirectConnection("link", part, 1)
	conn.Plug(dram.Top)
	conn.Plug(port)
	got := testing.AllocsPerRun(20, func() {
		want := r.got + 2
		w := r.msgs.WriteReq(port, dram.Top, 0x80, LineSize)
		w.Data[0] = 1
		port.Send(engine.Now(), w)
		port.Send(engine.Now(), r.msgs.ReadReq(port, dram.Top, 0x80, LineSize))
		if err := engine.Run(); err != nil {
			t.Fatal(err)
		}
		if r.got != want || r.msgs.Live() != 0 {
			t.Fatalf("%d responses, %d messages live", r.got, r.msgs.Live())
		}
	})
	if got != 0 {
		t.Errorf("%v allocs per round trip, want 0", got)
	}
}
