//go:build !race

package cache

import (
	"testing"

	"mgpucompress/internal/mem"
	"mgpucompress/internal/sim"
)

// The cache's allocation pins: once the partition's message pool, the MSHR
// free list and the maps have warmed up, neither a hit nor a miss
// allocates. The race detector instruments allocations, so the file is
// excluded under -race.

// sink counts the responses arriving at a port and releases them.
type sink struct {
	sim.ComponentBase
	port *sim.Port
	msgs *mem.Pool
	got  int
}

func (s *sink) Handle(*sim.Event) error { return nil }

func (s *sink) NotifyRecv(now sim.Time, p *sim.Port) {
	for m := p.Retrieve(now); m != nil; m = p.Retrieve(now) {
		s.got++
		s.msgs.Release(m)
	}
}

func (s *sink) NotifyPortFree(sim.Time, *sim.Port) {}

// pinBench returns a function that sends one pooled read request for addr
// through an L1 in front of a DRAM channel and runs it to completion.
func pinBench(t *testing.T, addr uint64) (read func(), c *Cache) {
	engine := sim.NewEngine()
	part := engine.Partition(0)
	space := mem.NewSpace(4)
	dram := mem.NewDRAM("DRAM", part, space, mem.DefaultDRAMConfig())
	c = New("L1", part, space, L1Config())
	s := &sink{ComponentBase: sim.NewComponentBase("sink"), msgs: mem.PoolOf(part)}
	s.port = sim.NewPort(s, "sink.port", 0)
	top := sim.NewDirectConnection("top", part, 1)
	top.Plug(s.port)
	top.Plug(c.Top)
	bottom := sim.NewDirectConnection("bottom", part, 1)
	bottom.Plug(c.Bottom)
	bottom.Plug(dram.Top)
	c.Router = func(uint64) *sim.Port { return dram.Top }
	return func() {
		want := s.got + 1
		if !s.port.Send(engine.Now(), s.msgs.ReadReq(s.port, c.Top, addr, mem.LineSize)) {
			t.Fatal("send rejected")
		}
		if err := engine.Run(); err != nil {
			t.Fatal(err)
		}
		if s.got != want {
			t.Fatal("no response")
		}
		if live := s.msgs.Live(); live != 0 {
			t.Fatalf("%d messages live after a read", live)
		}
	}, c
}

func TestCacheHitAllocationFree(t *testing.T) {
	if sim.Poison {
		t.Skip("poison builds quarantine released messages instead of reusing them")
	}
	read, c := pinBench(t, 0x1000)
	read() // miss: installs the line
	if got := testing.AllocsPerRun(20, read); got != 0 {
		t.Errorf("%v allocs per hit, want 0", got)
	}
	if c.Misses != 1 {
		t.Errorf("%d misses, want 1", c.Misses)
	}
}

func TestCacheMissAllocationFree(t *testing.T) {
	if sim.Poison {
		t.Skip("poison builds quarantine released messages instead of reusing them")
	}
	read, c := pinBench(t, 0x1000)
	miss := func() {
		c.Invalidate()
		read()
	}
	miss() // warm-up: the message pool, the MSHR free list and the maps
	if got := testing.AllocsPerRun(20, miss); got != 0 {
		t.Errorf("%v allocs per miss, want 0", got)
	}
	if c.Hits != 0 {
		t.Errorf("%d hits, want 0", c.Hits)
	}
}
