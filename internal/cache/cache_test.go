package cache

import (
	"bytes"
	"math/rand"
	"testing"

	"mgpucompress/internal/mem"
	"mgpucompress/internal/sim"
)

// collector records responses arriving at a port.
type collector struct {
	sim.ComponentBase
	port  *sim.Port
	reads map[uint64]*mem.DataReady
	acks  map[uint64]*mem.WriteACK
	times map[uint64]sim.Time
}

func newCollector(name string) *collector {
	c := &collector{
		ComponentBase: sim.NewComponentBase(name),
		reads:         make(map[uint64]*mem.DataReady),
		acks:          make(map[uint64]*mem.WriteACK),
		times:         make(map[uint64]sim.Time),
	}
	c.port = sim.NewPort(c, name+".port", 0)
	return c
}

func (c *collector) Handle(*sim.Event) error { return nil }

func (c *collector) NotifyRecv(now sim.Time, p *sim.Port) {
	for {
		m := p.Retrieve(now)
		if m == nil {
			return
		}
		switch rsp := m.(type) {
		case *mem.DataReady:
			c.reads[rsp.RspTo] = rsp
			c.times[rsp.RspTo] = now
		case *mem.WriteACK:
			c.acks[rsp.RspTo] = rsp
			c.times[rsp.RspTo] = now
		}
	}
}

func (c *collector) NotifyPortFree(sim.Time, *sim.Port) {}

type bench struct {
	engine *sim.Engine
	msgs   *mem.Pool
	space  *mem.Space
	cache  *Cache
	dram   *mem.DRAM
	cu     *collector
}

func newBench(t *testing.T, cfg Config) *bench {
	t.Helper()
	engine := sim.NewEngine()
	part := engine.Partition(0)
	space := mem.NewSpace(4)
	dcfg := mem.DefaultDRAMConfig()
	dcfg.AccessLatency = 100
	dram := mem.NewDRAM("DRAM", part, space, dcfg)
	c := New("L1", part, space, cfg)
	cu := newCollector("CU")

	top := sim.NewDirectConnection("top", part, 1)
	top.Plug(cu.port)
	top.Plug(c.Top)
	bottom := sim.NewDirectConnection("bottom", part, 1)
	bottom.Plug(c.Bottom)
	bottom.Plug(dram.Top)
	c.Router = func(uint64) *sim.Port { return dram.Top }

	return &bench{engine: engine, msgs: mem.PoolOf(part), space: space, cache: c, dram: dram, cu: cu}
}

// read sends a read request and returns its ID; the cache releases the
// request itself.
func (b *bench) read(t *testing.T, addr uint64, n int) uint64 {
	t.Helper()
	return send(t, b.engine, b.cu.port, b.msgs.ReadReq(b.cu.port, b.cache.Top, addr, n))
}

// write sends a write request and returns its ID.
func (b *bench) write(t *testing.T, addr uint64, data []byte) uint64 {
	t.Helper()
	return send(t, b.engine, b.cu.port, writeReq(b.msgs, b.cu.port, b.cache.Top, addr, data))
}

func writeReq(msgs *mem.Pool, src, dst *sim.Port, addr uint64, data []byte) *mem.WriteReq {
	w := msgs.WriteReq(src, dst, addr, len(data))
	copy(w.Data, data)
	return w
}

// send sends m from port now and returns the ID it was given.
func send(t *testing.T, engine *sim.Engine, port *sim.Port, m sim.Msg) uint64 {
	t.Helper()
	if !port.Send(engine.Now(), m) {
		t.Fatal("send rejected")
	}
	return m.Meta().ID
}

func TestCacheMissThenHit(t *testing.T) {
	b := newBench(t, L1Config())
	b.space.Write(0x1000, []byte{42, 43, 44})

	r1 := b.read(t, 0x1000, 64)
	if err := b.engine.Run(); err != nil {
		t.Fatal(err)
	}
	rsp1, ok := b.cu.reads[r1]
	if !ok {
		t.Fatal("no response to first read")
	}
	if rsp1.Data[0] != 42 || rsp1.Data[2] != 44 {
		t.Errorf("data = %v", rsp1.Data[:3])
	}
	missTime := b.cu.times[r1]
	if b.cache.Misses != 1 || b.cache.Hits != 0 {
		t.Errorf("counters hits=%d misses=%d", b.cache.Hits, b.cache.Misses)
	}

	start := b.engine.Now()
	r2 := b.read(t, 0x1008, 8) // same line
	if err := b.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if b.cache.Hits != 1 {
		t.Errorf("second access not a hit (hits=%d)", b.cache.Hits)
	}
	hitLatency := b.cu.times[r2] - start
	if missTime < 100 {
		t.Errorf("miss served in %d cycles, faster than DRAM latency", missTime)
	}
	if hitLatency > 10 {
		t.Errorf("hit served in %d cycles, slower than expected", hitLatency)
	}
}

func TestCacheCoalescesSameLineMisses(t *testing.T) {
	b := newBench(t, L1Config())
	r1 := b.read(t, 0x2000, 64)
	r2 := b.read(t, 0x2020, 32) // same line, still in flight
	r3 := b.read(t, 0x2000, 4)
	if err := b.engine.Run(); err != nil {
		t.Fatal(err)
	}
	for _, r := range []uint64{r1, r2, r3} {
		if _, ok := b.cu.reads[r]; !ok {
			t.Fatalf("request %d got no response", r)
		}
	}
	if b.cache.Misses != 1 {
		t.Errorf("misses = %d, want 1", b.cache.Misses)
	}
	if b.cache.Coalesced != 2 {
		t.Errorf("coalesced = %d, want 2", b.cache.Coalesced)
	}
	if b.dram.Reads != 1 {
		t.Errorf("DRAM saw %d reads, want 1", b.dram.Reads)
	}
}

func TestCacheWriteThrough(t *testing.T) {
	b := newBench(t, L1Config())
	data := []byte{7, 7, 7, 7}
	w := b.write(t, 0x3000, data)
	if err := b.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.cu.acks[w]; !ok {
		t.Fatal("write not acknowledged")
	}
	if got := b.space.Read(0x3000, 4); !bytes.Equal(got, data) {
		t.Errorf("memory = %v", got)
	}
	if b.dram.Writes != 1 {
		t.Errorf("DRAM writes = %d, want 1 (write-through)", b.dram.Writes)
	}
	// no-write-allocate: the line must not be cached.
	if b.cache.Contains(0x3000) {
		t.Error("write allocated a line in a no-write-allocate cache")
	}
}

func TestCacheReadAfterWriteSeesData(t *testing.T) {
	b := newBench(t, L1Config())
	w := b.write(t, 0x4000, []byte{1, 2, 3, 4})
	if err := b.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.cu.acks[w]; !ok {
		t.Fatal("no ack")
	}
	r := b.read(t, 0x4000, 4)
	if err := b.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if got := b.cu.reads[r].Data; !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Errorf("read-after-write = %v", got)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	cfg := L1Config()
	cfg.SizeBytes = 4 * 64 // 4 lines
	cfg.Ways = 2           // 2 sets × 2 ways
	b := newBench(t, cfg)

	// Fill set 0 (lines with even line index) beyond capacity.
	addrs := []uint64{0 * 64, 2 * 64, 4 * 64} // all map to set 0
	for _, a := range addrs {
		b.read(t, a, 64)
		if err := b.engine.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if b.cache.Contains(0) {
		t.Error("LRU line not evicted")
	}
	if !b.cache.Contains(2*64) || !b.cache.Contains(4*64) {
		t.Error("recently used lines evicted")
	}
}

func TestCacheInvalidate(t *testing.T) {
	b := newBench(t, L1Config())
	b.read(t, 0x5000, 64)
	if err := b.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if !b.cache.Contains(0x5000) {
		t.Fatal("line not cached")
	}
	b.cache.Invalidate()
	if b.cache.Contains(0x5000) {
		t.Error("line survived invalidation")
	}
	before := b.cache.Misses
	b.read(t, 0x5000, 64)
	if err := b.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if b.cache.Misses != before+1 {
		t.Error("post-invalidate access did not miss")
	}
}

func TestCacheUncacheableBypass(t *testing.T) {
	cfg := L1Config()
	cfg.Cacheable = func(addr uint64) bool { return addr < 0x10000 }
	b := newBench(t, cfg)

	r := b.read(t, 0x20000, 64) // uncacheable
	if err := b.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.cu.reads[r]; !ok {
		t.Fatal("no response to bypassed read")
	}
	if b.cache.Contains(0x20000) {
		t.Error("uncacheable line was cached")
	}
	if b.cache.Bypassed != 1 {
		t.Errorf("bypassed = %d, want 1", b.cache.Bypassed)
	}
	// Bypassed reads never hit, even when repeated.
	b.read(t, 0x20000, 64)
	if err := b.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if b.cache.Hits != 0 {
		t.Error("bypassed read produced a hit")
	}
}

func TestCacheManyRandomAccessesAllComplete(t *testing.T) {
	b := newBench(t, L1Config())
	rng := rand.New(rand.NewSource(5))
	var reads []uint64
	var writes []uint64
	for i := 0; i < 500; i++ {
		addr := uint64(rng.Intn(64)) * 64
		if rng.Intn(3) == 0 {
			data := make([]byte, 64)
			rng.Read(data)
			writes = append(writes, b.write(t, addr, data))
		} else {
			reads = append(reads, b.read(t, addr, 64))
		}
		if rng.Intn(4) == 0 {
			if err := b.engine.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.engine.Run(); err != nil {
		t.Fatal(err)
	}
	for _, r := range reads {
		if _, ok := b.cu.reads[r]; !ok {
			t.Fatalf("read %d lost", r)
		}
	}
	for _, w := range writes {
		if _, ok := b.cu.acks[w]; !ok {
			t.Fatalf("write %d lost", w)
		}
	}
	if b.cache.Hits == 0 || b.cache.Misses == 0 {
		t.Errorf("degenerate mix: hits=%d misses=%d", b.cache.Hits, b.cache.Misses)
	}
}

func TestCacheMSHRLimitEventuallyDrains(t *testing.T) {
	cfg := L1Config()
	cfg.MaxMSHR = 2
	b := newBench(t, cfg)
	var reads []uint64
	for i := 0; i < 20; i++ {
		reads = append(reads, b.read(t, uint64(i)*64, 64))
	}
	if err := b.engine.Run(); err != nil {
		t.Fatal(err)
	}
	for _, r := range reads {
		if _, ok := b.cu.reads[r]; !ok {
			t.Fatalf("read %d starved under MSHR pressure", r)
		}
	}
}

// Two-level stack: CU-side collector -> L1 -> L2 -> DRAM. L1 misses that
// hit in L2 must be much faster than DRAM accesses, and data stays correct
// through both levels.
func TestTwoLevelCacheStack(t *testing.T) {
	engine := sim.NewEngine()
	part := engine.Partition(0)
	space := mem.NewSpace(4)
	dcfg := mem.DefaultDRAMConfig()
	dcfg.AccessLatency = 200
	dram := mem.NewDRAM("DRAM", part, space, dcfg)
	l2 := New("L2", part, space, L2Config())
	l1 := New("L1", part, space, L1Config())
	cu := newCollector("CU")

	top := sim.NewDirectConnection("top", part, 1)
	top.Plug(cu.port)
	top.Plug(l1.Top)
	mid := sim.NewDirectConnection("mid", part, 1)
	mid.Plug(l1.Bottom)
	mid.Plug(l2.Top)
	bot := sim.NewDirectConnection("bot", part, 1)
	bot.Plug(l2.Bottom)
	bot.Plug(dram.Top)
	l1.Router = func(uint64) *sim.Port { return l2.Top }
	l2.Router = func(uint64) *sim.Port { return dram.Top }

	space.Write(0x7000, []byte{9, 8, 7})

	msgs := mem.PoolOf(part)
	read := func(addr uint64) (uint64, sim.Time) {
		start := engine.Now()
		r := send(t, engine, cu.port, msgs.ReadReq(cu.port, l1.Top, addr, 64))
		if err := engine.Run(); err != nil {
			t.Fatal(err)
		}
		return r, cu.times[r] - start
	}

	// Cold: misses both levels, pays DRAM.
	r1, coldLat := read(0x7000)
	if got := cu.reads[r1].Data[0]; got != 9 {
		t.Fatalf("cold read data = %d", got)
	}
	if coldLat < 200 {
		t.Errorf("cold latency %d below DRAM latency", coldLat)
	}
	if l1.Misses != 1 || l2.Misses != 1 || dram.Reads != 1 {
		t.Errorf("cold counters: l1=%d l2=%d dram=%d", l1.Misses, l2.Misses, dram.Reads)
	}

	// Evict from L1 only: invalidate L1 and re-read -> L2 hit, no DRAM.
	l1.Invalidate()
	_, l2Lat := read(0x7000)
	if l2.Hits != 1 {
		t.Errorf("L2 hits = %d, want 1", l2.Hits)
	}
	if dram.Reads != 1 {
		t.Errorf("DRAM reads = %d, want still 1", dram.Reads)
	}
	if l2Lat >= coldLat {
		t.Errorf("L2-hit latency %d not below cold %d", l2Lat, coldLat)
	}

	// Warm: L1 hit, fastest of all.
	_, l1Lat := read(0x7000)
	if l1.Hits != 1 {
		t.Errorf("L1 hits = %d, want 1", l1.Hits)
	}
	if l1Lat >= l2Lat {
		t.Errorf("L1-hit latency %d not below L2-hit %d", l1Lat, l2Lat)
	}

	// Write through both levels.
	w := send(t, engine, cu.port, writeReq(msgs, cu.port, l1.Top, 0x7000, []byte{42}))
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := cu.acks[w]; !ok {
		t.Fatal("write not acked through the stack")
	}
	if dram.Writes != 1 {
		t.Errorf("DRAM writes = %d, want 1 (write-through both levels)", dram.Writes)
	}
	r4, _ := read(0x7000)
	if got := cu.reads[r4].Data[0]; got != 42 {
		t.Errorf("read after write = %d, want 42", got)
	}
}

// rejecting is a connection that turns every send away.
type rejecting struct{ part *sim.Partition }

func (r rejecting) Send(sim.Time, sim.Msg) bool          { return false }
func (r rejecting) NotifyBufferFree(sim.Time, *sim.Port) {}
func (r rejecting) Plug(p *sim.Port)                     { p.SetConnection(r) }
func (r rejecting) Partition() *sim.Partition            { return r.part }

// TestCacheRejectedForwardReleasesIt: a fetch, a forwarded read or a
// forwarded write that the level below turns away goes back to the pool;
// only the request waiting at the cache's top stays live.
func TestCacheRejectedForwardReleasesIt(t *testing.T) {
	for _, tc := range []struct {
		name string
		send func(t *testing.T, b *bench)
	}{
		{"miss", func(t *testing.T, b *bench) { b.read(t, 0x1000, 64) }},
		{"passthrough", func(t *testing.T, b *bench) { b.read(t, 0x20000, 64) }},
		{"write", func(t *testing.T, b *bench) { b.write(t, 0x1000, []byte{1}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := L1Config()
			cfg.Cacheable = func(addr uint64) bool { return addr < 0x10000 }
			b := newBench(t, cfg)
			rejecting{b.engine.Partition(0)}.Plug(b.cache.Bottom)
			tc.send(t, b)
			if err := b.engine.Run(); err != nil {
				t.Fatal(err)
			}
			if live := b.msgs.Live(); live != 1 {
				t.Errorf("%d messages live, want 1 (the request at the top)", live)
			}
			if err := b.cache.CheckQuiescent(); err != nil {
				t.Error(err)
			}
		})
	}
}
