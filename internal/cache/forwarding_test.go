package cache

import (
	"fmt"
	"strings"
	"testing"

	"mgpucompress/internal/mem"
	"mgpucompress/internal/sim"
)

// silent is a level below the cache that takes every request, notes its ID
// and never answers.
type silent struct {
	sim.ComponentBase
	port *sim.Port
	msgs *mem.Pool
	ids  []uint64
}

func (s *silent) Handle(*sim.Event) error { return nil }

func (s *silent) NotifyRecv(now sim.Time, p *sim.Port) {
	for m := p.Retrieve(now); m != nil; m = p.Retrieve(now) {
		s.ids = append(s.ids, m.Meta().ID)
		s.msgs.Release(m)
	}
}

func (s *silent) NotifyPortFree(sim.Time, *sim.Port) {}

// TestCacheResponseOfWrongKindPanics: a response from below whose kind does
// not match the forwarded request it names means the level below answered a
// request the cache never made, so the cache panics and names the request.
// A DataReady naming a forwarded write must not be taken as the fill of an
// outstanding fetch of the same line.
func TestCacheResponseOfWrongKindPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		// issue sends the requests; the last one the silent level sees is the
		// forwarded request the bad response names.
		issue func(t *testing.T, b *bench)
		rsp   func(msgs *mem.Pool, src, dst *sim.Port, rspTo uint64) sim.Msg
		want  string
	}{
		{
			name: "DataReady for a write",
			issue: func(t *testing.T, b *bench) {
				b.read(t, 0x1000, 64) // an MSHR fetch of the line stays outstanding
				b.write(t, 0x1000, []byte{1, 2, 3, 4})
			},
			rsp: func(msgs *mem.Pool, src, dst *sim.Port, rspTo uint64) sim.Msg {
				return msgs.DataReady(src, dst, rspTo, 0x1000, 64)
			},
			want: "*mem.DataReady answers forwarded request %d at 0x1000 (a write: true)",
		},
		{
			name: "WriteACK for a bypassed read",
			issue: func(t *testing.T, b *bench) {
				b.read(t, 0x20000, 64)
			},
			rsp: func(msgs *mem.Pool, src, dst *sim.Port, rspTo uint64) sim.Msg {
				return msgs.WriteACK(src, dst, rspTo, 0x20000)
			},
			want: "*mem.WriteACK answers forwarded request %d at 0x20000 (a write: false)",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := L1Config()
			cfg.Cacheable = func(addr uint64) bool { return addr < 0x10000 }
			b := newBench(t, cfg)
			below := &silent{ComponentBase: sim.NewComponentBase("below"), msgs: b.msgs}
			below.port = sim.NewPort(below, "below.port", 0)
			conn := sim.NewDirectConnection("below", b.engine.Partition(0), 1)
			conn.Plug(b.cache.Bottom)
			conn.Plug(below.port)
			b.cache.Router = func(uint64) *sim.Port { return below.port }

			tc.issue(t, b)
			if err := b.engine.Run(); err != nil {
				t.Fatal(err)
			}
			fwd := below.ids[len(below.ids)-1]
			send(t, b.engine, below.port, tc.rsp(b.msgs, below.port, b.cache.Bottom, fwd))
			want := fmt.Sprintf(tc.want, fwd)
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), want) {
					t.Errorf("recovered %v, want a panic naming %q", r, want)
				}
			}()
			if err := b.engine.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// tally counts the responses reaching a port per RspTo and kind, and
// releases each one.
type tally struct {
	sim.ComponentBase
	port        *sim.Port
	msgs        *mem.Pool
	reads, acks map[uint64]int
}

func (c *tally) Handle(*sim.Event) error { return nil }

func (c *tally) NotifyRecv(now sim.Time, p *sim.Port) {
	for m := p.Retrieve(now); m != nil; m = p.Retrieve(now) {
		switch rsp := m.(type) {
		case *mem.DataReady:
			c.reads[rsp.RspTo]++
		case *mem.WriteACK:
			c.acks[rsp.RspTo]++
		}
		c.msgs.Release(m)
	}
}

func (c *tally) NotifyPortFree(sim.Time, *sim.Port) {}

// FuzzCacheForwarding drives a small cache over a DRAM channel with a mix,
// decoded from the input, of cacheable reads, non-cacheable reads that the
// cache forwards, writes on both sides of the split, and engine runs. Every
// request must get exactly one answer of its kind, the counters must account
// for every request, and the cache and the pool must end empty.
func FuzzCacheForwarding(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 4, 2, 4, 1, 4, 2, 5, 3, 0})
	f.Add([]byte("bypassed reads and writes share one forwarding table"))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1024 {
			return
		}
		engine := sim.NewEngine()
		part := engine.Partition(0)
		space := mem.NewSpace(4)
		msgs := mem.PoolOf(part)
		dcfg := mem.DefaultDRAMConfig()
		dcfg.AccessLatency = 10
		dram := mem.NewDRAM("DRAM", part, space, dcfg)
		cfg := L1Config()
		cfg.SizeBytes, cfg.Ways, cfg.MaxMSHR = 4*mem.LineSize, 2, 2
		cfg.Cacheable = func(addr uint64) bool { return addr < 0x10000 }
		c := New("L1", part, space, cfg)
		cu := &tally{ComponentBase: sim.NewComponentBase("CU"), msgs: msgs,
			reads: make(map[uint64]int), acks: make(map[uint64]int)}
		cu.port = sim.NewPort(cu, "CU.port", 0)
		top := sim.NewDirectConnection("top", part, 1)
		top.Plug(cu.port)
		top.Plug(c.Top)
		bottom := sim.NewDirectConnection("bottom", part, 1)
		bottom.Plug(c.Bottom)
		bottom.Plug(dram.Top)
		c.Router = func(uint64) *sim.Port { return dram.Top }

		run := func() {
			if err := engine.Run(); err != nil {
				t.Fatal(err)
			}
		}
		issue := func(m sim.Msg) uint64 { return send(t, engine, cu.port, m) }
		var reads, writes []uint64
		for i := 0; i+1 < len(script); i += 2 {
			// 16-byte accesses to 64 lines on either side of the split.
			off := uint64(script[i+1]>>2) * 16
			switch script[i] % 4 {
			case 0:
				reads = append(reads, issue(msgs.ReadReq(cu.port, c.Top, off, 16)))
			case 1:
				reads = append(reads, issue(msgs.ReadReq(cu.port, c.Top, 0x10000+off, 16)))
			case 2:
				addr := off + uint64(script[i+1]&1)*0x10000
				writes = append(writes, issue(writeReq(msgs, cu.port, c.Top, addr, script[i:i+2])))
			case 3:
				run()
			}
		}
		run()

		for _, id := range reads {
			if cu.reads[id] != 1 || cu.acks[id] != 0 {
				t.Errorf("read %d: %d DataReady, %d WriteACK; want 1, 0", id, cu.reads[id], cu.acks[id])
			}
		}
		for _, id := range writes {
			if cu.acks[id] != 1 || cu.reads[id] != 0 {
				t.Errorf("write %d: %d WriteACK, %d DataReady; want 1, 0", id, cu.acks[id], cu.reads[id])
			}
		}
		if len(cu.reads)+len(cu.acks) != len(reads)+len(writes) {
			t.Errorf("%d requests answered under %d IDs", len(reads)+len(writes), len(cu.reads)+len(cu.acks))
		}
		if err := c.CheckQuiescent(); err != nil {
			t.Error(err)
		}
		if err := dram.CheckQuiescent(); err != nil {
			t.Error(err)
		}
		if live := msgs.Live(); live != 0 {
			t.Errorf("%d messages live", live)
		}
		if got := c.Hits + c.Misses + c.Coalesced + c.Bypassed; got != uint64(len(reads)) {
			t.Errorf("hits+misses+coalesced+bypassed = %d, want %d reads", got, len(reads))
		}
		if c.WritesSeen != uint64(len(writes)) {
			t.Errorf("writes seen = %d, want %d", c.WritesSeen, len(writes))
		}
	})
}
