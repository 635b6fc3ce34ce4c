package rdma

import (
	"bytes"
	"strings"
	"testing"

	"mgpucompress/internal/comp"
	"mgpucompress/internal/core"
	"mgpucompress/internal/fabric"
	"mgpucompress/internal/fault"
	"mgpucompress/internal/mem"
	"mgpucompress/internal/sim"
	"mgpucompress/internal/trace"
)

// newGuardedTestbed mirrors newTestbed with the reliability guard armed on
// both RDMA engines and, when the profile is enabled, a fault injector on
// the bus.
func newGuardedTestbed(t *testing.T, policy func(int) core.Policy, prof fault.Profile, seed int64) *testbed {
	t.Helper()
	tb := &testbed{engine: sim.NewEngine(), rec: &recorder{}}
	tb.part = tb.engine.Partition(0)
	tb.space = mem.NewSpace(2)
	fcfg := fabric.DefaultConfig()
	if prof.Enabled() {
		fcfg.Fault = fault.NewInjector(prof, seed)
	}
	tb.bus = fabric.NewBus("bus", tb.part, fcfg)

	for g := 0; g < 2; g++ {
		g := g
		tb.drams[g] = mem.NewDRAM("DRAM", tb.part, tb.space, mem.DefaultDRAMConfig())
		tb.l1s[g] = newL1Stub("L1")
		tb.rdmas[g] = New("RDMA", tb.part, policy(g), tb.rec)
		tb.rdmas[g].OwnerOf = tb.space.GPUOf
		tb.rdmas[g].L2Router = func(uint64) *sim.Port { return tb.drams[g].Top }
		tb.rdmas[g].RemotePort = func(gpu int) *sim.Port { return tb.rdmas[gpu].ToFabric }
		tb.rdmas[g].Guard = &GuardConfig{
			TimeoutCycles: sim.Time(prof.Timeout()),
			MaxAttempts:   prof.Attempts(),
		}

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

func (tb *testbed) guardStats() (crc, retries, nacks, timeouts, stale uint64) {
	for _, e := range tb.rdmas {
		crc += e.CRCErrors
		retries += e.Retries
		nacks += e.NACKsSent
		timeouts += e.TimeoutsFired
		stale += e.StaleDrops
	}
	return
}

// TestGuardCleanFabricIsTransparent: with the guard on but no faults, every
// transfer completes with zero guard events — the CRC protocol is pure
// overhead, never behaviour.
func TestGuardCleanFabricIsTransparent(t *testing.T) {
	tb := newGuardedTestbed(t, func(int) core.Policy { return core.NewStatic(comp.BDI) }, fault.Profile{}, 0)
	addr := remoteAddr(tb.space)
	want := compressibleLine()
	tb.space.Write(addr, want)

	r := tb.read(0, addr)
	w := tb.write(0, addr+64, want)
	if err := tb.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if rsp := tb.l1s[0].reads[r]; rsp == nil || !bytes.Equal(rsp.Data, want) {
		t.Error("guarded read failed")
	}
	if _, ok := tb.l1s[0].acks[w]; !ok {
		t.Error("guarded write not acked")
	}
	crc, retries, nacks, timeouts, stale := tb.guardStats()
	if crc+retries+nacks+timeouts+stale != 0 {
		t.Errorf("clean fabric produced guard events: crc=%d retries=%d nacks=%d timeouts=%d stale=%d",
			crc, retries, nacks, timeouts, stale)
	}
}

// TestGuardCRCTrailerCharged: the guard adds exactly CRCTrailerBytes to each
// payload-bearing wire message and nothing else.
func TestGuardCRCTrailerCharged(t *testing.T) {
	run := func(guarded bool) uint64 {
		var tb *testbed
		if guarded {
			tb = newGuardedTestbed(t, func(int) core.Policy { return core.NewStatic(comp.BDI) }, fault.Profile{}, 0)
		} else {
			tb = newTestbed(t, func(int) core.Policy { return core.NewStatic(comp.BDI) })
		}
		addr := remoteAddr(tb.space)
		tb.space.Write(addr, compressibleLine())
		tb.read(0, addr)
		if err := tb.engine.Run(); err != nil {
			t.Fatal(err)
		}
		return tb.bus.TotalBytes()
	}
	plain, guarded := run(false), run(true)
	// One read = ReadReq (no payload) + DataReady (one CRC trailer).
	if guarded != plain+CRCTrailerBytes {
		t.Errorf("guarded read traffic %d, want %d + %d", guarded, plain, CRCTrailerBytes)
	}
}

// TestGuardRecoversFromCorruption: under a seeded corrupting fabric, every
// transfer still completes with correct data — corrupt payloads are NACKed
// and retransmitted, never silently accepted.
func TestGuardRecoversFromCorruption(t *testing.T) {
	prof := fault.Profile{CorruptRate: 0.3, TimeoutCycles: 512}
	tb := newGuardedTestbed(t, func(int) core.Policy { return core.NewStatic(comp.BDI) }, prof, 1)
	addr := remoteAddr(tb.space)
	want := compressibleLine()
	var reads []uint64
	var writes, writeAddrs []uint64
	for i := 0; i < 40; i++ {
		lineAddr := addr + uint64(i%16)*64
		if i%2 == 0 {
			tb.space.Write(lineAddr, want)
			r := tb.read(0, lineAddr)
			reads = append(reads, r)
		} else {
			w := tb.write(0, lineAddr, want)
			writes = append(writes, w)
			writeAddrs = append(writeAddrs, lineAddr)
		}
	}
	if err := tb.engine.Run(); err != nil {
		t.Fatal(err)
	}
	for _, r := range reads {
		rsp, ok := tb.l1s[0].reads[r]
		if !ok {
			t.Fatalf("read %d lost under corruption", r)
		}
		if !bytes.Equal(rsp.Data, want) {
			t.Fatalf("read %d returned corrupt data", r)
		}
	}
	for i, w := range writes {
		if _, ok := tb.l1s[0].acks[w]; !ok {
			t.Fatalf("write %d lost under corruption", w)
		}
		if got := tb.space.Read(writeAddrs[i], comp.LineSize); !bytes.Equal(got, want) {
			t.Fatalf("write %d stored corrupt data", w)
		}
	}
	crc, retries, nacks, _, _ := tb.guardStats()
	if crc == 0 || retries == 0 || nacks == 0 {
		t.Errorf("corrupting fabric produced no guard events: crc=%d retries=%d nacks=%d", crc, retries, nacks)
	}
}

// TestGuardRecoversFromDrops: dropped messages are recovered by timeout
// retransmission.
func TestGuardRecoversFromDrops(t *testing.T) {
	prof := fault.Profile{DropRate: 0.25, TimeoutCycles: 256}
	tb := newGuardedTestbed(t, func(int) core.Policy { return core.NewStatic(comp.BDI) }, prof, 2)
	addr := remoteAddr(tb.space)
	want := compressibleLine()
	var reads []uint64
	var writes []uint64
	for i := 0; i < 30; i++ {
		lineAddr := addr + uint64(i%8)*64
		if i%2 == 0 {
			tb.space.Write(lineAddr, want)
			r := tb.read(0, lineAddr)
			reads = append(reads, r)
		} else {
			w := tb.write(0, lineAddr, want)
			writes = append(writes, w)
		}
	}
	if err := tb.engine.Run(); err != nil {
		t.Fatal(err)
	}
	for _, r := range reads {
		if rsp := tb.l1s[0].reads[r]; rsp == nil || !bytes.Equal(rsp.Data, want) {
			t.Fatalf("read %d lost or corrupt under drops", r)
		}
	}
	for _, w := range writes {
		if _, ok := tb.l1s[0].acks[w]; !ok {
			t.Fatalf("write %d lost under drops", w)
		}
	}
	_, retries, _, timeouts, _ := tb.guardStats()
	if timeouts == 0 || retries == 0 {
		t.Errorf("dropping fabric fired no timeouts: retries=%d timeouts=%d", retries, timeouts)
	}
	tb.checkQuiescent(t)
}

// TestGuardFaultsAreDeterministic: two runs with the same profile and seed
// produce identical guard counters and identical timing.
func TestGuardFaultsAreDeterministic(t *testing.T) {
	prof := fault.Profile{CorruptRate: 0.2, DropRate: 0.1, DelayRate: 0.2, DelayCycles: 32, TimeoutCycles: 256}
	run := func() (stats [5]uint64, end sim.Time) {
		tb := newGuardedTestbed(t, func(int) core.Policy { return core.NewStatic(comp.BDI) }, prof, 9)
		addr := remoteAddr(tb.space)
		want := compressibleLine()
		for i := 0; i < 30; i++ {
			lineAddr := addr + uint64(i%8)*64
			tb.space.Write(lineAddr, want)
			if i%2 == 0 {
				tb.read(0, lineAddr)
			} else {
				tb.write(0, lineAddr, want)
			}
		}
		if err := tb.engine.Run(); err != nil {
			t.Fatal(err)
		}
		stats[0], stats[1], stats[2], stats[3], stats[4] = tb.guardStats()
		return stats, tb.engine.Now()
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 {
		t.Errorf("same seed, different guard stats: %v vs %v", s1, s2)
	}
	if t1 != t2 {
		t.Errorf("same seed, different end times: %d vs %d", t1, t2)
	}
}

// TestGuardExhaustionIsHardError: when every transmission is corrupted, the
// engine gives up after MaxAttempts with an explicit error — corruption is
// never silently absorbed.
func TestGuardExhaustionIsHardError(t *testing.T) {
	prof := fault.Profile{CorruptRate: 1, TimeoutCycles: 128, MaxAttempts: 3}
	tb := newGuardedTestbed(t, func(int) core.Policy { return core.NewStatic(comp.BDI) }, prof, 3)
	addr := remoteAddr(tb.space)
	w := tb.write(0, addr, compressibleLine())
	err := tb.engine.Run()
	if err == nil {
		t.Fatal("fully corrupting fabric did not surface an error")
	}
	if !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Errorf("unexpected error: %v", err)
	}
	if _, ok := tb.l1s[0].acks[w]; ok {
		t.Error("exhausted write was acked")
	}
}

// TestGuardRetrySpansRecorded: retransmissions appear on the trace timeline
// under the "fault" category.
func TestGuardRetrySpansRecorded(t *testing.T) {
	prof := fault.Profile{DropRate: 0.4, TimeoutCycles: 128, MaxAttempts: 20}
	tb := newGuardedTestbed(t, func(int) core.Policy { return core.NewStatic(comp.BDI) }, prof, 5)
	spans := &trace.Recorder{}
	for _, e := range tb.rdmas {
		e.Spans = spans
	}
	addr := remoteAddr(tb.space)
	for i := 0; i < 20; i++ {
		tb.write(0, addr+uint64(i%4)*64, compressibleLine())
	}
	if err := tb.engine.Run(); err != nil {
		t.Fatal(err)
	}
	_, retries, _, _, _ := tb.guardStats()
	if retries == 0 {
		t.Skip("seed produced no retries")
	}
	n := 0
	for _, s := range spans.Spans() {
		if s.Cat == "fault" && strings.HasPrefix(s.Name, "retry:") {
			n++
		}
	}
	if uint64(n) != retries {
		t.Errorf("%d retry spans for %d retries", n, retries)
	}
}

// Stale / duplicate handling, white-box.

func TestStaleResponsesDroppedOnlyWithGuard(t *testing.T) {
	mk := func(guard bool) *Engine {
		e := New("R", sim.NewEngine().Partition(0), nil, nil)
		if guard {
			e.Guard = &GuardConfig{TimeoutCycles: 128, MaxAttempts: 3}
		}
		return e
	}
	stale := &DataReady{RspTo: 999}
	ack := &WriteACK{RspTo: 998}

	g := mk(true)
	if err := g.handleWire(0, stale); err != nil {
		t.Errorf("guarded stale DataReady: %v", err)
	}
	if err := g.handleWire(0, ack); err != nil {
		t.Errorf("guarded stale WriteACK: %v", err)
	}
	if g.StaleDrops != 2 {
		t.Errorf("StaleDrops = %d, want 2", g.StaleDrops)
	}

	u := mk(false)
	if err := u.handleWire(0, stale); err == nil {
		t.Error("unguarded stale DataReady accepted")
	}
	if err := u.handleWire(0, ack); err == nil {
		t.Error("unguarded stale WriteACK accepted")
	}
	if err := u.handleWire(0, &NACK{RspTo: 1}); err == nil {
		t.Error("NACK without guard accepted")
	}
}

// TestResponseOfWrongKindIsError: a WriteACK that names a pending read and
// a DataReady that names a pending write are errors, with the guard on or
// off, and leave the request pending.
func TestResponseOfWrongKindIsError(t *testing.T) {
	for _, guard := range []bool{false, true} {
		b := newWireBench(core.NewStatic(comp.BDI), guard)
		b.read(t, comp.LineSize)
		b.write(t, compressibleLine())
		var readID, writeID uint64
		for id, r := range b.e.pending {
			if _, ok := r.wire.(*ReadReq); ok {
				readID = id
			} else {
				writeID = id
			}
		}
		if readID == 0 || writeID == 0 {
			t.Fatalf("guard %t: pending %v, want one read and one write", guard, b.e.pending)
		}
		if err := b.e.handleWire(0, &WriteACK{RspTo: readID}); err == nil {
			t.Errorf("guard %t: WriteACK for a pending read accepted", guard)
		}
		dr := &DataReady{RspTo: writeID, Payload: Payload{Alg: comp.None, RawLen: comp.LineSize,
			Enc: comp.Encoded{Bits: comp.LineBits, Data: compressibleLine()}}}
		dr.Payload.CRC = PayloadCRC(dr.Payload)
		if err := b.e.handleWire(0, dr); err == nil {
			t.Errorf("guard %t: DataReady for a pending write accepted", guard)
		}
		if _, ok := b.e.pending[readID]; !ok {
			t.Errorf("guard %t: the read left the pending table", guard)
		}
		if _, ok := b.e.pending[writeID]; !ok {
			t.Errorf("guard %t: the write left the pending table", guard)
		}
		if b.e.StaleDrops != 0 {
			t.Errorf("guard %t: %d responses dropped as stale", guard, b.e.StaleDrops)
		}
	}
}

// integrityPolicy records the integrity signal an engine feeds its policy.
type integrityPolicy struct {
	core.Uncompressed
	signals []bool
}

func (p *integrityPolicy) ObserveIntegrity(ok bool) { p.signals = append(p.signals, ok) }

// TestNACKFeedsIntegritySignal: a codec-attributed NACK reaches the policy
// as ObserveIntegrity(false); a raw-payload NACK carries no codec blame.
func TestNACKFeedsIntegritySignal(t *testing.T) {
	pol := &integrityPolicy{}
	e := New("R", sim.NewEngine().Partition(0), pol, nil)
	e.Guard = &GuardConfig{TimeoutCycles: 128, MaxAttempts: 3}

	if err := e.handleWire(0, &NACK{RspTo: 77, Alg: comp.BDI}); err != nil {
		t.Fatal(err)
	}
	if len(pol.signals) != 1 || pol.signals[0] {
		t.Errorf("codec NACK signals = %v, want [false]", pol.signals)
	}
	if err := e.handleWire(0, &NACK{RspTo: 78, Alg: comp.None}); err != nil {
		t.Fatal(err)
	}
	if len(pol.signals) != 1 {
		t.Errorf("raw-payload NACK blamed the codec: %v", pol.signals)
	}
}
