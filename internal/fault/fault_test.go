package fault

import (
	"strings"
	"testing"

	"mgpucompress/internal/metrics"
	"mgpucompress/internal/sim"
)

// injMsg is a minimal injectable, corruptible message that counts its
// releases.
type injMsg struct {
	sim.MsgMeta
	payload  []byte
	released int
}

func (m *injMsg) Meta() *sim.MsgMeta { return &m.MsgMeta }
func (m *injMsg) FaultInjectable()   {}
func (m *injMsg) Release()           { m.released++ }
func (m *injMsg) Corrupt(pick uint64) bool {
	if len(m.payload) == 0 {
		return false
	}
	bit := pick % uint64(len(m.payload)*8)
	m.payload[bit/8] ^= 1 << (bit % 8)
	return true
}

// plainMsg is ordinary control traffic: no Injectable marker.
type plainMsg struct{ sim.MsgMeta }

func (m *plainMsg) Meta() *sim.MsgMeta { return &m.MsgMeta }

func testPorts() (*sim.Port, *sim.Port) {
	return sim.NewPort(nil, "A.out", 0), sim.NewPort(nil, "B.in", 0)
}

func newInj(src, dst *sim.Port, payload []byte) *injMsg {
	m := &injMsg{payload: payload}
	m.Src, m.Dst, m.Bytes = src, dst, len(payload)
	return m
}

func TestParsePresets(t *testing.T) {
	for _, s := range []string{"", "off", "OFF"} {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if p.Enabled() {
			t.Errorf("Parse(%q) enabled", s)
		}
		if p.Canonical() != "" {
			t.Errorf("Parse(%q).Canonical() = %q, want empty", s, p.Canonical())
		}
	}
	for _, s := range []string{"light", "aggressive"} {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if !p.Enabled() {
			t.Errorf("preset %q not enabled", s)
		}
	}
	if _, err := Parse("bogus"); err == nil {
		t.Error("unknown preset accepted")
	}
	names := PresetNames()
	if strings.Join(names, ",") != "aggressive,light,off" {
		t.Errorf("PresetNames() = %v", names)
	}
}

func TestParseCanonicalRoundTrip(t *testing.T) {
	for _, s := range []string{
		"light",
		"aggressive",
		"corrupt=0.25,drop=0.125,delay=0.5,delaycycles=32",
		"corrupt=0.1,drop=0,delay=0,delaycycles=0,timeout=512,attempts=4,degradek=2",
	} {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		canon := p.Canonical()
		q, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(Canonical %q): %v", canon, err)
		}
		if q != p {
			t.Errorf("round trip of %q: %+v != %+v", s, q, p)
		}
		if q.Canonical() != canon {
			t.Errorf("Canonical not a fixed point: %q vs %q", q.Canonical(), canon)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"corrupt=2",        // out of range
		"drop=-0.1",        // negative rate
		"corrupt=x",        // bad float
		"delaycycles=-5",   // negative cycles
		"frob=1",           // unknown key
		"corrupt",          // not k=v
		"attempts=-1",      // negative attempts
		"timeout=-1",       // negative timeout
		"degradek=-2",      // negative threshold
		"corrupt=0.1,,x=1", // malformed tail
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestEffectiveDefaults(t *testing.T) {
	var p Profile
	if p.Timeout() != DefaultTimeoutCycles || p.Attempts() != DefaultMaxAttempts || p.Degrade() != DefaultDegradeK {
		t.Errorf("zero profile defaults: %d/%d/%d", p.Timeout(), p.Attempts(), p.Degrade())
	}
	p = Profile{TimeoutCycles: 100, MaxAttempts: 2, DegradeK: 7}
	if p.Timeout() != 100 || p.Attempts() != 2 || p.Degrade() != 7 {
		t.Errorf("explicit knobs not honoured: %d/%d/%d", p.Timeout(), p.Attempts(), p.Degrade())
	}
}

// TestApplyDeterminism: two injectors with the same (profile, seed) hand the
// same traffic identical fates, and a different seed diverges.
func TestApplyDeterminism(t *testing.T) {
	src, dst := testPorts()
	prof := Profile{CorruptRate: 0.2, DropRate: 0.2, DelayRate: 0.2, DelayCycles: 64}
	run := func(seed int64) (fates []string, corrupted, dropped, delayed uint64) {
		inj := NewInjector(prof, seed)
		for k := 0; k < 400; k++ {
			out := inj.Apply(newInj(src, dst, []byte{0xAA, 0xBB, 0xCC, 0xDD}))
			switch {
			case out.Dropped:
				fates = append(fates, "drop")
			case out.Delay > 0:
				fates = append(fates, "delay")
			default:
				fates = append(fates, "pass")
			}
		}
		return fates, inj.Corrupted, inj.Dropped, inj.Delayed
	}
	f1, c1, dr1, dl1 := run(42)
	f2, c2, dr2, dl2 := run(42)
	if c1 != c2 || dr1 != dr2 || dl1 != dl2 {
		t.Fatalf("same seed, different counters: (%d,%d,%d) vs (%d,%d,%d)", c1, dr1, dl1, c2, dr2, dl2)
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("same seed, delivery %d fate %q vs %q", i, f1[i], f2[i])
		}
	}
	if c1 == 0 || dr1 == 0 || dl1 == 0 {
		t.Fatalf("rates 0.2 over 400 deliveries injected nothing: %d/%d/%d", c1, dr1, dl1)
	}
	f3, _, _, _ := run(43)
	same := true
	for i := range f1 {
		if f1[i] != f3[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical fault sequences")
	}
}

// TestNonInjectablePassThrough: control traffic is never touched and never
// advances a link's PRNG stream, so its presence cannot perturb the faults
// injected into guarded traffic.
func TestNonInjectablePassThrough(t *testing.T) {
	src, dst := testPorts()
	prof := Profile{CorruptRate: 1, DropRate: 0.3, DelayRate: 0.3, DelayCycles: 8}

	run := func(interleave bool) []bool {
		inj := NewInjector(prof, 7)
		var drops []bool
		for k := 0; k < 100; k++ {
			if interleave {
				m := &plainMsg{}
				m.Src, m.Dst = src, dst
				out := inj.Apply(m)
				if out.Dropped || out.Delay != 0 {
					t.Fatal("non-injectable message perturbed")
				}
			}
			out := inj.Apply(newInj(src, dst, []byte{1, 2, 3, 4}))
			drops = append(drops, out.Dropped)
		}
		if inj.Injected() != inj.Corrupted+inj.Dropped+inj.Delayed {
			t.Fatal("Injected() is not the sum of its parts")
		}
		return drops
	}
	plain := run(false)
	mixed := run(true)
	for i := range plain {
		if plain[i] != mixed[i] {
			t.Fatalf("interleaved control traffic changed fault %d", i)
		}
	}
}

// TestCorruptionClonesPayload: corruption flips exactly one bit of the
// delivered message in place. The message is the transmission's own: the
// sender retransmits from a copy it keeps off the fabric.
func TestCorruptionClonesPayload(t *testing.T) {
	src, dst := testPorts()
	inj := NewInjector(Profile{CorruptRate: 1}, 1)
	orig := newInj(src, dst, []byte{0x55, 0x55, 0x55, 0x55})
	want := append([]byte(nil), orig.payload...)
	out := inj.Apply(orig)
	if out.Dropped || orig.released != 0 {
		t.Fatal("a corrupted message was dropped or released")
	}
	got := orig.payload
	diff := 0
	for i := range got {
		for b := 0; b < 8; b++ {
			if (got[i]^want[i])>>b&1 == 1 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("corruption flipped %d bits, want exactly 1", diff)
	}
	if inj.Corrupted != 1 {
		t.Fatalf("Corrupted = %d", inj.Corrupted)
	}
}

// TestPerLinkStreams: faults on one link are independent of traffic on
// another — each (src, dst) pair owns a private stream.
func TestPerLinkStreams(t *testing.T) {
	srcA, dstA := sim.NewPort(nil, "A", 0), sim.NewPort(nil, "B", 0)
	srcC, dstC := sim.NewPort(nil, "C", 0), sim.NewPort(nil, "D", 0)
	prof := Profile{DropRate: 0.5}

	fates := func(withOther bool) []bool {
		inj := NewInjector(prof, 11)
		var out []bool
		for k := 0; k < 200; k++ {
			if withOther {
				inj.Apply(newInj(srcC, dstC, []byte{9}))
			}
			o := inj.Apply(newInj(srcA, dstA, []byte{1}))
			out = append(out, o.Dropped)
		}
		return out
	}
	solo := fates(false)
	mixed := fates(true)
	for i := range solo {
		if solo[i] != mixed[i] {
			t.Fatalf("traffic on C->D changed fault %d on A->B", i)
		}
	}
}

func TestRegisterMetrics(t *testing.T) {
	src, dst := testPorts()
	inj := NewInjector(Profile{DropRate: 1}, 3)
	reg := metrics.NewRegistry()
	inj.RegisterMetrics(reg, "fault")
	dropped := newInj(src, dst, []byte{1})
	inj.Apply(dropped)
	if dropped.released != 1 {
		t.Errorf("dropped message released %d times, want 1", dropped.released)
	}
	snap := reg.Snapshot()
	want := map[string]uint64{
		"fault/injected": 1, "fault/dropped": 1, "fault/corrupted": 0, "fault/delayed": 0,
	}
	found := 0
	for _, m := range snap {
		if v, ok := want[m.Path]; ok {
			found++
			if uint64(m.Value) != v {
				t.Errorf("%s = %v, want %d", m.Path, m.Value, v)
			}
		}
	}
	if found != len(want) {
		t.Errorf("found %d of %d fault metrics in snapshot", found, len(want))
	}
}
