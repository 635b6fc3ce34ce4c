package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mgpucompress/internal/comp"
)

func zeroLine() []byte { return make([]byte, comp.LineSize) }

func randLine(rng *rand.Rand) []byte {
	l := make([]byte, comp.LineSize)
	rng.Read(l)
	return l
}

func ldrLine(base uint64, step int) []byte {
	l := make([]byte, comp.LineSize)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(l[i*8:], base+uint64(i*step))
	}
	return l
}

func narrowLine() []byte {
	l := make([]byte, comp.LineSize)
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(l[i*4:], uint32(i%7))
	}
	return l
}

func TestUncompressedPolicy(t *testing.T) {
	p := Uncompressed{}
	if p.Name() != "None" {
		t.Errorf("Name = %q", p.Name())
	}
	rng := rand.New(rand.NewSource(1))
	line := randLine(rng)
	d := p.Process(line)
	if d.Alg != comp.None || d.Enc.Bits != comp.LineBits {
		t.Errorf("raw policy produced alg=%v bits=%d", d.Alg, d.Enc.Bits)
	}
	if d.CompressionCycles != 0 || d.DecompressionCycles != 0 || d.CodecEnergyPJ != 0 {
		t.Error("raw policy charged codec costs")
	}
	if !bytes.Equal(d.Enc.Data, line) {
		t.Error("raw policy altered payload")
	}
}

func TestStaticPolicyCompressibleLine(t *testing.T) {
	p := NewStatic(comp.BDI)
	d := p.Process(ldrLine(1<<40, 3))
	if d.Alg != comp.BDI {
		t.Fatalf("Alg = %v, want BDI", d.Alg)
	}
	cost := comp.CostOf(comp.BDI)
	if d.CompressionCycles != cost.CompressionCycles {
		t.Errorf("compression cycles = %d", d.CompressionCycles)
	}
	if d.DecompressionCycles != cost.DecompressionCycles {
		t.Errorf("decompression cycles = %d", d.DecompressionCycles)
	}
	want := cost.BlockEnergyPJ()
	if d.CodecEnergyPJ != want {
		t.Errorf("energy = %v, want %v", d.CodecEnergyPJ, want)
	}
	if d.Enc.Bits >= comp.LineBits {
		t.Errorf("compressible line not compressed: %d bits", d.Enc.Bits)
	}
}

func TestStaticPolicyIncompressibleLineBypassesDecompression(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := NewStatic(comp.BDI)
	var d Decision
	for i := 0; i < 10; i++ { // random lines are incompressible for BDI
		d = p.Process(randLine(rng))
		if d.Alg == comp.None {
			break
		}
	}
	if d.Alg != comp.None {
		t.Skip("random lines unexpectedly compressible")
	}
	cost := comp.CostOf(comp.BDI)
	if d.CompressionCycles != cost.CompressionCycles {
		t.Error("compression latency must still be paid on a failed attempt")
	}
	if d.DecompressionCycles != 0 {
		t.Error("receiver must bypass decompression for raw payloads")
	}
	if d.CodecEnergyPJ != cost.CompressionEnergyPJ() {
		t.Errorf("energy = %v, want compression-only %v", d.CodecEnergyPJ, cost.CompressionEnergyPJ())
	}
	if d.Enc.Bits != comp.LineBits {
		t.Errorf("raw payload bits = %d", d.Enc.Bits)
	}
}

func TestPenaltyFunction(t *testing.T) {
	// Eq. (1): P = N + λ(Lc+Ld).
	if got := Penalty(0, 128, 16, 9); got != 128 {
		t.Errorf("λ=0 penalty = %v, want 128", got)
	}
	if got := Penalty(6, 128, 16, 9); got != 128+6*25 {
		t.Errorf("λ=6 penalty = %v, want %v", got, 128+6*25)
	}
	if got := Penalty(32, 512, 0, 0); got != 512 {
		t.Errorf("bypass penalty = %v, want 512", got)
	}
}

func TestAdaptiveDefaults(t *testing.T) {
	a := NewAdaptive(Config{})
	if a.cfg.SampleCount != DefaultSampleCount || a.cfg.RunLength != DefaultRunLength {
		t.Errorf("defaults = %d/%d", a.cfg.SampleCount, a.cfg.RunLength)
	}
	if len(a.cfg.Candidates) != 3 {
		t.Errorf("default candidates = %d", len(a.cfg.Candidates))
	}
	if _, sampling := a.Selected(); !sampling {
		t.Error("controller must start in the sampling phase")
	}
}

func TestAdaptiveSelectsBDIOnLowDynamicRange(t *testing.T) {
	a := NewAdaptive(Config{Lambda: 6})
	for i := 0; i < DefaultSampleCount; i++ {
		a.Process(ldrLine(1<<50, 7))
	}
	alg, sampling := a.Selected()
	if sampling {
		t.Fatal("sampling phase did not close after 7 samples")
	}
	if alg != comp.BDI {
		t.Errorf("selected %v on low-dynamic-range data, want BDI", alg)
	}
}

func TestAdaptiveSelectsBypassOnRandomData(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewAdaptive(Config{Lambda: 6})
	for i := 0; i < DefaultSampleCount; i++ {
		a.Process(randLine(rng))
	}
	alg, _ := a.Selected()
	if alg != comp.None {
		t.Errorf("selected %v on incompressible data, want bypass", alg)
	}
	// During the running phase the bypass must not charge codec costs.
	d := a.Process(randLine(rng))
	if d.Sampling {
		t.Error("running-phase decision marked as sampling")
	}
	if d.CompressionCycles != 0 || d.CodecEnergyPJ != 0 {
		t.Error("bypass charged compression costs")
	}
}

func TestAdaptivePhaseCycle(t *testing.T) {
	a := NewAdaptive(Config{SampleCount: 3, RunLength: 5, Lambda: 6})
	var sampled, ran int
	for i := 0; i < 3+5+3+5; i++ {
		d := a.Process(zeroLine())
		if d.Sampling {
			sampled++
		} else {
			ran++
		}
	}
	if sampled != 6 || ran != 10 {
		t.Errorf("sampled=%d ran=%d, want 6/10", sampled, ran)
	}
	if h := a.SelectionHistory(); len(h) != 2 {
		t.Errorf("selection history = %v, want 2 entries", h)
	}
}

func TestAdaptiveSamplingLatencyIsMaxOfCandidates(t *testing.T) {
	a := NewAdaptive(Config{Lambda: 6})
	d := a.Process(zeroLine())
	// C-Pack+Z has the slowest compressor: 16 cycles.
	if d.CompressionCycles != 16 {
		t.Errorf("sampling latency = %d, want 16 (slowest candidate)", d.CompressionCycles)
	}
	if !d.Sampling {
		t.Error("first decision not marked sampling")
	}
}

func TestAdaptiveSamplingEnergyIncludesLosers(t *testing.T) {
	a := NewAdaptive(Config{Lambda: 6})
	d := a.Process(zeroLine())
	var compSum float64
	for _, c := range comp.AllCompressors() {
		compSum += c.Cost().CompressionEnergyPJ()
	}
	if d.CodecEnergyPJ < compSum {
		t.Errorf("sampling energy %v does not include all compressors (%v)", d.CodecEnergyPJ, compSum)
	}
}

func TestAdaptiveLambdaZeroPrefersBestRatio(t *testing.T) {
	// Narrow 32-bit words: C-Pack+Z encodes most words at 12 bits while BDI
	// needs base4-delta1 (180 bits/line); FPC does well too. λ=0 must pick
	// purely by size.
	line := narrowLine()
	sizes := map[comp.Algorithm]int{}
	for _, c := range comp.AllCompressors() {
		sizes[c.Algorithm()] = c.Compress(line).Bits
	}
	bestAlg, bestBits := comp.None, comp.LineBits
	for alg, bits := range sizes {
		if bits < bestBits {
			bestAlg, bestBits = alg, bits
		}
	}
	a := NewAdaptive(Config{Lambda: 0})
	for i := 0; i < DefaultSampleCount; i++ {
		a.Process(line)
	}
	alg, _ := a.Selected()
	if alg != bestAlg {
		t.Errorf("λ=0 selected %v, want %v (sizes %v)", alg, bestAlg, sizes)
	}
}

// twoHalfLine is compressible by FPC at 304 bits (pattern 8), by BDI at 308
// bits (base2-delta1), and not at all by C-Pack+Z: FPC wins on size, BDI on
// latency.
func twoHalfLine() []byte {
	l := make([]byte, comp.LineSize)
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(l[i*4:], uint32(i)<<16|uint32(100-i))
	}
	return l
}

func TestAdaptiveLargeLambdaPrefersFastCodec(t *testing.T) {
	// Fig. 6: with λ=32 the system strongly prefers the low-latency codec
	// (BDI), while λ=0 picks purely by compressed size (FPC here).
	line := twoHalfLine()
	fp := comp.NewFPC().Compress(line)
	bd := comp.NewBDI().Compress(line)
	if fp.Uncompressed || bd.Uncompressed || fp.Bits >= bd.Bits {
		t.Fatalf("test line invalid: fpc=%d bits (raw %v), bdi=%d bits (raw %v)",
			fp.Bits, fp.Uncompressed, bd.Bits, bd.Uncompressed)
	}

	small := NewAdaptive(Config{Lambda: 0})
	large := NewAdaptive(Config{Lambda: 32})
	for i := 0; i < DefaultSampleCount; i++ {
		small.Process(line)
		large.Process(line)
	}
	if alg, _ := small.Selected(); alg != comp.FPC {
		t.Errorf("λ=0 selected %v, want FPC (fpc=%d bits, bdi=%d bits)", alg, fp.Bits, bd.Bits)
	}
	if alg, _ := large.Selected(); alg != comp.BDI {
		t.Errorf("λ=32 selected %v, want BDI (fpc=%d bits, bdi=%d bits)", alg, fp.Bits, bd.Bits)
	}
}

func TestAdaptiveRunningPhaseFallbackToRaw(t *testing.T) {
	// Select BDI during sampling, then feed incompressible lines in the
	// running phase: transfers must ship raw with Comp Alg = None.
	rng := rand.New(rand.NewSource(4))
	a := NewAdaptive(Config{SampleCount: 3, RunLength: 10, Lambda: 6})
	for i := 0; i < 3; i++ {
		a.Process(ldrLine(1<<50, 1))
	}
	if alg, _ := a.Selected(); alg != comp.BDI {
		t.Fatalf("setup: selected %v", alg)
	}
	d := a.Process(randLine(rng))
	if d.Alg != comp.None {
		t.Errorf("incompressible running-phase line shipped as %v", d.Alg)
	}
	if d.CompressionCycles == 0 {
		t.Error("compression attempt latency not charged")
	}
	if d.DecompressionCycles != 0 {
		t.Error("receiver should bypass decompression")
	}
}

func TestAdaptiveSingleCandidateOnOff(t *testing.T) {
	// Sec. V: with one codec the scheme degenerates to on/off control.
	rng := rand.New(rand.NewSource(5))
	a := NewAdaptive(Config{
		Lambda:      6,
		SampleCount: 3,
		RunLength:   4,
		Candidates:  []comp.Compressor{comp.NewBDI()},
	})
	for i := 0; i < 3; i++ {
		a.Process(randLine(rng))
	}
	if alg, _ := a.Selected(); alg != comp.None {
		t.Errorf("on/off controller selected %v on random data, want off", alg)
	}
	// Run through the running phase and the next sampling phase with
	// compressible data: should switch on.
	for i := 0; i < 4; i++ {
		a.Process(randLine(rng))
	}
	for i := 0; i < 3; i++ {
		a.Process(ldrLine(1<<50, 2))
	}
	if alg, _ := a.Selected(); alg != comp.BDI {
		t.Errorf("on/off controller selected %v on compressible data, want BDI", alg)
	}
}

func TestAdaptiveVotingMajorityWins(t *testing.T) {
	// 4 BDI-friendly samples vs 3 incompressible: BDI must win the vote.
	rng := rand.New(rand.NewSource(6))
	a := NewAdaptive(Config{SampleCount: 7, RunLength: 5, Lambda: 6})
	for i := 0; i < 7; i++ {
		if i < 4 {
			a.Process(ldrLine(1<<50, 3))
		} else {
			a.Process(randLine(rng))
		}
	}
	if alg, _ := a.Selected(); alg != comp.BDI {
		t.Errorf("vote selected %v, want BDI (4/7 wins)", alg)
	}
}

func TestAdaptiveDecisionRoundTrips(t *testing.T) {
	// Whatever the controller decides, the receiver must be able to
	// reconstruct the line.
	rng := rand.New(rand.NewSource(7))
	a := NewAdaptive(Config{Lambda: 6})
	gens := []func() []byte{
		func() []byte { return randLine(rng) },
		func() []byte { return ldrLine(rng.Uint64(), rng.Intn(100)) },
		zeroLine,
		narrowLine,
	}
	for i := 0; i < 2000; i++ {
		line := gens[rng.Intn(len(gens))]()
		d := a.Process(line)
		var got []byte
		if d.Alg == comp.None {
			got = d.Enc.Data
		} else {
			var err error
			got, err = comp.NewCompressor(d.Alg).Decompress(d.Enc)
			if err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
		}
		if !bytes.Equal(got, line) {
			t.Fatalf("iteration %d: decision round trip mismatch (alg %v)", i, d.Alg)
		}
	}
}

func TestPolicyFor(t *testing.T) {
	for _, spec := range []string{"none", "fpc", "bdi", "cpackz", "adaptive"} {
		id, err := ParsePolicy(spec)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", spec, err)
		}
		factory, err := PolicyFactory(id, 6)
		if err != nil || factory() == nil {
			t.Errorf("PolicyFactory(%q) failed: %v", spec, err)
		}
	}
	if _, err := ParsePolicy("huffman"); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := PolicyFactory(PolicyID(99), 6); err == nil {
		t.Error("out-of-range policy accepted")
	}
}

// TestInvalidLambdaRejected: a negative, NaN or infinite λ fails
// ValidateLambda, PolicyFactory and NewAdaptive (by panicking), so no
// caller gets a controller under which no codec wins.
func TestInvalidLambdaRejected(t *testing.T) {
	for _, c := range []struct {
		name   string
		lambda float64
		err    string
	}{
		{"NaN", math.NaN(), "non-finite lambda NaN"},
		{"+Inf", math.Inf(1), "non-finite lambda +Inf"},
		{"-Inf", math.Inf(-1), "non-finite lambda -Inf"},
		{"-1", -1, "negative lambda -1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := ValidateLambda(c.lambda); err == nil || err.Error() != c.err {
				t.Errorf("ValidateLambda = %v, want %q", err, c.err)
			}
			for id := PolicyID(0); id < policyCount; id++ {
				if _, err := PolicyFactory(id, c.lambda); err == nil || !strings.Contains(err.Error(), c.err) {
					t.Errorf("PolicyFactory(%v) = %v, want %q", id, err, c.err)
				}
			}
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), c.err) {
					t.Errorf("NewAdaptive panicked with %v, want %q", r, c.err)
				}
			}()
			NewAdaptive(Config{Lambda: c.lambda})
		})
	}
	for _, l := range []float64{0, DefaultLambda, math.MaxFloat64} {
		if err := ValidateLambda(l); err != nil {
			t.Errorf("ValidateLambda(%g) = %v", l, err)
		}
	}
}

func TestPolicyIDRoundTrip(t *testing.T) {
	for id := PolicyID(0); id < policyCount; id++ {
		got, err := ParsePolicy(id.String())
		if err != nil {
			t.Errorf("ParsePolicy(%v.String()): %v", id, err)
		}
		if got != id {
			t.Errorf("round trip %v -> %q -> %v", id, id.String(), got)
		}
	}
	if PolicyID(99).Valid() {
		t.Error("PolicyID(99) reported valid")
	}
	if PolicyID(-1).Valid() {
		t.Error("PolicyID(-1) reported valid")
	}
}

func TestAdaptiveVoteTieBreakByPenalty(t *testing.T) {
	// Two candidates each win half the samples (even sample count): the
	// tie must break toward the lower cumulative penalty.
	fpcLine := twoHalfLine() // FPC 304 bits, BDI 308 bits
	bdiLine := ldrLine(1<<50, 3)

	a := NewAdaptive(Config{Lambda: 0, SampleCount: 2, RunLength: 5})
	a.Process(fpcLine) // FPC wins this sample
	a.Process(bdiLine) // BDI wins this sample
	alg, sampling := a.Selected()
	if sampling {
		t.Fatal("sampling did not close")
	}
	// Cumulative penalties decide; whichever won, it must be a real codec,
	// not the bypass (both samples were compressible).
	if alg == comp.None {
		t.Errorf("tie broke to bypass on compressible data")
	}
}

func TestAdaptiveSelectionHistoryIsCopied(t *testing.T) {
	a := NewAdaptive(Config{SampleCount: 1, RunLength: 1})
	a.Process(zeroLine())
	h := a.SelectionHistory()
	if len(h) != 1 {
		t.Fatalf("history = %v", h)
	}
	h[0] = comp.Algorithm(99)
	if a.SelectionHistory()[0] == comp.Algorithm(99) {
		t.Error("SelectionHistory leaks internal state")
	}
}
