package comp

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBPCRoundTripPatterned(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	c := NewBPC()
	for i := 0; i < 5000; i++ {
		line := patternedLine(rng)
		enc := c.Compress(line)
		if enc.Bits <= 0 || enc.Bits > LineBits {
			t.Fatalf("iteration %d: Bits = %d", i, enc.Bits)
		}
		got, err := c.Decompress(enc)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if !bytes.Equal(got, line) {
			t.Fatalf("iteration %d: round trip mismatch\n in %x\nout %x", i, line, got)
		}
	}
}

func TestBPCRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	c := NewBPC()
	for i := 0; i < 3000; i++ {
		line := randomLine(rng)
		enc := c.Compress(line)
		got, err := c.Decompress(enc)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if !bytes.Equal(got, line) {
			t.Fatalf("iteration %d: round trip mismatch", i)
		}
	}
}

func TestBPCZeroLine(t *testing.T) {
	c := NewBPC()
	enc := c.Compress(make([]byte, LineSize))
	// base zero (2 bits) + one 33-plane zero run ('01'+5 = 7 bits ... the
	// run caps at 33) = 9 bits.
	if enc.Bits != 9 {
		t.Errorf("zero line = %d bits, want 9", enc.Bits)
	}
	got, err := c.Decompress(enc)
	if err != nil || !bytes.Equal(got, make([]byte, LineSize)) {
		t.Fatal("zero line round trip failed")
	}
}

func TestBPCLinearRampCompressesHard(t *testing.T) {
	// Equal deltas: all DBX planes are zero except where the delta's bit
	// pattern sits, BPC's showcase input.
	line := make([]byte, LineSize)
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(line[i*4:], 1000+uint32(i)*4)
	}
	c := NewBPC()
	enc := c.Compress(line)
	if enc.Bits > 80 {
		t.Errorf("linear ramp = %d bits, want very small", enc.Bits)
	}
	got, err := c.Decompress(enc)
	if err != nil || !bytes.Equal(got, line) {
		t.Fatal("ramp round trip failed")
	}
}

// The paper's related work says bit-plane pre-coding improves inherent
// compressibility: on a noisy ramp BPC should beat all three base codecs.
func TestBPCBeatsBaseCodecsOnNoisyRamp(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	line := make([]byte, LineSize)
	v := uint32(1 << 20)
	for i := 0; i < 16; i++ {
		v += 100 + uint32(rng.Intn(4)) // nearly-constant delta
		binary.LittleEndian.PutUint32(line[i*4:], v)
	}
	bpcBits := NewBPC().Compress(line).Bits
	for _, c := range AllCompressors() {
		if got := c.Compress(line).Bits; bpcBits >= got {
			t.Errorf("BPC (%d bits) should beat %v (%d bits) on noisy ramp", bpcBits, c.Algorithm(), got)
		}
	}
}

func TestBPCTransformInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		line := patternedLine(rng)
		base, dbx := bpcTransform(line)
		got := make([]byte, LineSize)
		bpcInverse(got, base, dbx)
		return bytes.Equal(got, line)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBPCGarbageNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	c := NewBPC()
	for i := 0; i < 2000; i++ {
		garbage := make([]byte, rng.Intn(70))
		rng.Read(garbage)
		enc := Encoded{Alg: BPC, Bits: rng.Intn(520), Data: garbage}
		out, err := c.Decompress(enc)
		if err == nil && len(out) != LineSize {
			t.Fatalf("garbage decoded to %d bytes", len(out))
		}
	}
}

func TestBPCInExtendedSet(t *testing.T) {
	ext := ExtendedCompressors()
	if len(ext) != 4 {
		t.Fatalf("ExtendedCompressors has %d codecs", len(ext))
	}
	if ext[3].Algorithm() != BPC {
		t.Error("BPC missing from extended set")
	}
	if len(AllCompressors()) != 3 {
		t.Error("AllCompressors must stay at the paper's three codecs")
	}
	if NewCompressor(BPC) == nil {
		t.Error("NewCompressor(BPC) is nil")
	}
	if BPC.String() != "BPC" {
		t.Errorf("BPC name = %q", BPC.String())
	}
	if CostOf(BPC).CompressionCycles == 0 {
		t.Error("BPC has no cost model")
	}
}

func TestBPCWrongAlgorithmRejected(t *testing.T) {
	enc := NewFPC().Compress(lineOf32(7))
	if _, err := NewBPC().Decompress(enc); err == nil {
		t.Error("BPC accepted FPC data")
	}
}
