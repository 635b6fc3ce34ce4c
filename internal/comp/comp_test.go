package comp

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// lineOf builds a 64-byte line from 32-bit words, repeating the given words.
func lineOf32(words ...uint32) []byte {
	line := make([]byte, LineSize)
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(line[i*4:], words[i%len(words)])
	}
	return line
}

func lineOf64(words ...uint64) []byte {
	line := make([]byte, LineSize)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(line[i*8:], words[i%len(words)])
	}
	return line
}

func randomLine(rng *rand.Rand) []byte {
	line := make([]byte, LineSize)
	rng.Read(line)
	return line
}

// patternedLine generates lines in the pattern families of Sec. III-A, so
// property tests cover the paths the codecs are designed for and not just
// random (incompressible) data.
func patternedLine(rng *rand.Rand) []byte {
	switch rng.Intn(8) {
	case 0: // zero line
		return make([]byte, LineSize)
	case 1: // repeated 64-bit word
		return lineOf64(rng.Uint64())
	case 2: // narrow 32-bit words
		line := make([]byte, LineSize)
		for i := 0; i < 16; i++ {
			binary.LittleEndian.PutUint32(line[i*4:], uint32(rng.Intn(256)))
		}
		return line
	case 3: // low dynamic range around a large base
		line := make([]byte, LineSize)
		base := rng.Uint64()
		for i := 0; i < 8; i++ {
			binary.LittleEndian.PutUint64(line[i*8:], base+uint64(rng.Intn(256))-128)
		}
		return line
	case 4: // small signed values (FPC territory)
		line := make([]byte, LineSize)
		for i := 0; i < 16; i++ {
			binary.LittleEndian.PutUint32(line[i*4:], uint32(int32(rng.Intn(65536)-32768)))
		}
		return line
	case 5: // spatially similar words (C-Pack territory)
		line := make([]byte, LineSize)
		seed := rng.Uint32()
		for i := 0; i < 16; i++ {
			binary.LittleEndian.PutUint32(line[i*4:], seed&0xFFFFFF00|uint32(rng.Intn(256)))
		}
		return line
	case 6: // sparse: mostly zeros with a few random words
		line := make([]byte, LineSize)
		for i := 0; i < 3; i++ {
			binary.LittleEndian.PutUint32(line[rng.Intn(16)*4:], rng.Uint32())
		}
		return line
	default:
		return randomLine(rng)
	}
}

func TestCodecRoundTripOnPatternedData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range AllCompressors() {
		c := c
		t.Run(c.Algorithm().String(), func(t *testing.T) {
			for i := 0; i < 5000; i++ {
				line := patternedLine(rng)
				enc := c.Compress(line)
				if enc.Bits <= 0 || enc.Bits > LineBits {
					t.Fatalf("iteration %d: Bits = %d out of range", i, enc.Bits)
				}
				got, err := c.Decompress(enc)
				if err != nil {
					t.Fatalf("iteration %d: decompress: %v (line %x)", i, err, line)
				}
				if !bytes.Equal(got, line) {
					t.Fatalf("iteration %d: round trip mismatch:\n in %x\nout %x", i, line, got)
				}
			}
		})
	}
}

func TestCodecRoundTripOnRandomData(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, c := range AllCompressors() {
		c := c
		t.Run(c.Algorithm().String(), func(t *testing.T) {
			for i := 0; i < 2000; i++ {
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
		})
	}
}

func TestCodecBitsMatchesBitstreamLength(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range AllCompressors() {
		for i := 0; i < 2000; i++ {
			line := patternedLine(rng)
			enc := c.Compress(line)
			if want := (enc.Bits + 7) / 8; len(enc.Data) != want {
				t.Fatalf("%v: data length %d bytes for %d bits, want %d",
					c.Algorithm(), len(enc.Data), enc.Bits, want)
			}
			if enc.WireBytes() != (enc.Bits+7)/8 {
				t.Fatalf("%v: WireBytes inconsistent", c.Algorithm())
			}
		}
	}
}

func TestZeroLineEncodedSizes(t *testing.T) {
	zero := make([]byte, LineSize)
	// Table II: FPC zero block = 3 bits, BDI = 4 bits, C-Pack+Z = 2 bits.
	wants := map[Algorithm]int{FPC: 3, BDI: 4, CPackZ: 2}
	for _, c := range AllCompressors() {
		enc := c.Compress(zero)
		if enc.Bits != wants[c.Algorithm()] {
			t.Errorf("%v zero line = %d bits, want %d", c.Algorithm(), enc.Bits, wants[c.Algorithm()])
		}
		if enc.Patterns[1] != 1 {
			t.Errorf("%v zero line pattern histogram = %v, want pattern 1", c.Algorithm(), enc.Patterns)
		}
	}
}

func TestFPCEncodedSizesPerTableII(t *testing.T) {
	cases := []struct {
		name     string
		word     uint32
		pattern  int
		wordBits int // data+metadata bits per word
	}{
		{"repeated bytes", 0xABABABAB, 3, 11},
		{"4-bit positive", 0x00000007, 4, 7},
		{"4-bit negative", 0xFFFFFFF8, 4, 7},
		{"one byte sign-extended", 0x0000007F, 5, 11},
		{"one byte negative", 0xFFFFFF80, 5, 11},
		{"halfword sign-extended", 0x00007FFF, 6, 19},
		{"halfword negative", 0xFFFF8000, 6, 19},
		{"halfword zero-padded", 0x12340000, 7, 19},
		{"two halfwords byte sign-ext", 0x007F0011, 8, 19},
	}
	f := NewFPC()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			line := lineOf32(c.word)
			enc := f.Compress(line)
			if enc.Uncompressed {
				t.Fatalf("line of %08x unexpectedly uncompressed", c.word)
			}
			if want := 16 * c.wordBits; enc.Bits != want {
				t.Errorf("Bits = %d, want %d (16 words × %d)", enc.Bits, want, c.wordBits)
			}
			if got := enc.Patterns[c.pattern]; got != 16 {
				t.Errorf("pattern %d count = %d, want 16 (hist %v)", c.pattern, got, enc.Patterns)
			}
			got, err := f.Decompress(enc)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, line) {
				t.Errorf("round trip mismatch for %08x", c.word)
			}
		})
	}
}

func TestFPCZeroWordsInsideNonzeroLine(t *testing.T) {
	// 15 zero words (3 bits each) + one 4-bit word (7 bits) = 52 bits.
	f := NewFPC()
	line := make([]byte, LineSize)
	binary.LittleEndian.PutUint32(line[0:], 5)
	enc := f.Compress(line)
	if enc.Bits != 15*3+7 {
		t.Errorf("Bits = %d, want 52", enc.Bits)
	}
	if enc.Patterns[2] != 15 || enc.Patterns[4] != 1 {
		t.Errorf("hist = %v, want 15× zero word + 1× 4-bit", enc.Patterns)
	}
	got, err := f.Decompress(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, line) {
		t.Error("round trip mismatch")
	}
}

func TestFPCIncompressibleWordForcesRawLine(t *testing.T) {
	f := NewFPC()
	line := lineOf32(3)                                  // all compressible...
	binary.LittleEndian.PutUint32(line[20:], 0xDEADBEEF) // ...except one
	enc := f.Compress(line)
	if !enc.Uncompressed {
		t.Fatal("line with incompressible word was not sent raw")
	}
	if enc.Bits != LineBits {
		t.Errorf("raw line Bits = %d, want %d", enc.Bits, LineBits)
	}
	if enc.Patterns[9] != 16 {
		t.Errorf("pattern 9 count = %d, want 16", enc.Patterns[9])
	}
	got, err := f.Decompress(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, line) {
		t.Error("raw round trip mismatch")
	}
}

func TestFPCClassifyWord(t *testing.T) {
	cases := []struct {
		w    uint32
		want int
	}{
		{0, 2},
		{0x11111111, 3},
		{0xFFFFFFFF, 3}, // repeated bytes beats 4-bit sign-extension order? No: order checks repeated first
		{7, 4},
		{0xFFFFFFF8, 4},
		{100, 5},
		{0x7FFF, 6},
		{0xFFFF8000, 6},
		{0xABCD0000, 7},
		{0x00110022, 8},
		{0xDEADBEEF, 9},
		{0x00010001, 8}, // two halfwords, each value 1
	}
	for _, c := range cases {
		if got := classifyFPCWord(c.w); got != c.want {
			t.Errorf("classifyFPCWord(%08x) = %d, want %d", c.w, got, c.want)
		}
	}
}

func TestBDIEncodedSizesPerTableII(t *testing.T) {
	b := NewBDI()

	t.Run("repeated words = 68 bits", func(t *testing.T) {
		enc := b.Compress(lineOf64(0xDEADBEEFCAFEF00D))
		if enc.Bits != 68 {
			t.Errorf("Bits = %d, want 68", enc.Bits)
		}
		if enc.Patterns[2] != 1 {
			t.Errorf("pattern hist = %v, want pattern 2", enc.Patterns)
		}
	})

	t.Run("base8 delta1 = 140 bits", func(t *testing.T) {
		base := uint64(0x1122334455667788)
		line := make([]byte, LineSize)
		for i := 0; i < 8; i++ {
			binary.LittleEndian.PutUint64(line[i*8:], base+uint64(i*3))
		}
		enc := b.Compress(line)
		if enc.Bits != 140 {
			t.Errorf("Bits = %d, want 140 (128 data + 12 metadata)", enc.Bits)
		}
		if enc.Patterns[3] != 1 {
			t.Errorf("pattern hist = %v, want pattern 3", enc.Patterns)
		}
	})

	t.Run("base8 delta2 = 204 bits", func(t *testing.T) {
		base := uint64(0x1122334455667788)
		line := make([]byte, LineSize)
		for i := 0; i < 8; i++ {
			binary.LittleEndian.PutUint64(line[i*8:], base+uint64(i*1000))
		}
		enc := b.Compress(line)
		if enc.Bits != 204 {
			t.Errorf("Bits = %d, want 204 (192 data + 12 metadata)", enc.Bits)
		}
		if enc.Patterns[4] != 1 {
			t.Errorf("pattern hist = %v, want pattern 4", enc.Patterns)
		}
	})

	t.Run("base8 delta4 = 332 bits", func(t *testing.T) {
		base := uint64(0x1122334455667788)
		line := make([]byte, LineSize)
		for i := 0; i < 8; i++ {
			binary.LittleEndian.PutUint64(line[i*8:], base+uint64(i*100000000))
		}
		enc := b.Compress(line)
		if enc.Bits != 332 {
			t.Errorf("Bits = %d, want 332 (320 data + 12 metadata)", enc.Bits)
		}
		if enc.Patterns[5] != 1 {
			t.Errorf("pattern hist = %v, want pattern 5", enc.Patterns)
		}
	})

	t.Run("base4 delta1 = 180 bits", func(t *testing.T) {
		line := make([]byte, LineSize)
		base := uint32(0x11223344)
		for i := 0; i < 16; i++ {
			binary.LittleEndian.PutUint32(line[i*4:], base+uint32(i))
		}
		enc := b.Compress(line)
		if enc.Bits != 180 {
			t.Errorf("Bits = %d, want 180 (160 data + 20 metadata)", enc.Bits)
		}
		if enc.Patterns[6] != 1 {
			t.Errorf("pattern hist = %v, want pattern 6", enc.Patterns)
		}
	})

	t.Run("base2 delta1 = 308 bits", func(t *testing.T) {
		line := make([]byte, LineSize)
		base := uint16(0x7700)
		for i := 0; i < 32; i++ {
			v := base + uint16(i)
			if i%2 == 1 {
				v = uint16(i) // immediates via zero base
			}
			binary.LittleEndian.PutUint16(line[i*2:], v)
		}
		enc := b.Compress(line)
		if enc.Bits != 308 {
			t.Errorf("Bits = %d, want 308 (272 data + 36 metadata)", enc.Bits)
		}
		if enc.Patterns[8] != 1 {
			t.Errorf("pattern hist = %v, want pattern 8", enc.Patterns)
		}
	})

	t.Run("random line is uncompressed", func(t *testing.T) {
		rng := rand.New(rand.NewSource(9))
		enc := b.Compress(randomLine(rng))
		if !enc.Uncompressed {
			t.Skip("random line happened to be compressible")
		}
		if enc.Bits != LineBits || enc.Patterns[9] != 1 {
			t.Errorf("raw encoding inconsistent: %d bits, hist %v", enc.Bits, enc.Patterns)
		}
	})
}

func TestBDIPicksSmallestConfig(t *testing.T) {
	// A line that is encodable with base8 delta4 (332) AND base4 delta2
	// (308): BDI must pick base4 delta2.
	line := make([]byte, LineSize)
	base := uint32(0x20000000)
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(line[i*4:], base+uint32(i*100))
	}
	enc := NewBDI().Compress(line)
	if enc.Bits != 180 {
		// base4 delta1 fits too (deltas up to 1500 don't fit 1 byte though)
		t.Logf("hist: %v", enc.Patterns)
		if enc.Bits != 308 {
			t.Errorf("Bits = %d, want the smallest applicable config", enc.Bits)
		}
	}
}

func TestBDIMixedNarrowAndBase(t *testing.T) {
	// Half the words are narrow (immediates from the zero base), half are
	// clustered around a large base: the combination is BDI's specialty.
	line := make([]byte, LineSize)
	base := uint64(0xAABBCCDD00112233)
	for i := 0; i < 8; i++ {
		if i%2 == 0 {
			binary.LittleEndian.PutUint64(line[i*8:], uint64(i))
		} else {
			binary.LittleEndian.PutUint64(line[i*8:], base+uint64(i))
		}
	}
	b := NewBDI()
	enc := b.Compress(line)
	if enc.Uncompressed {
		t.Fatal("mixed narrow+base line not compressed")
	}
	if enc.Patterns[3] != 1 {
		t.Errorf("expected base8 delta1 (pattern 3), hist %v", enc.Patterns)
	}
	got, err := b.Decompress(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, line) {
		t.Error("round trip mismatch")
	}
}

func TestCPackZEncodedSizesPerTableII(t *testing.T) {
	c := NewCPackZ()

	t.Run("all distinct random words = raw", func(t *testing.T) {
		// 16 new words would cost 16×34 = 544 > 512, so the line ships raw.
		rng := rand.New(rand.NewSource(7))
		line := make([]byte, LineSize)
		for i := 0; i < 16; i++ {
			binary.LittleEndian.PutUint32(line[i*4:], rng.Uint32()|0xFF000000)
		}
		enc := c.Compress(line)
		if !enc.Uncompressed {
			t.Fatalf("expected raw fallback, got %d bits", enc.Bits)
		}
		if enc.Patterns[8] != 16 {
			t.Errorf("hist = %v, want 16× pattern 8", enc.Patterns)
		}
	})

	t.Run("full matches", func(t *testing.T) {
		// One new word then 15 full matches: 34 + 15×8 = 154 bits.
		line := lineOf32(0xCAFEBABE)
		enc := c.Compress(line)
		if enc.Bits != 154 {
			t.Errorf("Bits = %d, want 154", enc.Bits)
		}
		if enc.Patterns[3] != 1 || enc.Patterns[4] != 15 {
			t.Errorf("hist = %v, want 1 new + 15 full matches", enc.Patterns)
		}
	})

	t.Run("narrow words", func(t *testing.T) {
		// 16 narrow words: 16×12 = 192 bits.
		line := lineOf32(0x00000042, 0x00000017)
		enc := c.Compress(line)
		if enc.Bits != 192 {
			t.Errorf("Bits = %d, want 192", enc.Bits)
		}
		if enc.Patterns[6] != 16 {
			t.Errorf("hist = %v, want 16 narrow", enc.Patterns)
		}
	})

	t.Run("three-byte matches", func(t *testing.T) {
		// First word new (34), rest share the upper 3 bytes: 15×16 = 240.
		line := make([]byte, LineSize)
		for i := 0; i < 16; i++ {
			binary.LittleEndian.PutUint32(line[i*4:], 0xAABBCC00|uint32(i*7+1))
		}
		enc := c.Compress(line)
		if want := 34 + 15*16; enc.Bits != want {
			t.Errorf("Bits = %d, want %d", enc.Bits, want)
		}
		if enc.Patterns[3] != 1 || enc.Patterns[7] != 15 {
			t.Errorf("hist = %v, want 1 new + 15 three-byte matches", enc.Patterns)
		}
	})

	t.Run("halfword matches", func(t *testing.T) {
		// First word new, rest share only the upper halfword:
		// 34 + 15×24 = 394.
		line := make([]byte, LineSize)
		for i := 0; i < 16; i++ {
			binary.LittleEndian.PutUint32(line[i*4:], 0xAABB0000|uint32(i)<<8|0x44)
		}
		enc := c.Compress(line)
		if want := 34 + 15*24; enc.Bits != want {
			t.Errorf("Bits = %d, want %d (hist %v)", enc.Bits, want, enc.Patterns)
		}
		if enc.Patterns[3] != 1 || enc.Patterns[5] != 15 {
			t.Errorf("hist = %v, want 1 new + 15 halfword matches", enc.Patterns)
		}
	})

	t.Run("zero words mixed with data", func(t *testing.T) {
		// Alternating zero and a repeated word: 8×2 + 34 + 7×8 = 106.
		line := lineOf32(0, 0x12345678)
		enc := c.Compress(line)
		if want := 8*2 + 34 + 7*8; enc.Bits != want {
			t.Errorf("Bits = %d, want %d", enc.Bits, want)
		}
	})
}

func TestCPackZDictionaryReconstruction(t *testing.T) {
	// Words deliberately exercise insert-then-match across the dictionary.
	rng := rand.New(rand.NewSource(11))
	c := NewCPackZ()
	for trial := 0; trial < 500; trial++ {
		vocab := make([]uint32, rng.Intn(6)+1)
		for i := range vocab {
			vocab[i] = rng.Uint32()
		}
		line := make([]byte, LineSize)
		for i := 0; i < 16; i++ {
			w := vocab[rng.Intn(len(vocab))]
			switch rng.Intn(4) {
			case 0:
				w = w&0xFFFFFF00 | uint32(rng.Intn(256)) // 3-byte variant
			case 1:
				w = w&0xFFFF0000 | uint32(rng.Intn(65536)) // halfword variant
			}
			binary.LittleEndian.PutUint32(line[i*4:], w)
		}
		enc := c.Compress(line)
		got, err := c.Decompress(enc)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(got, line) {
			t.Fatalf("trial %d: round trip mismatch", trial)
		}
	}
}

func TestDecompressRejectsWrongAlgorithm(t *testing.T) {
	line := lineOf32(7)
	for _, c := range AllCompressors() {
		enc := c.Compress(line)
		for _, other := range AllCompressors() {
			if other.Algorithm() == c.Algorithm() {
				continue
			}
			if _, err := other.Decompress(enc); err == nil {
				t.Errorf("%v decompressor accepted %v data", other.Algorithm(), c.Algorithm())
			}
		}
	}
}

func TestCompressPanicsOnWrongLineSize(t *testing.T) {
	for _, c := range AllCompressors() {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v accepted a short line", c.Algorithm())
				}
			}()
			c.Compress(make([]byte, 32))
		}()
	}
}

func TestCostTableIII(t *testing.T) {
	cases := []struct {
		alg          Algorithm
		comp, decomp int
		area         float64
		energyPJ     float64 // paper's combined column
		tolerance    float64
	}{
		{FPC, 3, 5, 4428, 36.9, 0.2},
		{BDI, 2, 1, 162, 1.3, 0.15},
		{CPackZ, 16, 9, 766, 40.0, 0.6},
	}
	for _, c := range cases {
		cost := CostOf(c.alg)
		if cost.CompressionCycles != c.comp || cost.DecompressionCycles != c.decomp {
			t.Errorf("%v latency = %d/%d, want %d/%d", c.alg,
				cost.CompressionCycles, cost.DecompressionCycles, c.comp, c.decomp)
		}
		if cost.AreaUM2 != c.area {
			t.Errorf("%v area = %v, want %v", c.alg, cost.AreaUM2, c.area)
		}
		got := cost.BlockEnergyPJ()
		if got < c.energyPJ-c.tolerance || got > c.energyPJ+c.tolerance {
			t.Errorf("%v block energy = %.2f pJ, want %.1f ± %.2f", c.alg, got, c.energyPJ, c.tolerance)
		}
	}
	if (CostOf(None) != Cost{}) {
		t.Error("None has nonzero cost")
	}
}

func TestSupportedPatternsTableI(t *testing.T) {
	checks := []struct {
		alg     Algorithm
		pattern DataPattern
		want    Support
	}{
		{FPC, ZeroWordBlock, Yes},
		{FPC, NarrowWord, Yes},
		{FPC, LowDynamicRange, No},
		{FPC, SpatialSimilarity, No},
		{BDI, LowDynamicRange, Yes},
		{BDI, NarrowWord, Partial},
		{BDI, SpatialSimilarity, No},
		{CPackZ, SpatialSimilarity, Yes},
		{CPackZ, NarrowWord, Partial},
		{CPackZ, LowDynamicRange, No},
	}
	for _, c := range checks {
		if got := SupportedPatterns(c.alg)[c.pattern]; got != c.want {
			t.Errorf("SupportedPatterns(%v)[%v] = %v, want %v", c.alg, c.pattern, got, c.want)
		}
	}
	if len(AllDataPatterns()) != 5 {
		t.Errorf("AllDataPatterns returned %d patterns, want 5", len(AllDataPatterns()))
	}
}

func TestPatternHistogramTopMatchesTableVIFormat(t *testing.T) {
	var h PatternHistogram
	h[2] = 86
	h[9] = 12
	h[1] = 1
	h[3] = 1
	top := h.Top(3)
	if len(top) != 3 {
		t.Fatalf("Top(3) returned %d entries", len(top))
	}
	if top[0].Pattern != 2 || top[1].Pattern != 9 {
		t.Errorf("Top order = %v, want patterns 2, 9 first", top)
	}
	if top[0].Share < 0.85 || top[0].Share > 0.87 {
		t.Errorf("top share = %v, want ~0.86", top[0].Share)
	}
	sum := 0.0
	for p := 1; p <= MaxPattern; p++ {
		if h[p] > 0 {
			sum += float64(h[p])
		}
	}
	if sum != float64(h.Total()) {
		t.Error("Total inconsistent with entries")
	}
}

func TestPatternHistogramAdd(t *testing.T) {
	var a, b PatternHistogram
	a[1], a[5] = 3, 7
	b[5], b[9] = 2, 4
	a.Add(b)
	if a[1] != 3 || a[5] != 9 || a[9] != 4 {
		t.Errorf("Add result = %v", a)
	}
}

func TestEncodedRatio(t *testing.T) {
	e := Encoded{Bits: 128}
	if e.Ratio() != 4.0 {
		t.Errorf("Ratio = %v, want 4.0", e.Ratio())
	}
}

func TestAlgorithmString(t *testing.T) {
	names := map[Algorithm]string{None: "None", FPC: "FPC", BDI: "BDI", CPackZ: "C-Pack+Z"}
	for alg, want := range names {
		if alg.String() != want {
			t.Errorf("%d.String() = %q, want %q", alg, alg.String(), want)
		}
	}
	if Algorithm(200).String() != "Algorithm(200)" {
		t.Errorf("unknown algorithm string = %q", Algorithm(200).String())
	}
}

func TestNewCompressor(t *testing.T) {
	for _, alg := range []Algorithm{FPC, BDI, CPackZ} {
		c := NewCompressor(alg)
		if c == nil || c.Algorithm() != alg {
			t.Errorf("NewCompressor(%v) wrong", alg)
		}
	}
	if NewCompressor(None) != nil {
		t.Error("NewCompressor(None) should be nil")
	}
}

// BDI should beat FPC and C-Pack+Z on low-dynamic-range data (Table I).
func TestRelativeStrengthLowDynamicRange(t *testing.T) {
	line := make([]byte, LineSize)
	base := uint64(0x4045000000000000) // a double-precision-like value
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(line[i*8:], base+uint64(i*17))
	}
	fpcBits := NewFPC().Compress(line).Bits
	bdiBits := NewBDI().Compress(line).Bits
	if bdiBits >= fpcBits {
		t.Errorf("BDI (%d bits) should beat FPC (%d bits) on low-dynamic-range data", bdiBits, fpcBits)
	}
}

// C-Pack+Z should beat BDI on spatially-similar but not low-dynamic-range
// data (Table I).
func TestRelativeStrengthSpatialSimilarity(t *testing.T) {
	line := make([]byte, LineSize)
	words := []uint32{0xAABB1234, 0xAABB9876, 0xCCDD1111, 0xCCDD2222}
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(line[i*4:], words[i%4])
	}
	cpBits := NewCPackZ().Compress(line).Bits
	bdiBits := NewBDI().Compress(line).Bits
	if cpBits >= bdiBits {
		t.Errorf("C-Pack+Z (%d bits) should beat BDI (%d bits) on spatially similar data", cpBits, bdiBits)
	}
}

// DecodeInto reconstructs exactly what Decode returns, into a reused line
// whose previous contents must not leak through.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	dst := bytes.Repeat([]byte{0xEE}, LineSize)
	for _, c := range ExtendedCompressors() {
		for _, grade := range benchGrades {
			for i, line := range benchLines(grade) {
				enc := c.Compress(line)
				want, err := Decode(enc)
				if err != nil {
					t.Fatalf("%v/%s/%d: Decode: %v", c.Algorithm(), grade, i, err)
				}
				if err := DecodeInto(dst, enc); err != nil {
					t.Fatalf("%v/%s/%d: DecodeInto: %v", c.Algorithm(), grade, i, err)
				}
				if !bytes.Equal(dst, want) || !bytes.Equal(dst, line) {
					t.Fatalf("%v/%s/%d: DecodeInto differs from Decode", c.Algorithm(), grade, i)
				}
			}
		}
	}
	if err := DecodeInto(make([]byte, 8), NewBDI().Compress(make([]byte, LineSize))); err == nil {
		t.Error("short destination accepted")
	}
	if err := DecodeInto(dst, Encoded{Alg: None}); err == nil {
		t.Error("algorithm without a decoder accepted")
	}
}
