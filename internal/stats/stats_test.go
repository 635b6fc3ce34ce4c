package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mgpucompress/internal/comp"
)

func TestByteEntropyExtremes(t *testing.T) {
	zeros := make([]byte, 4096)
	if e := ByteEntropy(zeros); e != 0 {
		t.Errorf("entropy of zeros = %v, want 0", e)
	}
	uniform := make([]byte, 256*16)
	for i := range uniform {
		uniform[i] = byte(i % 256)
	}
	if e := ByteEntropy(uniform); math.Abs(e-1.0) > 1e-12 {
		t.Errorf("entropy of uniform bytes = %v, want 1", e)
	}
	if e := ByteEntropy(nil); e != 0 {
		t.Errorf("entropy of empty = %v, want 0", e)
	}
}

func TestByteEntropyTwoSymbols(t *testing.T) {
	// 50/50 two symbols: 1 bit per byte = 0.125 normalized.
	data := make([]byte, 1000)
	for i := range data {
		if i%2 == 0 {
			data[i] = 0xAA
		} else {
			data[i] = 0x55
		}
	}
	if e := ByteEntropy(data); math.Abs(e-0.125) > 1e-12 {
		t.Errorf("entropy = %v, want 0.125", e)
	}
}

func TestByteEntropyRandomIsHigh(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 64*1024)
	rng.Read(data)
	if e := ByteEntropy(data); e < 0.99 {
		t.Errorf("entropy of random data = %v, want ≈1", e)
	}
}

// refByteEntropy is the straightforward ByteEntropy: full-width counts and
// a scan over all 256 of them.
func refByteEntropy(data []byte) float64 {
	if len(data) == 0 {
		return 0
	}
	var counts [256]int
	for _, b := range data {
		counts[b]++
	}
	n := float64(len(data))
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h / 8
}

// TestByteEntropyMatchesReference pins ByteEntropy bit for bit to the
// reference over random and skewed data of every length up to 1024: lengths
// above 255 put counts past a byte's range, and skewed data (few symbols,
// one dominant) puts a single count near the length.
func TestByteEntropyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 1024)
	for n := 0; n <= len(data); n++ {
		line := data[:n]
		rng.Read(line)
		check := func(kind string) {
			if got, want := ByteEntropy(line), refByteEntropy(line); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s length %d: entropy %v, reference %v", kind, n, got, want)
			}
		}
		check("random")
		symbols := 1 + rng.Intn(8)
		for i := range line {
			line[i] = byte(rng.Intn(symbols) * 37)
			if rng.Intn(4) != 0 {
				line[i] = 0xFF
			}
		}
		check("skewed")
	}
}

// TestAddLineMatchesReference pins AddLine's one counting pass to the two
// it replaces: EntropySum gains refByteEntropy of the line bit for bit, and
// ByteCounts a plain count of its bytes, on random, patterned and short
// lines, and on full lines where one byte value occurs exactly c times for
// every c in 1..64, so every entry of the full-line term table is read.
func TestAddLineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var lines [][]byte
	for i := 0; i < 64; i++ {
		random := make([]byte, comp.LineSize)
		rng.Read(random)
		patterned := make([]byte, comp.LineSize)
		for j := range patterned {
			patterned[j] = byte(j % (1 + i%8) * 17)
		}
		short := make([]byte, i%9)
		rng.Read(short)
		lines = append(lines, random, patterned, short)
	}
	for c := 1; c <= comp.LineSize; c++ {
		line := make([]byte, comp.LineSize)
		for j := c; j < len(line); j++ {
			line[j] = byte(1 + rng.Intn(255)) // never 0, so 0 occurs c times
		}
		rng.Shuffle(len(line), func(i, j int) { line[i], line[j] = line[j], line[i] })
		lines = append(lines, line)
	}
	var got Traffic
	var wantSum float64
	var wantCounts [256]uint64
	for _, line := range lines {
		got.AddLine(line, len(line), false)
		wantSum += refByteEntropy(line)
		for _, b := range line {
			wantCounts[b]++
		}
		if math.Float64bits(got.EntropySum) != math.Float64bits(wantSum) {
			t.Fatalf("line %x: EntropySum %v, reference %v", line, got.EntropySum, wantSum)
		}
		if got.ByteCounts != wantCounts {
			t.Fatalf("line %x: ByteCounts differ from a plain count", line)
		}
	}
}

// Property: entropy is always in [0, 1] and invariant under permutation.
func TestByteEntropyBoundsProperty(t *testing.T) {
	f := func(data []byte) bool {
		e := ByteEntropy(data)
		if e < 0 || e > 1+1e-12 {
			return false
		}
		// reverse is a permutation
		rev := make([]byte, len(data))
		for i, b := range data {
			rev[len(data)-1-i] = b
		}
		return math.Abs(ByteEntropy(rev)-e) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTrafficAccounting(t *testing.T) {
	var tr Traffic
	line := make([]byte, comp.LineSize)
	tr.AddLine(line, 1, true)   // compressed to 1 byte
	tr.AddLine(line, 64, false) // raw
	if tr.Lines != 2 || tr.CompressedLines != 1 {
		t.Errorf("lines = %d/%d", tr.CompressedLines, tr.Lines)
	}
	if tr.UncompressedPayloadBytes != 128 || tr.PayloadBytes != 65 {
		t.Errorf("payload accounting = %d/%d", tr.PayloadBytes, tr.UncompressedPayloadBytes)
	}
	want := 128.0 / 65.0
	if math.Abs(tr.CompressionRatio()-want) > 1e-12 {
		t.Errorf("ratio = %v, want %v", tr.CompressionRatio(), want)
	}
	tr.HeaderBytes = 35
	if tr.TotalBytes() != 100 {
		t.Errorf("TotalBytes = %d, want 100", tr.TotalBytes())
	}
	if tr.MeanEntropy() != 0 {
		t.Errorf("mean entropy of zero lines = %v", tr.MeanEntropy())
	}
}

func TestTrafficEmptyRatio(t *testing.T) {
	var tr Traffic
	if tr.CompressionRatio() != 1 {
		t.Errorf("empty ratio = %v, want 1", tr.CompressionRatio())
	}
}

func TestSeriesCollectsUpToLimit(t *testing.T) {
	s := NewSeries(3)
	line := make([]byte, comp.LineSize)
	for i := 0; i < 5; i++ {
		s.Observe(line)
	}
	if len(s.Samples) != 3 || !s.Full() {
		t.Fatalf("collected %d samples, want 3", len(s.Samples))
	}
	smp := s.Samples[0]
	if smp.Entropy != 0 {
		t.Errorf("zero-line entropy = %v", smp.Entropy)
	}
	// A zero line compresses to 1 byte under every codec.
	for _, alg := range []comp.Algorithm{comp.FPC, comp.BDI, comp.CPackZ} {
		if smp.Size[alg] != 1 {
			t.Errorf("%v zero-line wire size = %d, want 1", alg, smp.Size[alg])
		}
	}
	if s.Samples[2].Index != 2 {
		t.Errorf("sample index = %d, want 2", s.Samples[2].Index)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Max() != 0 || h.Percentile(50) != 0 {
		t.Error("empty histogram should report zeros")
	}
	for _, v := range []float64{1, 2, 3, 4, 5} {
		h.Add(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Mean() != 3 {
		t.Errorf("Mean = %v, want 3", h.Mean())
	}
	if h.Max() != 5 {
		t.Errorf("Max = %v, want 5", h.Max())
	}
	if p := h.Percentile(50); p != 3 {
		t.Errorf("P50 = %v, want 3", p)
	}
	if p := h.Percentile(100); p != 5 {
		t.Errorf("P100 = %v, want 5", p)
	}
	if p := h.Percentile(0); p != 1 {
		t.Errorf("P0 = %v, want 1", p)
	}
}

func TestFormatKilo(t *testing.T) {
	cases := []struct {
		n    uint64
		want string
	}{
		{0, "0"},
		{999, "0"},
		{49000, "49"},
		{3522000, "3,522"},
		{5464123, "5,464"},
	}
	for _, c := range cases {
		if got := FormatKilo(c.n); got != c.want {
			t.Errorf("FormatKilo(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestAggregateEntropyDiffersFromPerLine(t *testing.T) {
	// 64 lines, each filled with one distinct byte value: per-line entropy
	// is 0 but the aggregate distribution is uniform over 64 symbols
	// (6 bits/byte = 0.75 normalized). This is why Table V's AES entropy
	// (0.96) can exceed the per-line ceiling log2(64)/8.
	var tr Traffic
	for v := 0; v < 64; v++ {
		line := make([]byte, comp.LineSize)
		for i := range line {
			line[i] = byte(v)
		}
		tr.AddLine(line, comp.LineSize, false)
	}
	if m := tr.MeanEntropy(); m != 0 {
		t.Errorf("per-line mean entropy = %v, want 0", m)
	}
	if a := tr.Entropy(); math.Abs(a-0.75) > 1e-9 {
		t.Errorf("aggregate entropy = %v, want 0.75", a)
	}
}

func TestAggregateEntropyEmptyIsZero(t *testing.T) {
	var tr Traffic
	if tr.Entropy() != 0 {
		t.Error("empty aggregate entropy nonzero")
	}
}

func TestAggregateEntropyRandomNearOne(t *testing.T) {
	var tr Traffic
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1024; i++ {
		line := make([]byte, comp.LineSize)
		rng.Read(line)
		tr.AddLine(line, comp.LineSize, false)
	}
	if a := tr.Entropy(); a < 0.99 {
		t.Errorf("aggregate entropy of random lines = %v, want ≈1", a)
	}
	// Per-line mean is capped by the 64-byte window.
	if m := tr.MeanEntropy(); m > 0.75 {
		t.Errorf("per-line mean = %v exceeds the 64-byte ceiling", m)
	}
}
