package comp

import (
	"bytes"
	"math/rand"
	"testing"
)

// The adaptive controller's sampling phase probes candidates with
// CompressedBits instead of Compress (see internal/core). CompressedBits is
// each codec's own encoder run into a per-instance output buffer, so these
// tests pin the probe's plumbing rather than a second sizing model: it must
// report Compress's size on every line, including the fallback to LineBits,
// and the reused buffer must not carry state from one line to the next.

func checkSizeAgreement(t *testing.T, c Compressor, line []byte) {
	t.Helper()
	enc := c.Compress(line)
	got := c.CompressedBits(line)
	if got != enc.Bits {
		t.Fatalf("%v: CompressedBits = %d, Compress().Bits = %d", c.Algorithm(), got, enc.Bits)
	}
	if enc.Uncompressed != (got == LineBits) {
		t.Fatalf("%v: Uncompressed=%v but CompressedBits=%d", c.Algorithm(), enc.Uncompressed, got)
	}
}

func TestCompressedBitsMatchesCompress(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	codecs := ExtendedCompressors()
	lines := [][]byte{
		make([]byte, LineSize),
		lineOf64(0x0102030405060708),
		lineOf32(0x7F, 0x80, 0xFFFFFFFF, 0),
		bytes.Repeat([]byte{0xAB}, LineSize),
	}
	for i := 0; i < 2000; i++ {
		lines = append(lines, patternedLine(rng), randomLine(rng))
	}
	for _, c := range codecs {
		for _, line := range lines {
			checkSizeAgreement(t, c, line)
		}
	}
}

// FuzzCompressedBits extends the equivalence over the shared fuzz corpus.
func FuzzCompressedBits(f *testing.F) {
	seedCorpus(f)
	codecs := ExtendedCompressors()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < LineSize {
			return
		}
		line := data[:LineSize]
		for _, c := range codecs {
			checkSizeAgreement(t, c, line)
		}
	})
}

// TestCompressIntoMatchesCompress: the append-style encoder yields the same
// encoding as Compress, reuses the destination buffer, and the scratch state
// does not leak between lines.
func TestCompressIntoMatchesCompress(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	codecs := ExtendedCompressors()
	var buf []byte
	for i := 0; i < 2000; i++ {
		line := patternedLine(rng)
		if i%3 == 0 {
			line = randomLine(rng)
		}
		for _, c := range codecs {
			want := c.Compress(line)
			got := c.CompressInto(buf[:0], line)
			buf = got.Data
			if got.Bits != want.Bits || got.Uncompressed != want.Uncompressed ||
				got.Patterns != want.Patterns || !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("%v line %d: CompressInto diverges from Compress", c.Algorithm(), i)
			}
			back, err := c.Decompress(got)
			if err != nil {
				t.Fatalf("%v line %d: %v", c.Algorithm(), i, err)
			}
			if !bytes.Equal(back, line) {
				t.Fatalf("%v line %d: CompressInto round trip mismatch", c.Algorithm(), i)
			}
		}
	}
}

// TestDecode: the shared stateless decoder matches per-instance Decompress.
func TestDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, c := range ExtendedCompressors() {
		for i := 0; i < 100; i++ {
			line := patternedLine(rng)
			enc := c.Compress(line)
			got, err := Decode(enc)
			if err != nil {
				t.Fatalf("%v: %v", c.Algorithm(), err)
			}
			if !bytes.Equal(got, line) {
				t.Fatalf("%v: Decode mismatch", c.Algorithm())
			}
		}
	}
	if _, err := Decode(Encoded{Alg: None}); err == nil {
		t.Fatal("Decode(None) should fail")
	}
}
