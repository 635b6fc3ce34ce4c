// Package comp implements the three hardware memory-compression algorithms
// the paper adopts for inter-GPU link compression — FPC, BDI, and C-Pack+Z —
// as bit-accurate encoders and decoders following Table II, plus their
// latency/energy/area costs from Table III.
//
// All codecs operate on one cache line of 64 bytes (512 bits), the transfer
// granularity of the simulated multi-GPU system. Compress returns the exact
// encoded bitstream; the reported size in bits equals the "Total Data Size
// (data + metadata)" column of Table II summed over the detected patterns.
// If an encoding does not save space, the codec falls back to shipping the
// line uncompressed (pattern 9 for FPC/BDI, pattern 8 for C-Pack+Z), and the
// message-level Comp Alg field (see internal/rdma) distinguishes compressed
// from uncompressed payloads.
package comp

import (
	"encoding/binary"
	"fmt"
)

// LineSize is the cache-line (and inter-GPU transfer) granularity in bytes.
const LineSize = 64

// LineBits is the line size in bits.
const LineBits = LineSize * 8

// Algorithm identifies a compression algorithm. The numeric values are the
// ones carried in the 4-bit "Comp Alg" field of inter-GPU messages; 0 is
// reserved for "not compressed" so receivers can bypass the decompressor.
type Algorithm uint8

// Wire values of the Comp Alg message field. BPC is an extension codec
// (see bpc.go); the paper's system uses only the first four values.
const (
	None Algorithm = iota
	FPC
	BDI
	CPackZ
	bpcWireValue // reserved for the BPC extension; declared in bpc.go
	numAlgorithms
)

// NumAlgorithms is the number of wire-encodable algorithms including None.
const NumAlgorithms = int(numAlgorithms)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case None:
		return "None"
	case FPC:
		return "FPC"
	case BDI:
		return "BDI"
	case CPackZ:
		return "C-Pack+Z"
	case BPC:
		return "BPC"
	default:
		return fmt.Sprintf("Algorithm(%d)", uint8(a))
	}
}

// MaxPattern is the largest pattern number any codec reports (Table II).
const MaxPattern = 9

// PatternHistogram counts, per Table II pattern number (index 1..9), how
// often each pattern was detected. Index 0 is unused.
type PatternHistogram [MaxPattern + 1]uint64

// Add accumulates another histogram.
func (h *PatternHistogram) Add(o PatternHistogram) {
	for i := range h {
		h[i] += o[i]
	}
}

// Total returns the total number of detections.
func (h *PatternHistogram) Total() uint64 {
	var t uint64
	for _, n := range h {
		t += n
	}
	return t
}

// Top returns the top-k (pattern, share) pairs by count, matching the
// presentation of Table VI. Patterns with zero count are omitted.
func (h *PatternHistogram) Top(k int) []PatternShare {
	total := h.Total()
	var out []PatternShare
	used := make(map[int]bool)
	for len(out) < k {
		best, bestN := 0, uint64(0)
		for p := 1; p <= MaxPattern; p++ {
			if !used[p] && h[p] > bestN {
				best, bestN = p, h[p]
			}
		}
		if best == 0 {
			break
		}
		used[best] = true
		share := 0.0
		if total > 0 {
			share = float64(bestN) / float64(total)
		}
		out = append(out, PatternShare{Pattern: best, Share: share})
	}
	return out
}

// PatternShare is one entry of a Table VI cell: a pattern number and the
// fraction of detections it accounts for.
type PatternShare struct {
	Pattern int
	Share   float64
}

// Encoded is the result of compressing one line.
type Encoded struct {
	Alg Algorithm
	// Bits is the exact compressed size in bits, including per-pattern
	// metadata (prefixes, masks, dictionary indices) but excluding
	// message headers. For an uncompressed fallback it is LineBits.
	Bits int
	// Data is the packed bitstream, zero-padded to a whole byte.
	Data []byte
	// Uncompressed is set when the codec fell back to raw encoding.
	Uncompressed bool
	// Patterns records the detected patterns for Table VI.
	Patterns PatternHistogram
}

// WireBytes is the payload size on the fabric: compressed bits rounded up
// to whole bytes (the message header reserves alignment bits, Sec. VI-B).
func (e Encoded) WireBytes() int { return (e.Bits + 7) / 8 }

// Ratio is the compression ratio for this line (original/compressed), as
// defined in Sec. IV-B.
func (e Encoded) Ratio() float64 { return float64(LineBits) / float64(e.Bits) }

// Compressor compresses and decompresses single cache lines.
//
// Each instance owns reusable encode scratch (a bitstream.Writer and, for
// some codecs, plan buffers), so Compress, CompressInto, and CompressedBits
// are not safe for concurrent use on one instance — give each goroutine its
// own codec (AllCompressors returns fresh instances). Decompress is
// stateless and safe to share.
type Compressor interface {
	// Algorithm returns the wire identifier.
	Algorithm() Algorithm
	// Compress encodes a LineSize-byte line into freshly allocated storage,
	// so the result outlives any further use of the codec.
	Compress(line []byte) Encoded
	// CompressInto encodes like Compress but appends the packed bytes to
	// dst (pass buf[:0] to reuse a buffer); the returned Encoded.Data is
	// the extended slice. Steady-state compression through CompressInto
	// does not allocate.
	CompressInto(dst, line []byte) Encoded
	// CompressedBits returns exactly Compress(line).Bits — including the
	// uncompressed fallback to LineBits — without materializing any
	// bitstream. Size-only consumers (the controller's sampling phase,
	// ratio statistics) run on this path.
	CompressedBits(line []byte) int
	// Decompress reconstructs the original line from enc.Data/enc.Bits.
	Decompress(enc Encoded) ([]byte, error)
	// Cost returns the hardware cost parameters (Table III).
	Cost() Cost
}

// NewCompressor returns the codec for alg, or nil for None.
func NewCompressor(alg Algorithm) Compressor {
	switch alg {
	case FPC:
		return NewFPC()
	case BDI:
		return NewBDI()
	case CPackZ:
		return NewCPackZ()
	case BPC:
		return NewBPC()
	default:
		return nil
	}
}

// AllCompressors returns one instance of each codec the paper evaluates, in
// wire order. The BPC extension is deliberately excluded so reproductions
// match the paper; use ExtendedCompressors for the extension experiments.
func AllCompressors() []Compressor {
	return []Compressor{NewFPC(), NewBDI(), NewCPackZ()}
}

// ExtendedCompressors returns the paper's codecs plus the BPC extension.
func ExtendedCompressors() []Compressor {
	return append(AllCompressors(), NewBPC())
}

func checkLine(line []byte) {
	if len(line) != LineSize {
		panic(fmt.Sprintf("comp: line must be %d bytes, got %d", LineSize, len(line)))
	}
}

func words32(line []byte) [16]uint32 {
	var w [16]uint32
	for i := range w {
		w[i] = binary.LittleEndian.Uint32(line[i*4:])
	}
	return w
}

func words64(line []byte) [8]uint64 {
	var w [8]uint64
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(line[i*8:])
	}
	return w
}

func isZeroLine(line []byte) bool {
	var or uint64
	for i := 0; i < LineSize; i += 8 {
		or |= binary.LittleEndian.Uint64(line[i:])
	}
	return or == 0
}

// rawEncodedInto builds the uncompressed fallback, appending the raw line
// to dst.
func rawEncodedInto(alg Algorithm, dst, line []byte, pattern int) Encoded {
	e := Encoded{
		Alg:          alg,
		Bits:         LineBits,
		Data:         append(dst, line...),
		Uncompressed: true,
	}
	e.Patterns[pattern]++
	return e
}

// decoders are package-shared instances used only for decompression,
// which never touches per-codec scratch, so sharing them across goroutines
// is safe.
var decoders = [NumAlgorithms]lineDecoder{
	FPC:    &fpc{},
	BDI:    &bdi{},
	CPackZ: &cpackZ{},
	BPC:    &bpc{},
}

// Decode decompresses enc with a shared stateless decoder for enc.Alg,
// sparing receive paths a codec allocation per message.
func Decode(enc Encoded) ([]byte, error) {
	line := make([]byte, LineSize)
	if err := DecodeInto(line, enc); err != nil {
		return nil, err
	}
	return line, nil
}

// DecodeInto decompresses enc into dst, a LineSize-byte line, allocating
// nothing: the receive path decodes straight into the response message
// that carries the line.
func DecodeInto(dst []byte, enc Encoded) error {
	if len(dst) != LineSize {
		return fmt.Errorf("comp: decode destination has %d bytes, want %d", len(dst), LineSize)
	}
	if int(enc.Alg) >= len(decoders) || decoders[enc.Alg] == nil {
		return fmt.Errorf("comp: no decoder for algorithm %v", enc.Alg)
	}
	return decoders[enc.Alg].decompressInto(dst, enc)
}

// lineDecoder is implemented by every codec: Decompress into a caller's
// LineSize-byte line.
type lineDecoder interface {
	decompressInto(line []byte, enc Encoded) error
}

// decompress is every codec's Decompress: decompressInto a fresh line.
func decompress(d lineDecoder, enc Encoded) ([]byte, error) {
	line := make([]byte, LineSize)
	if err := d.decompressInto(line, enc); err != nil {
		return nil, err
	}
	return line, nil
}
