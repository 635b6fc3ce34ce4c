package comp

import (
	"fmt"

	"mgpucompress/internal/bitstream"
)

// fpc implements Frequent Pattern Compression (Alameldeen & Wood) as
// specified by the paper's Table II. FPC works word-by-word on 32-bit words
// with a 3-bit prefix per word:
//
//	000  zero block (whole 512-bit line; emitted alone)
//	001  zero word
//	010  word with repeated bytes          -> 8 data bits
//	011  4-bit sign-extended               -> 4 data bits
//	100  one byte sign-extended            -> 8 data bits
//	101  halfword sign-extended            -> 16 data bits
//	110  halfword padded with zero halfword-> 16 data bits (high half kept)
//	111  two halfwords, each a byte
//	     sign-extended                     -> 16 data bits
//
// The paper's encoding assigns all eight prefixes to compressed patterns and
// lists "uncompressed" (pattern 9) only at line granularity, so a line in
// which any word matches no pattern ships uncompressed. This matches the
// ratios the paper reports (e.g. FPC ≈ 1.00 on FIR while C-Pack+Z still
// compresses it).
type fpc struct {
	w    bitstream.Writer // encode scratch, reused across lines
	size [LineSize]byte   // CompressedBits' output scratch
}

// NewFPC returns the FPC codec.
func NewFPC() Compressor { return &fpc{} }

func (*fpc) Algorithm() Algorithm { return FPC }

func (*fpc) Cost() Cost { return fpcCost }

// FPC prefixes, by Table II pattern number (index 1..8).
const (
	fpcZeroBlock       = 0b000 // pattern 1
	fpcZeroWord        = 0b001 // pattern 2
	fpcRepeatedBytes   = 0b010 // pattern 3
	fpcSignExt4        = 0b011 // pattern 4
	fpcSignExt8        = 0b100 // pattern 5
	fpcSignExt16       = 0b101 // pattern 6
	fpcHalfZeroPadded  = 0b110 // pattern 7
	fpcTwoHalfSignExt8 = 0b111 // pattern 8
)

// classifyFPCWord returns the Table II pattern number (2..8) for a single
// 32-bit word, or 9 if no pattern matches. Classification order follows the
// table, which also minimizes encoded size for overlapping patterns.
func classifyFPCWord(w uint32) int {
	switch {
	case w == 0:
		return 2
	case isRepeatedBytes(w):
		return 3
	case bitstream.FitsSigned(int64(int32(w)), 4):
		return 4
	case bitstream.FitsSigned(int64(int32(w)), 8):
		return 5
	case bitstream.FitsSigned(int64(int32(w)), 16):
		return 6
	case w&0xFFFF == 0: // high halfword significant, low halfword zero
		return 7
	case fitsTwoHalfSignExt(w):
		return 8
	default:
		return 9
	}
}

func isRepeatedBytes(w uint32) bool {
	b := byte(w)
	return w == uint32(b)|uint32(b)<<8|uint32(b)<<16|uint32(b)<<24
}

func fitsTwoHalfSignExt(w uint32) bool {
	lo := int64(int16(w))
	hi := int64(int16(w >> 16))
	return bitstream.FitsSigned(lo, 8) && bitstream.FitsSigned(hi, 8)
}

func (f *fpc) Compress(line []byte) Encoded {
	return f.CompressInto(make([]byte, 0, LineSize), line)
}

func (f *fpc) CompressInto(dst, line []byte) Encoded {
	checkLine(line)
	w := &f.w
	w.Reset()
	if isZeroLine(line) {
		w.WriteBits(fpcZeroBlock, 3)
		e := Encoded{Alg: FPC, Bits: w.Len(), Data: w.AppendTo(dst)}
		e.Patterns[1]++
		return e
	}

	ws := words32(line)
	var patterns [16]int
	for i, word := range ws {
		p := classifyFPCWord(word)
		if p == 9 {
			// One incompressible word forces the raw line (see doc above).
			// Table VI counts each word of an uncompressed line as a
			// pattern-9 detection.
			e := rawEncodedInto(FPC, dst, line, 9)
			e.Patterns[9] = 16
			return e
		}
		patterns[i] = p
	}

	var hist PatternHistogram
	for i, word := range ws {
		p := patterns[i]
		hist[p]++
		switch p {
		case 2:
			w.WriteBits(fpcZeroWord, 3)
		case 3:
			w.WriteBits(fpcRepeatedBytes, 3)
			w.WriteBits(uint64(word&0xFF), 8)
		case 4:
			w.WriteBits(fpcSignExt4, 3)
			w.WriteBits(uint64(word&0xF), 4)
		case 5:
			w.WriteBits(fpcSignExt8, 3)
			w.WriteBits(uint64(word&0xFF), 8)
		case 6:
			w.WriteBits(fpcSignExt16, 3)
			w.WriteBits(uint64(word&0xFFFF), 16)
		case 7:
			w.WriteBits(fpcHalfZeroPadded, 3)
			w.WriteBits(uint64(word>>16), 16)
		case 8:
			w.WriteBits(fpcTwoHalfSignExt8, 3)
			w.WriteBits(uint64(word>>16)&0xFF, 8)
			w.WriteBits(uint64(word)&0xFF, 8)
		}
	}
	// Sixteen words of at most 3+16 bits each stay well under LineBits, so
	// a line whose every word matches a pattern always compresses.
	return Encoded{Alg: FPC, Bits: w.Len(), Data: w.AppendTo(dst), Patterns: hist}
}

func (f *fpc) CompressedBits(line []byte) int { return f.CompressInto(f.size[:0], line).Bits }

func (f *fpc) Decompress(enc Encoded) ([]byte, error) { return decompress(f, enc) }

func (f *fpc) decompressInto(line []byte, enc Encoded) error {
	if enc.Alg != FPC {
		return fmt.Errorf("comp: FPC decompressor fed %v data", enc.Alg)
	}
	if enc.Uncompressed {
		if len(enc.Data) != LineSize {
			return fmt.Errorf("comp: raw FPC line has %d bytes", len(enc.Data))
		}
		copy(line, enc.Data)
		return nil
	}
	r := bitstream.NewReader(enc.Data)
	first, err := r.ReadBits(3)
	if err != nil {
		return err
	}
	clear(line)
	if first == fpcZeroBlock {
		if enc.Bits != 3 {
			return fmt.Errorf("comp: FPC zero block with %d bits", enc.Bits)
		}
		return nil
	}
	word := 0
	prefix := first
	for {
		var v uint32
		switch prefix {
		case fpcZeroWord:
			v = 0
		case fpcRepeatedBytes:
			b, err := r.ReadBits(8)
			if err != nil {
				return err
			}
			v = uint32(b) | uint32(b)<<8 | uint32(b)<<16 | uint32(b)<<24
		case fpcSignExt4:
			b, err := r.ReadBits(4)
			if err != nil {
				return err
			}
			v = uint32(int32(bitstream.SignExtend(b, 4)))
		case fpcSignExt8:
			b, err := r.ReadBits(8)
			if err != nil {
				return err
			}
			v = uint32(int32(bitstream.SignExtend(b, 8)))
		case fpcSignExt16:
			b, err := r.ReadBits(16)
			if err != nil {
				return err
			}
			v = uint32(int32(bitstream.SignExtend(b, 16)))
		case fpcHalfZeroPadded:
			b, err := r.ReadBits(16)
			if err != nil {
				return err
			}
			v = uint32(b) << 16
		case fpcTwoHalfSignExt8:
			hi, err := r.ReadBits(8)
			if err != nil {
				return err
			}
			lo, err := r.ReadBits(8)
			if err != nil {
				return err
			}
			hiV := uint32(uint16(bitstream.SignExtend(hi, 8)))
			loV := uint32(uint16(bitstream.SignExtend(lo, 8)))
			v = hiV<<16 | loV
		case fpcZeroBlock:
			return fmt.Errorf("comp: FPC zero-block prefix inside line at word %d", word)
		default:
			return fmt.Errorf("comp: invalid FPC prefix %03b", prefix)
		}
		putWord32(line, word, v)
		word++
		if word == 16 {
			break
		}
		prefix, err = r.ReadBits(3)
		if err != nil {
			return err
		}
	}
	if r.Pos() != enc.Bits {
		return fmt.Errorf("comp: FPC consumed %d bits, encoding says %d", r.Pos(), enc.Bits)
	}
	return nil
}

func putWord32(line []byte, i int, v uint32) {
	line[i*4+0] = byte(v)
	line[i*4+1] = byte(v >> 8)
	line[i*4+2] = byte(v >> 16)
	line[i*4+3] = byte(v >> 24)
}
