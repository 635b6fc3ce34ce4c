package comp

import (
	"fmt"

	"mgpucompress/internal/bitstream"
)

// cpackZ implements C-Pack (Chen et al.) extended with zero-block detection
// (the C-Pack+Z variant of Sardashti & Wood used by the paper), per
// Table II. The codec processes 32-bit words against a 16-entry dictionary
// that starts empty for every line and is rebuilt on the fly during
// decompression, so it never travels with the data:
//
//	00             zero block (whole line)        ->  0 +  2 bits
//	01             zero word                      ->  0 +  2 bits
//	10   + N32     new word, inserted into dict   -> 32 +  2 bits
//	1100 + D4      full word match                ->  4 +  4 bits
//	1101 + D4 N16  halfword match (upper 16 bits) -> 20 +  4 bits
//	1110 + N8      narrow word (upper 24 zero)    ->  8 +  4 bits
//	1111 + D4 N8   three-byte match (upper 24)    -> 12 +  4 bits
//
// Per word the encoder picks the cheapest applicable encoding (zero 2b <
// full match 8b < narrow 12b < 3-byte match 16b < halfword match 24b < new
// word 34b). Only unmatched ("new") words enter the dictionary, which is
// what lets the decompressor reconstruct it deterministically.
type cpackZ struct {
	w bitstream.Writer // encode scratch, reused across lines
}

// NewCPackZ returns the C-Pack+Z codec.
func NewCPackZ() Compressor { return &cpackZ{} }

func (*cpackZ) Algorithm() Algorithm { return CPackZ }

func (*cpackZ) Cost() Cost { return cpackCost }

const cpackDictEntries = 16

// cpack token encodings.
const (
	cpackZeroBlock = 0b00
	cpackZeroWord  = 0b01
	cpackNewWord   = 0b10
	cpackFullMatch = 0b1100
	cpackHalfMatch = 0b1101
	cpackNarrow    = 0b1110
	cpack3BMatch   = 0b1111
)

// cpackMatch describes the best dictionary match for a word.
type cpackMatch struct {
	index int
	kind  int // 0 none, 2 halfword (16 bits), 3 three bytes (24), 4 full word
}

// findMatch scans the dictionary for the longest prefix match on the most
// significant bytes of the word, preferring the lowest index on ties (the
// hardware compares all entries in parallel and a priority encoder picks
// one).
func findMatch(dict []uint32, w uint32) cpackMatch {
	best := cpackMatch{index: -1}
	for i, e := range dict {
		var kind int
		switch {
		case e == w:
			// A full match cannot be beaten, and the lowest index wins
			// ties, so the scan can stop here.
			return cpackMatch{index: i, kind: 4}
		case e>>8 == w>>8:
			kind = 3
		case e>>16 == w>>16:
			kind = 2
		default:
			continue
		}
		if kind > best.kind {
			best = cpackMatch{index: i, kind: kind}
		}
	}
	return best
}

// cpackWordPlan is the chosen encoding for one word.
type cpackWordPlan struct {
	pattern int // Table II pattern number
	bits    int
	match   cpackMatch
}

// planWord picks the cheapest encoding for w given the dictionary.
func planWord(dict []uint32, w uint32) cpackWordPlan {
	if w == 0 {
		return cpackWordPlan{pattern: 2, bits: 2}
	}
	m := findMatch(dict, w)
	narrow := w>>8 == 0 // upper 24 bits zero
	switch {
	case m.kind == 4:
		return cpackWordPlan{pattern: 4, bits: 8, match: m}
	case narrow:
		return cpackWordPlan{pattern: 6, bits: 12}
	case m.kind == 3:
		return cpackWordPlan{pattern: 7, bits: 16, match: m}
	case m.kind == 2:
		return cpackWordPlan{pattern: 5, bits: 24, match: m}
	default:
		return cpackWordPlan{pattern: 3, bits: 34}
	}
}

func (c *cpackZ) Compress(line []byte) Encoded {
	return c.CompressInto(make([]byte, 0, LineSize), line)
}

func (c *cpackZ) CompressInto(dst, line []byte) Encoded {
	checkLine(line)
	w := &c.w
	w.Reset()
	if isZeroLine(line) {
		w.WriteBits(cpackZeroBlock, 2)
		e := Encoded{Alg: CPackZ, Bits: w.Len(), Data: w.AppendTo(dst)}
		e.Patterns[1]++
		return e
	}
	ws := words32(line)
	var hist PatternHistogram
	var dictArr [cpackDictEntries]uint32
	dict := dictArr[:0]
	for _, word := range ws {
		plan := planWord(dict, word)
		hist[plan.pattern]++
		switch plan.pattern {
		case 2:
			w.WriteBits(cpackZeroWord, 2)
		case 3:
			w.WriteBits(cpackNewWord, 2)
			w.WriteBits(uint64(word), 32)
			if len(dict) < cpackDictEntries {
				dict = append(dict, word)
			}
		case 4:
			w.WriteBits(cpackFullMatch, 4)
			w.WriteBits(uint64(plan.match.index), 4)
		case 5:
			w.WriteBits(cpackHalfMatch, 4)
			w.WriteBits(uint64(plan.match.index), 4)
			w.WriteBits(uint64(word&0xFFFF), 16)
		case 6:
			w.WriteBits(cpackNarrow, 4)
			w.WriteBits(uint64(word&0xFF), 8)
		case 7:
			w.WriteBits(cpack3BMatch, 4)
			w.WriteBits(uint64(plan.match.index), 4)
			w.WriteBits(uint64(word&0xFF), 8)
		}
	}
	if w.Len() >= LineBits {
		e := rawEncodedInto(CPackZ, dst, line, 8)
		e.Patterns[8] = 16
		return e
	}
	return Encoded{Alg: CPackZ, Bits: w.Len(), Data: w.AppendTo(dst), Patterns: hist}
}

func (c *cpackZ) CompressedBits(line []byte) int {
	checkLine(line)
	if isZeroLine(line) {
		return 2
	}
	ws := words32(line)
	var dictArr [cpackDictEntries]uint32
	dict := dictArr[:0]
	bits := 0
	for _, word := range ws {
		plan := planWord(dict, word)
		bits += plan.bits
		if plan.pattern == 3 && len(dict) < cpackDictEntries {
			dict = append(dict, word)
		}
	}
	if bits >= LineBits {
		return LineBits
	}
	return bits
}

func (c *cpackZ) Decompress(enc Encoded) ([]byte, error) { return decompress(c, enc) }

func (c *cpackZ) decompressInto(line []byte, enc Encoded) error {
	if enc.Alg != CPackZ {
		return fmt.Errorf("comp: C-Pack+Z decompressor fed %v data", enc.Alg)
	}
	if enc.Uncompressed {
		if len(enc.Data) != LineSize {
			return fmt.Errorf("comp: raw C-Pack+Z line has %d bytes", len(enc.Data))
		}
		copy(line, enc.Data)
		return nil
	}
	r := bitstream.NewReader(enc.Data)
	clear(line)
	var dictArr [cpackDictEntries]uint32
	dict := dictArr[:0]
	for word := 0; word < 16; word++ {
		t2, err := r.ReadBits(2)
		if err != nil {
			return err
		}
		var v uint32
		switch t2 {
		case cpackZeroBlock:
			if word == 0 && enc.Bits == 2 {
				return nil
			}
			return fmt.Errorf("comp: C-Pack+Z zero-block token inside line at word %d", word)
		case cpackZeroWord:
			v = 0
		case cpackNewWord:
			raw, err := r.ReadBits(32)
			if err != nil {
				return err
			}
			v = uint32(raw)
			if len(dict) < cpackDictEntries {
				dict = append(dict, v)
			}
		default: // 11: read 2 more bits to disambiguate
			lo, err := r.ReadBits(2)
			if err != nil {
				return err
			}
			tok := 0b1100 | lo
			switch tok {
			case cpackFullMatch:
				idx, err := r.ReadBits(4)
				if err != nil {
					return err
				}
				if int(idx) >= len(dict) {
					return fmt.Errorf("comp: C-Pack+Z index %d beyond dictionary of %d", idx, len(dict))
				}
				v = dict[idx]
			case cpackHalfMatch:
				idx, err := r.ReadBits(4)
				if err != nil {
					return err
				}
				low, err := r.ReadBits(16)
				if err != nil {
					return err
				}
				if int(idx) >= len(dict) {
					return fmt.Errorf("comp: C-Pack+Z index %d beyond dictionary of %d", idx, len(dict))
				}
				v = dict[idx]&0xFFFF0000 | uint32(low)
			case cpackNarrow:
				b, err := r.ReadBits(8)
				if err != nil {
					return err
				}
				v = uint32(b)
			case cpack3BMatch:
				idx, err := r.ReadBits(4)
				if err != nil {
					return err
				}
				b, err := r.ReadBits(8)
				if err != nil {
					return err
				}
				if int(idx) >= len(dict) {
					return fmt.Errorf("comp: C-Pack+Z index %d beyond dictionary of %d", idx, len(dict))
				}
				v = dict[idx]&0xFFFFFF00 | uint32(b)
			}
		}
		putWord32(line, word, v)
	}
	if r.Pos() != enc.Bits {
		return fmt.Errorf("comp: C-Pack+Z consumed %d bits, encoding says %d", r.Pos(), enc.Bits)
	}
	return nil
}
