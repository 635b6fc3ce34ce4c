package comp

import (
	"encoding/binary"
	"fmt"

	"mgpucompress/internal/bitstream"
)

// bpc implements Bit-Plane Compression (Kim et al., ISCA 2016) as an
// EXTENSION beyond the paper's three codecs. The paper's related-work
// section singles BPC out as orthogonal to its approach — "a general
// approach to pre-code the data and improve compressibility by reducing
// data entropy" — so this package provides it for the extended-candidate
// experiments in the benchmark harness.
//
// The algorithm, adapted from 128-byte DRAM blocks to this system's
// 64-byte lines (16 × 32-bit words):
//
//  1. Delta transform: keep word 0 as the base; form 15 deltas
//     d[j] = w[j+1] − w[j], each a 33-bit signed value.
//
//  2. Bit-plane transform (DBP): transpose the 15×33 delta matrix into 33
//     planes of 15 bits; plane k holds bit k of every delta.
//
//  3. XOR transform (DBX): DBX[k] = DBP[k] ^ DBP[k+1] for k < 32 and
//     DBX[32] = DBP[32], concentrating runs of equal planes into zeros.
//
//  4. Symbol encoding per plane (prefix-free):
//
//     run of 2..33 all-zero planes   '01'    + 5-bit run length   (pattern 1)
//     single all-zero plane          '001'                        (pattern 2)
//     all-ones plane                 '0001'                       (pattern 3)
//     single-one plane               '00001' + 4-bit position     (pattern 4)
//     raw plane                      '1'     + 15 bits            (pattern 5)
//
// The base word uses an FPC-style header: zero ('00'), 8-bit
// sign-extended ('01'+8), 16-bit sign-extended ('10'+16), raw ('11'+32).
// If the total does not beat 512 bits the line ships raw (pattern 9).
//
// Hardware cost: Kim et al. report a 9-cycle compressor / 6-cycle
// decompressor pipeline at well under a mW per lane in 28 nm; the numbers
// below are scaled estimates in the spirit of Table III and are clearly
// extension-grade rather than paper-reproduced.
type bpc struct {
	w bitstream.Writer // encode scratch, reused across lines
}

// NewBPC returns the Bit-Plane Compression codec (extension).
func NewBPC() Compressor { return &bpc{} }

// BPC is the wire identifier for the extension codec.
const BPC = bpcWireValue

func (*bpc) Algorithm() Algorithm { return BPC }

var bpcCost = Cost{
	CompressionCycles:   9,
	DecompressionCycles: 6,
	AreaUM2:             680,
	CompressorMW:        1.2,
	DecompressorMW:      0.8,
}

func (*bpc) Cost() Cost { return bpcCost }

const (
	bpcPlanes    = 33 // 33-bit deltas
	bpcPlaneBits = 15 // 15 deltas per line
)

// bpcTransform produces the 33 DBX planes plus the base word.
func bpcTransform(line []byte) (base uint32, dbx [bpcPlanes]uint16) {
	var w [16]uint32
	for i := range w {
		w[i] = binary.LittleEndian.Uint32(line[i*4:])
	}
	base = w[0]
	var deltas [bpcPlaneBits]int64
	for j := 0; j < bpcPlaneBits; j++ {
		deltas[j] = int64(w[j+1]) - int64(w[j])
	}
	// DBX[k] = DBP[k] ^ DBP[k+1] is bit k of delta ^ (delta >> 1), so the
	// XOR transform folds into the deltas before the transpose, and the OR
	// across all folded deltas flags which planes are non-zero: only those
	// need the 15-element bit gather (on compressible data most planes are
	// zero, which is the whole point of the transform).
	var x [bpcPlaneBits]uint64
	var or uint64
	for j := 0; j < bpcPlaneBits; j++ {
		d := uint64(deltas[j])
		x[j] = d ^ d>>1
		or |= x[j]
	}
	for k := 0; k < bpcPlanes-1; k++ {
		if or>>uint(k)&1 == 0 {
			continue
		}
		var plane uint16
		for j := 0; j < bpcPlaneBits; j++ {
			plane |= uint16(x[j]>>uint(k)&1) << uint(j)
		}
		dbx[k] = plane
	}
	// The last plane has no successor: it is DBP[32] itself.
	last := bpcPlanes - 1
	var plane uint16
	for j := 0; j < bpcPlaneBits; j++ {
		plane |= uint16(uint64(deltas[j])>>uint(last)&1) << uint(j)
	}
	dbx[last] = plane
	return base, dbx
}

// bpcInverse reconstructs into line the line from the base word and DBX planes.
func bpcInverse(line []byte, base uint32, dbx [bpcPlanes]uint16) {
	var dbp [bpcPlanes]uint16
	dbp[bpcPlanes-1] = dbx[bpcPlanes-1]
	for k := bpcPlanes - 2; k >= 0; k-- {
		dbp[k] = dbx[k] ^ dbp[k+1]
	}
	var deltas [bpcPlaneBits]int64
	for j := 0; j < bpcPlaneBits; j++ {
		var v uint64
		for k := 0; k < bpcPlanes; k++ {
			v |= uint64((dbp[k]>>uint(j))&1) << uint(k)
		}
		deltas[j] = bitstream.SignExtend(v, bpcPlanes)
	}
	binary.LittleEndian.PutUint32(line, base)
	w := base
	for j := 0; j < bpcPlaneBits; j++ {
		w = uint32(int64(w) + deltas[j])
		binary.LittleEndian.PutUint32(line[(j+1)*4:], w)
	}
}

const bpcAllOnes = uint16(1<<bpcPlaneBits) - 1

func isPow2u16(v uint16) bool { return v != 0 && v&(v-1) == 0 }

func (b *bpc) Compress(line []byte) Encoded {
	return b.CompressInto(make([]byte, 0, LineSize), line)
}

func (b *bpc) CompressInto(dst, line []byte) Encoded {
	checkLine(line)
	base, dbx := bpcTransform(line)

	w := &b.w
	w.Reset()
	var hist PatternHistogram

	// Base word header.
	switch {
	case base == 0:
		w.WriteBits(0b00, 2)
	case bitstream.FitsSigned(int64(int32(base)), 8):
		w.WriteBits(0b01, 2)
		w.WriteBits(uint64(base&0xFF), 8)
	case bitstream.FitsSigned(int64(int32(base)), 16):
		w.WriteBits(0b10, 2)
		w.WriteBits(uint64(base&0xFFFF), 16)
	default:
		w.WriteBits(0b11, 2)
		w.WriteBits(uint64(base), 32)
	}

	for k := 0; k < bpcPlanes; {
		plane := dbx[k]
		switch {
		case plane == 0:
			run := 1
			for k+run < bpcPlanes && dbx[k+run] == 0 {
				run++
			}
			if run >= 2 {
				if run > 33 {
					run = 33
				}
				w.WriteBits(0b01, 2)
				w.WriteBits(uint64(run-2), 5)
				hist[1]++
			} else {
				w.WriteBits(0b001, 3)
				hist[2]++
			}
			k += run
		case plane == bpcAllOnes:
			w.WriteBits(0b0001, 4)
			hist[3]++
			k++
		case isPow2u16(plane):
			pos := 0
			for plane>>uint(pos)&1 == 0 {
				pos++
			}
			w.WriteBits(0b00001, 5)
			w.WriteBits(uint64(pos), 4)
			hist[4]++
			k++
		default:
			w.WriteBits(0b1, 1)
			w.WriteBits(uint64(plane), bpcPlaneBits)
			hist[5]++
			k++
		}
	}
	if w.Len() >= LineBits {
		return rawEncodedInto(BPC, dst, line, 9)
	}
	return Encoded{Alg: BPC, Bits: w.Len(), Data: w.AppendTo(dst), Patterns: hist}
}

func (b *bpc) CompressedBits(line []byte) int {
	checkLine(line)
	base, dbx := bpcTransform(line)

	var bits int
	switch {
	case base == 0:
		bits = 2
	case bitstream.FitsSigned(int64(int32(base)), 8):
		bits = 2 + 8
	case bitstream.FitsSigned(int64(int32(base)), 16):
		bits = 2 + 16
	default:
		bits = 2 + 32
	}

	for k := 0; k < bpcPlanes; {
		plane := dbx[k]
		switch {
		case plane == 0:
			run := 1
			for k+run < bpcPlanes && dbx[k+run] == 0 {
				run++
			}
			if run >= 2 {
				bits += 2 + 5
			} else {
				bits += 3
			}
			k += run
		case plane == bpcAllOnes:
			bits += 4
			k++
		case isPow2u16(plane):
			bits += 5 + 4
			k++
		default:
			bits += 1 + bpcPlaneBits
			k++
		}
	}
	if bits >= LineBits {
		return LineBits
	}
	return bits
}

func (b *bpc) Decompress(enc Encoded) ([]byte, error) { return decompress(b, enc) }

func (b *bpc) decompressInto(line []byte, enc Encoded) error {
	if enc.Alg != BPC {
		return fmt.Errorf("comp: BPC decompressor fed %v data", enc.Alg)
	}
	if enc.Uncompressed {
		if len(enc.Data) != LineSize {
			return fmt.Errorf("comp: raw BPC line has %d bytes", len(enc.Data))
		}
		copy(line, enc.Data)
		return nil
	}
	r := bitstream.NewReader(enc.Data)

	baseKind, err := r.ReadBits(2)
	if err != nil {
		return err
	}
	var base uint32
	switch baseKind {
	case 0b00:
		base = 0
	case 0b01:
		v, err := r.ReadBits(8)
		if err != nil {
			return err
		}
		base = uint32(int32(bitstream.SignExtend(v, 8)))
	case 0b10:
		v, err := r.ReadBits(16)
		if err != nil {
			return err
		}
		base = uint32(int32(bitstream.SignExtend(v, 16)))
	default:
		v, err := r.ReadBits(32)
		if err != nil {
			return err
		}
		base = uint32(v)
	}

	var dbx [bpcPlanes]uint16
	for k := 0; k < bpcPlanes; {
		bit, err := r.ReadBits(1)
		if err != nil {
			return err
		}
		if bit == 1 { // raw plane
			v, err := r.ReadBits(bpcPlaneBits)
			if err != nil {
				return err
			}
			dbx[k] = uint16(v)
			k++
			continue
		}
		bit, err = r.ReadBits(1)
		if err != nil {
			return err
		}
		if bit == 1 { // '01': zero run
			rl, err := r.ReadBits(5)
			if err != nil {
				return err
			}
			run := int(rl) + 2
			if k+run > bpcPlanes {
				return fmt.Errorf("comp: BPC zero run of %d overflows planes", run)
			}
			k += run
			continue
		}
		bit, err = r.ReadBits(1)
		if err != nil {
			return err
		}
		if bit == 1 { // '001': single zero plane
			k++
			continue
		}
		bit, err = r.ReadBits(1)
		if err != nil {
			return err
		}
		if bit == 1 { // '0001': all ones
			dbx[k] = bpcAllOnes
			k++
			continue
		}
		bit, err = r.ReadBits(1)
		if err != nil {
			return err
		}
		if bit != 1 {
			return fmt.Errorf("comp: invalid BPC symbol prefix")
		}
		pos, err := r.ReadBits(4)
		if err != nil {
			return err
		}
		if int(pos) >= bpcPlaneBits {
			return fmt.Errorf("comp: BPC one-bit position %d out of range", pos)
		}
		dbx[k] = 1 << uint(pos)
		k++
	}
	if r.Pos() != enc.Bits {
		return fmt.Errorf("comp: BPC consumed %d bits, encoding says %d", r.Pos(), enc.Bits)
	}
	bpcInverse(line, base, dbx)
	return nil
}
