package comp

import (
	"encoding/binary"
	"fmt"

	"mgpucompress/internal/bitstream"
)

// bdi implements Base-Delta-Immediate compression (Pekhimenko et al.) per
// the paper's Table II. BDI works at line granularity: the line is viewed as
// equal-size values (8, 4, or 2 bytes) and each value is stored as a small
// signed delta against either an explicit base (the first value that is not
// representable as an immediate) or the implicit zero base. A per-value mask
// bit selects the base. The encodings and their exact sizes are:
//
//	0000 zero block                      ->   0 + 4 bits
//	0001 repeated 64-bit words           ->  64 + 4 bits
//	0010 base 8 B, delta 1 B (pattern 3) -> 128 + 12 bits
//	0011 base 8 B, delta 2 B (pattern 4) -> 192 + 12 bits
//	0100 base 8 B, delta 4 B (pattern 5) -> 320 + 12 bits
//	0101 base 4 B, delta 1 B (pattern 6) -> 160 + 20 bits
//	0110 base 4 B, delta 2 B (pattern 7) -> 288 + 20 bits
//	0111 base 2 B, delta 1 B (pattern 8) -> 272 + 36 bits
//
// The metadata is the 4-bit prefix plus one mask bit per value. The encoder
// evaluates every applicable configuration and keeps the smallest.
type bdi struct {
	w     bitstream.Writer // encode scratch, reused across lines
	plans [2]bdiPlan       // best-so-far and trial plans, reused across lines
	size  [LineSize]byte   // CompressedBits' output scratch
}

// NewBDI returns the BDI codec.
func NewBDI() Compressor { return &bdi{} }

func (*bdi) Algorithm() Algorithm { return BDI }

func (*bdi) Cost() Cost { return bdiCost }

// bdiConfig describes one base-delta configuration.
type bdiConfig struct {
	pattern   int // Table II pattern number
	prefix    uint64
	baseBytes int
	deltaByte int
}

var bdiConfigs = []bdiConfig{
	{pattern: 3, prefix: 0b0010, baseBytes: 8, deltaByte: 1},
	{pattern: 4, prefix: 0b0011, baseBytes: 8, deltaByte: 2},
	{pattern: 5, prefix: 0b0100, baseBytes: 8, deltaByte: 4},
	{pattern: 6, prefix: 0b0101, baseBytes: 4, deltaByte: 1},
	{pattern: 7, prefix: 0b0110, baseBytes: 4, deltaByte: 2},
	{pattern: 8, prefix: 0b0111, baseBytes: 2, deltaByte: 1},
}

func (c bdiConfig) totalBits() int {
	nVals := LineSize / c.baseBytes
	return 4 + c.baseBytes*8 + nVals + nVals*c.deltaByte*8
}

const (
	bdiZeroBlock = 0b0000
	bdiRepeated  = 0b0001
)

// bdiMaxVals is the largest value count of any configuration (2-byte base).
const bdiMaxVals = LineSize / 2

// bdiPlan is the result of trying one configuration on a line. The arrays
// are sized for the widest configuration so a plan needs no allocation;
// only the first nVals entries are meaningful.
type bdiPlan struct {
	cfg    bdiConfig
	base   uint64
	nVals  int
	mask   [bdiMaxVals]bool  // per value: true = explicit base, false = zero base
	deltas [bdiMaxVals]int64 // signed deltas
}

// tryBDIConfig attempts to encode the line with cfg, filling plan. The base
// is the first value that is not representable as an immediate (delta from
// zero); values before it use the zero base.
func tryBDIConfig(line []byte, cfg bdiConfig, plan *bdiPlan) bool {
	nVals := LineSize / cfg.baseBytes
	deltaBits := cfg.deltaByte * 8
	*plan = bdiPlan{cfg: cfg, nVals: nVals}
	valueBits := cfg.baseBytes * 8
	haveBase := false
	for i := 0; i < nVals; i++ {
		v := readUint(line, i*cfg.baseBytes, cfg.baseBytes)
		// All delta arithmetic happens at the value width, wrapping, as a
		// hardware subtractor would.
		if d := bitstream.SignExtend(v, valueBits); bitstream.FitsSigned(d, deltaBits) {
			plan.deltas[i] = d // immediate: delta from the zero base
			continue
		}
		if !haveBase {
			haveBase = true
			plan.base = v
			plan.mask[i] = true
			plan.deltas[i] = 0
			continue
		}
		d := bitstream.SignExtend(v-plan.base, valueBits)
		if !bitstream.FitsSigned(d, deltaBits) {
			return false
		}
		plan.mask[i] = true
		plan.deltas[i] = d
	}
	return true
}

func readUint(line []byte, off, size int) uint64 {
	switch size {
	case 2:
		return uint64(binary.LittleEndian.Uint16(line[off:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(line[off:]))
	case 8:
		return binary.LittleEndian.Uint64(line[off:])
	default:
		panic(fmt.Sprintf("comp: bad BDI value size %d", size))
	}
}

func (b *bdi) Compress(line []byte) Encoded {
	return b.CompressInto(make([]byte, 0, LineSize), line)
}

func (b *bdi) CompressInto(dst, line []byte) Encoded {
	checkLine(line)
	w := &b.w
	w.Reset()
	if isZeroLine(line) {
		w.WriteBits(bdiZeroBlock, 4)
		e := Encoded{Alg: BDI, Bits: w.Len(), Data: w.AppendTo(dst)}
		e.Patterns[1]++
		return e
	}
	w64 := words64(line)
	repeated := true
	for _, v := range w64[1:] {
		if v != w64[0] {
			repeated = false
			break
		}
	}
	if repeated {
		w.WriteBits(bdiRepeated, 4)
		w.WriteBits(w64[0], 64)
		e := Encoded{Alg: BDI, Bits: w.Len(), Data: w.AppendTo(dst)}
		e.Patterns[2]++
		return e
	}

	// Configurations are tried in pattern order and only when they would
	// beat the best so far, so every feasible trial is the new best; the
	// trial always goes into the plan that is not holding the best.
	var best *bdiPlan
	bestBits := LineBits
	for _, cfg := range bdiConfigs {
		if cfg.totalBits() >= bestBits {
			continue // cannot improve
		}
		trial := &b.plans[0]
		if trial == best {
			trial = &b.plans[1]
		}
		if tryBDIConfig(line, cfg, trial) {
			best, bestBits = trial, cfg.totalBits()
		}
	}
	if best == nil {
		return rawEncodedInto(BDI, dst, line, 9)
	}

	w.WriteBits(best.cfg.prefix, 4)
	w.WriteBits(best.base, best.cfg.baseBytes*8)
	for _, m := range best.mask[:best.nVals] {
		if m {
			w.WriteBits(1, 1)
		} else {
			w.WriteBits(0, 1)
		}
	}
	deltaBits := best.cfg.deltaByte * 8
	for _, d := range best.deltas[:best.nVals] {
		w.WriteBits(uint64(d)&((1<<uint(deltaBits))-1), deltaBits)
	}
	if w.Len() != best.cfg.totalBits() {
		panic(fmt.Sprintf("comp: BDI size mismatch: wrote %d, expected %d", w.Len(), best.cfg.totalBits()))
	}
	e := Encoded{Alg: BDI, Bits: w.Len(), Data: w.AppendTo(dst)}
	e.Patterns[best.cfg.pattern]++
	return e
}

func (b *bdi) CompressedBits(line []byte) int { return b.CompressInto(b.size[:0], line).Bits }

func (b *bdi) Decompress(enc Encoded) ([]byte, error) { return decompress(b, enc) }

func (b *bdi) decompressInto(line []byte, enc Encoded) error {
	if enc.Alg != BDI {
		return fmt.Errorf("comp: BDI decompressor fed %v data", enc.Alg)
	}
	if enc.Uncompressed {
		if len(enc.Data) != LineSize {
			return fmt.Errorf("comp: raw BDI line has %d bytes", len(enc.Data))
		}
		copy(line, enc.Data)
		return nil
	}
	r := bitstream.NewReader(enc.Data)
	prefix, err := r.ReadBits(4)
	if err != nil {
		return err
	}
	clear(line)
	switch prefix {
	case bdiZeroBlock:
		if enc.Bits != 4 {
			return fmt.Errorf("comp: BDI zero block with %d bits", enc.Bits)
		}
		return nil
	case bdiRepeated:
		if enc.Bits != 68 {
			return fmt.Errorf("comp: BDI repeated block with %d bits", enc.Bits)
		}
		v, err := r.ReadBits(64)
		if err != nil {
			return err
		}
		for i := 0; i < 8; i++ {
			binary.LittleEndian.PutUint64(line[i*8:], v)
		}
		return nil
	}
	var cfg bdiConfig
	ok := false
	for _, c := range bdiConfigs {
		if c.prefix == prefix {
			cfg, ok = c, true
			break
		}
	}
	if !ok {
		return fmt.Errorf("comp: invalid BDI prefix %04b", prefix)
	}
	base, err := r.ReadBits(cfg.baseBytes * 8)
	if err != nil {
		return err
	}
	nVals := LineSize / cfg.baseBytes
	var maskArr [bdiMaxVals]bool
	mask := maskArr[:nVals]
	for i := range mask {
		bit, err := r.ReadBits(1)
		if err != nil {
			return err
		}
		mask[i] = bit == 1
	}
	deltaBits := cfg.deltaByte * 8
	for i := 0; i < nVals; i++ {
		raw, err := r.ReadBits(deltaBits)
		if err != nil {
			return err
		}
		d := bitstream.SignExtend(raw, deltaBits)
		var v uint64
		if mask[i] {
			v = base + uint64(d)
		} else {
			v = uint64(d)
		}
		writeUint(line, i*cfg.baseBytes, cfg.baseBytes, v)
	}
	if r.Pos() != enc.Bits {
		return fmt.Errorf("comp: BDI consumed %d bits, encoding says %d", r.Pos(), enc.Bits)
	}
	return nil
}

func writeUint(line []byte, off, size int, v uint64) {
	switch size {
	case 2:
		binary.LittleEndian.PutUint16(line[off:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(line[off:], uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(line[off:], v)
	}
}
