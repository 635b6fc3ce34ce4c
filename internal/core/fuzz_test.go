package core

import (
	"bytes"
	"math"
	"testing"

	"mgpucompress/internal/comp"
)

// roundTripPolicies returns a fresh instance of every policy: none, each
// static codec, and the adaptive controller in its sampling phase, in a
// running phase on each of its codecs, and in a bypassing running phase.
func roundTripPolicies() []namedPolicy {
	ps := []namedPolicy{
		{"none", Uncompressed{}},
		{"adaptive/sampling", NewAdaptive(Config{Lambda: DefaultLambda, SampleCount: math.MaxInt})},
	}
	for _, c := range comp.ExtendedCompressors() {
		alg := c.Algorithm()
		ps = append(ps, namedPolicy{"static/" + alg.String(), NewStatic(alg)})
		// One sample of the zero line, which every codec shrinks, selects
		// the lone candidate for a running phase that never ends.
		a := NewAdaptive(Config{Candidates: []comp.Compressor{c}, SampleCount: 1, RunLength: math.MaxInt})
		a.Process(nil, zeroLine())
		ps = append(ps, namedPolicy{"adaptive/running/" + alg.String(), a})
	}
	// An integrity failure closes the one-sample phase on bypass.
	bypass := NewAdaptive(Config{SampleCount: 1, RunLength: math.MaxInt, DegradeK: 1})
	bypass.ObserveIntegrity(false)
	bypass.Process(nil, zeroLine())
	return append(ps, namedPolicy{"adaptive/running/bypass", bypass})
}

type namedPolicy struct {
	name string
	p    Policy
}

// FuzzPolicyRoundTrip checks every policy's Process contract on a line and
// a non-empty dst prefix: the prefix is untouched, Enc.Data is the prefix
// followed by the shipped payload, the payload's length is WireBytes and
// matches Enc.Bits, and the payload decodes back to the line (a raw copy
// when Alg is None).
func FuzzPolicyRoundTrip(f *testing.F) {
	f.Add(zeroLine(), []byte{1})
	f.Add(ldrLine(1<<50, 3), []byte("prefix"))
	f.Add(narrowLine(), bytes.Repeat([]byte{0xFF}, 70))
	f.Add(bytes.Repeat([]byte{0x9E, 0x37, 0x79, 0xB9}, comp.LineSize/4), []byte{0})
	f.Fuzz(func(t *testing.T, data, prefix []byte) {
		line := make([]byte, comp.LineSize)
		copy(line, data)
		if len(prefix) == 0 {
			prefix = []byte{0x5A}
		}
		for _, np := range roundTripPolicies() {
			name, p := np.name, np.p
			// Spare capacity lets the payload land in dst's own array.
			dst := append(make([]byte, 0, len(prefix)+comp.LineSize), prefix...)
			d := p.Process(dst, line)
			if !bytes.Equal(dst, prefix) {
				t.Fatalf("%s: prefix changed to %x", name, dst)
			}
			if len(d.Enc.Data) < len(prefix) || !bytes.Equal(d.Enc.Data[:len(prefix)], prefix) ||
				&d.Enc.Data[0] != &dst[0] {
				t.Fatalf("%s: Enc.Data does not extend dst", name)
			}
			enc := d.Enc
			enc.Data = enc.Data[len(prefix):]
			if len(enc.Data) != d.WireBytes() || d.WireBytes() != (enc.Bits+7)/8 {
				t.Fatalf("%s: %d payload bytes, WireBytes %d, %d bits", name, len(enc.Data), d.WireBytes(), enc.Bits)
			}
			got := make([]byte, comp.LineSize)
			if d.Alg == comp.None {
				if enc.Bits != comp.LineBits {
					t.Fatalf("%s: raw payload of %d bits", name, enc.Bits)
				}
				copy(got, enc.Data)
			} else if err := comp.DecodeInto(got, enc); err != nil {
				t.Fatalf("%s: %v payload: %v", name, d.Alg, err)
			}
			if !bytes.Equal(got, line) {
				t.Fatalf("%s: %v payload decodes to %x, want %x", name, d.Alg, got, line)
			}
		}
	})
}
