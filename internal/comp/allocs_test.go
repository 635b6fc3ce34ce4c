//go:build !race

package comp

import (
	"fmt"
	"testing"
)

// TestHotPathsAllocationFree pins the steady-state encode paths at zero
// allocations: CompressInto into a warm buffer and the size-only
// CompressedBits probe, for every codec on every benchmark line grade. The
// race detector instruments allocations, so the file is excluded under
// -race.
func TestHotPathsAllocationFree(t *testing.T) {
	for _, c := range ExtendedCompressors() {
		for _, grade := range benchGrades {
			lines := benchLines(grade)
			buf := make([]byte, 0, LineSize)
			into := func() {
				for _, line := range lines {
					buf = c.CompressInto(buf[:0], line).Data
				}
			}
			into() // warm the buffer to its largest encoding
			sizeOnly := func() {
				for _, line := range lines {
					benchSink += c.CompressedBits(line)
				}
			}
			for _, tc := range []struct {
				name string
				fn   func()
			}{{"CompressInto", into}, {"CompressedBits", sizeOnly}} {
				t.Run(fmt.Sprintf("%s/%v/%s", tc.name, c.Algorithm(), grade), func(t *testing.T) {
					if got := testing.AllocsPerRun(10, tc.fn); got != 0 {
						t.Errorf("%v allocs per pass over %d lines, want 0", got, len(lines))
					}
				})
			}
		}
	}
}

// TestDecodeIntoAllocationFree pins the receive path's decode into a
// caller's line at zero allocations for every codec and line grade.
func TestDecodeIntoAllocationFree(t *testing.T) {
	line := make([]byte, LineSize)
	for _, c := range ExtendedCompressors() {
		for _, grade := range benchGrades {
			var encs []Encoded
			for _, l := range benchLines(grade) {
				encs = append(encs, c.Compress(l))
			}
			t.Run(fmt.Sprintf("%v/%s", c.Algorithm(), grade), func(t *testing.T) {
				got := testing.AllocsPerRun(10, func() {
					for _, enc := range encs {
						if err := DecodeInto(line, enc); err != nil {
							t.Fatal(err)
						}
					}
				})
				if got != 0 {
					t.Errorf("%v allocs per pass over %d lines, want 0", got, len(encs))
				}
			})
		}
	}
}
