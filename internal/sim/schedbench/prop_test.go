package schedbench

import (
	"testing"

	"mgpucompress/internal/sim"
)

// TestWindowPolicyEquivalence is the window scheduler's property test: for
// every schedule shape and seed, runs under adaptive windows (la=0), a
// narrower-than-necessary fixed window (la=1), and the classic fixed
// lookahead (la=LinkLatency) must all reproduce the fixed-lookahead
// reference bit for bit — same digest, same final cycle, same event count.
// Adaptive runs must also never use more windows than the fixed baseline.
func TestWindowPolicyEquivalence(t *testing.T) {
	seeds := []int64{1, 42, 987654321}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, shape := range Shapes {
		for _, seed := range seeds {
			ref, err := Run(shape, seed, LinkLatency)
			if err != nil {
				t.Fatalf("%s/seed=%d: reference run: %v", shape, seed, err)
			}
			if ref.Events == 0 || ref.RemoteMsgs == 0 {
				t.Fatalf("%s/seed=%d: degenerate reference (events=%d remote=%d)",
					shape, seed, ref.Events, ref.RemoteMsgs)
			}
			for _, la := range []sim.Time{0, 1, LinkLatency} {
				got, err := Run(shape, seed, la)
				if err != nil {
					t.Fatalf("%s/seed=%d/la=%d: %v", shape, seed, la, err)
				}
				if got.Digest != ref.Digest || got.Cycles != ref.Cycles || got.Events != ref.Events {
					t.Errorf("%s/seed=%d/la=%d: diverged: digest %x/%x cycles %d/%d events %d/%d",
						shape, seed, la,
						got.Digest, ref.Digest, got.Cycles, ref.Cycles, got.Events, ref.Events)
				}
				if la == 0 && got.Windows > ref.Windows {
					t.Errorf("%s/seed=%d: adaptive used %d windows, fixed %d",
						shape, seed, got.Windows, ref.Windows)
				}
			}
		}
	}
}

// TestShapeReductions pins the headline property of each shape: adaptive
// windows beat the fixed-lookahead baseline by a wide margin when traffic
// has locality. The thresholds are far below the measured ratios (roughly
// 30x, 50x, 110x) so schedule-generator tweaks do not flake the suite, but
// a regression to per-latency windowing fails loudly.
func TestShapeReductions(t *testing.T) {
	for _, shape := range Shapes {
		adaptive, err := Run(shape, 7, 0)
		if err != nil {
			t.Fatal(err)
		}
		fixed, err := Run(shape, 7, LinkLatency)
		if err != nil {
			t.Fatal(err)
		}
		if adaptive.Digest != fixed.Digest {
			t.Fatalf("%s: adaptive and fixed runs diverged", shape)
		}
		if ratio := float64(fixed.Windows) / float64(adaptive.Windows); ratio < 10 {
			t.Errorf("%s: window reduction %.1fx, want >= 10x (adaptive %d, fixed %d)",
				shape, ratio, adaptive.Windows, fixed.Windows)
		}
	}
}
