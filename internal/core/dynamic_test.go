package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"mgpucompress/internal/comp"
	"mgpucompress/internal/metrics"
)

func TestDynamicAdaptiveDefaults(t *testing.T) {
	d := NewDynamicAdaptive(DynamicConfig{})
	if d.Lambda() != 32 {
		t.Errorf("initial λ = %v, want MaxLambda 32", d.Lambda())
	}
	if d.Name() == "" {
		t.Error("no name")
	}
}

// TestDynamicAdaptiveRejectsNonFinite: a NaN or infinite MaxLambda or
// Sensitivity panics instead of defaulting or reaching recalibrate.
func TestDynamicAdaptiveRejectsNonFinite(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  DynamicConfig
	}{
		{"NaN max", DynamicConfig{MaxLambda: math.NaN()}},
		{"+Inf max", DynamicConfig{MaxLambda: math.Inf(1)}},
		{"-Inf max", DynamicConfig{MaxLambda: math.Inf(-1)}},
		{"NaN sensitivity", DynamicConfig{Sensitivity: math.NaN()}},
		{"+Inf sensitivity", DynamicConfig{Sensitivity: math.Inf(1)}},
		{"-Inf sensitivity", DynamicConfig{Sensitivity: math.Inf(-1)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("NewDynamicAdaptive accepted a non-finite config")
				}
			}()
			NewDynamicAdaptive(c.cfg)
		})
	}
}

// TestFixedLambdaIgnoresCongestion: the transport feeds every adaptive
// controller its queue depth, and only the dynamic-λ mode may act on it.
func TestFixedLambdaIgnoresCongestion(t *testing.T) {
	a := NewAdaptive(Config{Lambda: DefaultLambda, SampleCount: 3, RunLength: 7})
	line := ldrLine(1<<50, 3)
	for i := 0; i < 50; i++ {
		a.ObserveCongestion(20)
		a.Process(nil, line)
	}
	if a.Lambda() != DefaultLambda || a.Name() != "Adaptive λ=6" {
		t.Errorf("fixed controller moved: λ = %v, name %q", a.Lambda(), a.Name())
	}
	if h := a.LambdaHistory(); len(h) != 0 {
		t.Errorf("fixed controller has λ history %v", h)
	}
	reg := metrics.NewRegistry()
	a.RegisterMetrics(reg, "ctrl")
	if _, ok := reg.Snapshot().Get("ctrl/recalibrations"); ok {
		t.Error("fixed controller registers ctrl/recalibrations")
	}

	d := NewDynamicAdaptive(DynamicConfig{SampleCount: 3, RunLength: 7})
	for i := 0; i < 50; i++ {
		d.ObserveCongestion(20)
		d.Process(nil, line)
	}
	reg = metrics.NewRegistry()
	d.RegisterMetrics(reg, "ctrl")
	if got := reg.Snapshot().Value("ctrl/recalibrations"); got != 4 {
		t.Errorf("ctrl/recalibrations = %v after 50 transfers of period 10, want 4", got)
	}
	if d.Name() != "Adaptive λ=dynamic" {
		t.Errorf("dynamic name %q", d.Name())
	}
}

func TestDynamicLambdaDropsUnderCongestion(t *testing.T) {
	d := NewDynamicAdaptive(DynamicConfig{SampleCount: 3, RunLength: 7})
	line := ldrLine(1<<50, 3)
	// Phase 1: no congestion observed -> λ stays at max after recalibration.
	for i := 0; i < 10; i++ {
		d.ObserveCongestion(0)
		d.Process(nil, line)
	}
	d.Process(nil, line) // crosses the period boundary, triggers recalibration
	if d.Lambda() != 32 {
		t.Errorf("idle link λ = %v, want 32", d.Lambda())
	}
	// Phase 2: deep queues -> λ collapses toward 0.
	for i := 0; i < 10; i++ {
		d.ObserveCongestion(20)
		d.Process(nil, line)
	}
	d.Process(nil, line)
	if d.Lambda() > 3 {
		t.Errorf("congested link λ = %v, want ≈32/21", d.Lambda())
	}
	if h := d.LambdaHistory(); len(h) < 3 {
		t.Errorf("λ history too short: %v", h)
	}
}

func TestDynamicLambdaRecovers(t *testing.T) {
	d := NewDynamicAdaptive(DynamicConfig{SampleCount: 3, RunLength: 7})
	line := zeroLine()
	for i := 0; i < 11; i++ {
		d.ObserveCongestion(50)
		d.Process(nil, line)
	}
	low := d.Lambda()
	for i := 0; i < 10; i++ {
		d.ObserveCongestion(0)
		d.Process(nil, line)
	}
	d.Process(nil, line)
	if d.Lambda() <= low {
		t.Errorf("λ did not recover: %v -> %v", low, d.Lambda())
	}
}

func TestDynamicAdaptiveDecisionsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := NewDynamicAdaptive(DynamicConfig{SampleCount: 3, RunLength: 5})
	for i := 0; i < 500; i++ {
		var line []byte
		switch i % 3 {
		case 0:
			line = randLine(rng)
		case 1:
			line = ldrLine(rng.Uint64(), 5)
		default:
			line = zeroLine()
		}
		d.ObserveCongestion(rng.Intn(10))
		dec := d.Process(nil, line)
		var got []byte
		if dec.Alg == comp.None {
			got = dec.Enc.Data
		} else {
			var err error
			got, err = comp.NewCompressor(dec.Alg).Decompress(dec.Enc)
			if err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
		}
		if !bytes.Equal(got, line) {
			t.Fatalf("iteration %d: round trip mismatch", i)
		}
	}
}

func TestPolicyForDynamic(t *testing.T) {
	factory, err := PolicyFactory(PolicyDynamic, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := factory().(CongestionObserver); !ok {
		t.Error("dynamic policy does not observe congestion")
	}
}
