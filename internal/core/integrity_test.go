package core

import (
	"testing"

	"mgpucompress/internal/comp"
	"mgpucompress/internal/metrics"
)

// phase runs the controller through one sampling phase and one full running
// phase, returning the running-phase decisions.
func phase(a *Adaptive, cfg Config, line []byte) []Decision {
	for i := 0; i < cfg.SampleCount; i++ {
		a.Process(nil, line)
	}
	out := make([]Decision, 0, cfg.RunLength)
	for i := 0; i < cfg.RunLength; i++ {
		out = append(out, a.Process(nil, line))
	}
	return out
}

// TestDegradationForcesBypassPhase: after DegradeK consecutive
// codec-attributed failures, the next running phase bypasses compression
// entirely, then later phases recover.
func TestDegradationForcesBypassPhase(t *testing.T) {
	cfg := Config{Lambda: 6, SampleCount: 2, RunLength: 4}
	a := NewAdaptive(cfg)
	line := ldrLine(1<<40, 3) // compressible: a healthy phase selects a codec

	for i := 0; i < 3; i++ { // default DegradeK
		a.ObserveIntegrity(false)
	}
	if a.DegradedPhases() != 1 {
		t.Fatalf("DegradedPhases = %d after K failures, want 1", a.DegradedPhases())
	}

	degraded := phase(a, cfg, line)
	for i, d := range degraded {
		if d.Sampling {
			t.Fatalf("decision %d still sampling", i)
		}
		if d.Alg != comp.None {
			t.Fatalf("degraded phase decision %d used %v, want bypass", i, d.Alg)
		}
	}

	recovered := phase(a, cfg, line)
	sawCodec := false
	for _, d := range recovered {
		if d.Alg != comp.None {
			sawCodec = true
		}
	}
	if !sawCodec {
		t.Error("controller did not recover after the degraded phase")
	}
	if a.DegradedPhases() != 1 {
		t.Errorf("DegradedPhases = %d after recovery, want still 1", a.DegradedPhases())
	}
}

// TestIntegritySuccessResetsFailureCount: a clean completion between
// failures prevents degradation.
func TestIntegritySuccessResetsFailureCount(t *testing.T) {
	a := NewAdaptive(Config{SampleCount: 2, RunLength: 4})
	for _, ok := range []bool{false, false, true, false, false} {
		a.ObserveIntegrity(ok)
	}
	if a.DegradedPhases() != 0 {
		t.Errorf("DegradedPhases = %d, want 0: success did not reset the counter", a.DegradedPhases())
	}
	a.ObserveIntegrity(false) // third consecutive failure
	if a.DegradedPhases() != 1 {
		t.Errorf("DegradedPhases = %d, want 1", a.DegradedPhases())
	}
}

// TestSetDegradeK: the profile's degradek knob lowers the threshold after
// construction; non-positive values are ignored.
func TestSetDegradeK(t *testing.T) {
	cfg := Config{SampleCount: 2, RunLength: 4}
	a := NewAdaptive(cfg)
	a.SetDegradeK(1)
	a.ObserveIntegrity(false)
	if a.DegradedPhases() != 1 {
		t.Errorf("DegradedPhases = %d with K=1 after one failure, want 1", a.DegradedPhases())
	}
	phase(a, cfg, zeroLine()) // clear the pending degradation at the boundary
	a.SetDegradeK(0)          // ignored
	a.ObserveIntegrity(false)
	if a.DegradedPhases() != 2 {
		t.Errorf("DegradedPhases = %d, want 2 (K stayed 1)", a.DegradedPhases())
	}
}

// TestDegradationDoesNotRetriggerWhilePending: failures beyond K before the
// next phase boundary count one degradation, not several.
func TestDegradationDoesNotRetriggerWhilePending(t *testing.T) {
	a := NewAdaptive(Config{SampleCount: 2, RunLength: 4})
	for i := 0; i < 9; i++ {
		a.ObserveIntegrity(false)
	}
	if a.DegradedPhases() != 1 {
		t.Errorf("DegradedPhases = %d after 9 failures in one window, want 1", a.DegradedPhases())
	}
}

// TestIntegrityMetricsAndDynamicForwarding: a controller in dynamic-λ mode
// keeps the whole integrity surface of the fixed-λ one.
func TestIntegrityMetricsAndDynamicForwarding(t *testing.T) {
	d := NewDynamicAdaptive(DynamicConfig{SampleCount: 2, RunLength: 4})
	reg := metrics.NewRegistry()
	d.RegisterIntegrityMetrics(reg, "ctrl")
	d.SetDegradeK(2)
	d.ObserveIntegrity(false)
	d.ObserveIntegrity(false)
	if got := reg.Snapshot().Value("ctrl/degraded_phases"); got != 1 {
		t.Errorf("ctrl/degraded_phases = %v, want 1", got)
	}
}
