package runner

import (
	"bytes"
	"encoding/json"
	"testing"

	"mgpucompress/internal/core"
	"mgpucompress/internal/energy"
	"mgpucompress/internal/workloads"
)

func tinySweep(jobs int) *Sweep {
	return NewSweep(SweepConfig{Jobs: jobs})
}

func TestKeyNormalization(t *testing.T) {
	// Every spelling of "the default baseline run" must share a fingerprint.
	bare := Key("SC", Options{})
	spelled := Key("SC", Options{Policy: core.PolicyNone, Scale: workloads.ScaleSmall, Link: energy.MCM})
	if bare.Fingerprint() != spelled.Fingerprint() {
		t.Fatalf("default-run spellings diverge:\n  %s\n  %s", bare.Canonical(), spelled.Canonical())
	}

	// An adaptive run via the policy string and via a default-geometry custom
	// config are the same simulation, so they must share a key.
	viaPolicy := Key("SC", Options{Policy: core.PolicyAdaptive, Lambda: 6})
	viaConfig := Key("SC", Options{Adaptive: &core.Config{Lambda: 6}})
	if viaPolicy.Fingerprint() != viaConfig.Fingerprint() {
		t.Fatalf("adaptive spellings diverge:\n  %s\n  %s",
			viaPolicy.Canonical(), viaConfig.Canonical())
	}

	// A custom sampling geometry is a different simulation and must not
	// collide with the default.
	custom := Key("SC", Options{Adaptive: &core.Config{Lambda: 6, SampleCount: 7, RunLength: 300}})
	if custom.Fingerprint() == viaPolicy.Fingerprint() {
		t.Fatal("custom geometry must not share the default adaptive fingerprint")
	}
}

func TestReproducePlanIsDeduplicated(t *testing.T) {
	o := tinyOpts()
	plan := ReproducePlan(o)
	seen := make(map[string]bool, len(plan))
	for _, k := range plan {
		fp := k.Fingerprint()
		if seen[fp] {
			t.Fatalf("duplicate job in plan: %s", k.Canonical())
		}
		seen[fp] = true
	}
	// The plan must cover the characterization runs and the Fig. 1 series.
	for _, k := range characterizationKeys(o) {
		if !seen[k.Fingerprint()] {
			t.Errorf("plan missing characterization run %s", k.Canonical())
		}
	}
	for _, b := range Fig1Benchmarks() {
		if !seen[fig1Key(b, Fig1Samples, o).Fingerprint()] {
			t.Errorf("plan missing Fig. 1 series for %s", b)
		}
	}
}

func TestSweepSharesCharacterizationRuns(t *testing.T) {
	s := tinySweep(4)
	o := tinyOpts()
	if _, err := s.TableV(o); err != nil {
		t.Fatal(err)
	}
	after5 := s.Stats().Simulated
	if want := len(Benchmarks()); after5 != want {
		t.Fatalf("Table V simulated %d jobs, want %d", after5, want)
	}
	// Table VI re-uses every characterization run: zero new simulations.
	if _, err := s.TableVI(o); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Simulated; got != after5 {
		t.Fatalf("Table VI re-simulated: %d -> %d jobs", after5, got)
	}
}

func TestSweepFig7ReusesFig5AndFig6Runs(t *testing.T) {
	s := tinySweep(4)
	o := tinyOpts()
	if _, err := s.Fig5(o); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fig6(o); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().Simulated
	// Fig. 5 ran baseline+static, Fig. 6 baseline+adaptive (baseline shared).
	if want := len(Benchmarks()) * (1 + len(staticSpecs) + len(adaptiveSpecs)); before != want {
		t.Fatalf("Fig. 5+6 simulated %d jobs, want %d", before, want)
	}
	rows, err := s.Fig7(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Simulated; got != before {
		t.Fatalf("Fig. 7 re-simulated: %d -> %d jobs", before, got)
	}
	if want := len(Benchmarks()) * len(allSpecs()); len(rows) != want {
		t.Fatalf("Fig. 7 returned %d rows, want %d", len(rows), want)
	}
}

func TestSweepParallelMatchesSerial(t *testing.T) {
	o := tinyOpts()

	serial := tinySweep(1)
	rowsV1, err := serial.TableV(o)
	if err != nil {
		t.Fatal(err)
	}
	fig5s1, err := serial.Fig5(o)
	if err != nil {
		t.Fatal(err)
	}

	par := tinySweep(8)
	rowsV8, err := par.TableV(o)
	if err != nil {
		t.Fatal(err)
	}
	fig5s8, err := par.Fig5(o)
	if err != nil {
		t.Fatal(err)
	}

	// The determinism contract: formatted artifacts are byte-identical no
	// matter how many workers simulated them.
	if a, b := FormatTableV(rowsV1), FormatTableV(rowsV8); a != b {
		t.Errorf("Table V differs between -jobs 1 and -jobs 8:\n%s\n---\n%s", a, b)
	}
	f := func(rows []NormalizedResult) string {
		return FormatNormalized("Fig. 5", "traffic", rows) + FormatNormalized("Fig. 5", "time", rows)
	}
	if a, b := f(fig5s1), f(fig5s8); a != b {
		t.Errorf("Fig. 5 differs between -jobs 1 and -jobs 8:\n%s\n---\n%s", a, b)
	}
}

func TestSweepResumeSkipsFinishedJobs(t *testing.T) {
	o := tinyOpts()
	var journal bytes.Buffer

	first := NewSweep(SweepConfig{Jobs: 4, Journal: &journal})
	rows1, err := first.TableV(o)
	if err != nil {
		t.Fatal(err)
	}

	// A fresh process resuming from the journal must rebuild Table V from
	// the JSONL records alone — zero re-simulation, identical bytes. This
	// exercises the full Result JSON round trip (histograms included).
	second := tinySweep(4)
	loaded, err := second.Resume(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if want := len(Benchmarks()); loaded != want {
		t.Fatalf("Resume loaded %d jobs, want %d", loaded, want)
	}
	rows2, err := second.TableV(o)
	if err != nil {
		t.Fatal(err)
	}
	if st := second.Stats(); st.Simulated != 0 {
		t.Fatalf("resumed sweep simulated %d jobs, want 0", st.Simulated)
	}
	if a, b := FormatTableV(rows1), FormatTableV(rows2); a != b {
		t.Errorf("resumed Table V differs:\n%s\n---\n%s", a, b)
	}
}

// TestResumeReplaysPlatformKey replays a journal record that still carries
// the "platform" counter view results used to store beside their snapshot:
// the record must load and serve the job without re-simulating it.
func TestResumeReplaysPlatformKey(t *testing.T) {
	var journal bytes.Buffer
	k := Key("MT", Options{Scale: workloads.ScaleTiny, CUsPerGPU: 2})
	want, err := NewSweep(SweepConfig{Jobs: 1, Journal: &journal}).Result(k)
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]json.RawMessage
	if err := json.Unmarshal(journal.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	var res map[string]json.RawMessage
	if err := json.Unmarshal(rec["result"], &res); err != nil {
		t.Fatal(err)
	}
	res["platform"] = json.RawMessage(`{"exec_cycles":1,"l1_hits":2,"fabric_util":0.5}`)
	rec["result"] = mustJSON(t, res)
	line := mustJSON(t, rec)

	s := tinySweep(1)
	if loaded, err := s.Resume(bytes.NewReader(line)); err != nil || loaded != 1 {
		t.Fatalf("Resume loaded %d records (%v), want 1", loaded, err)
	}
	got, err := s.Result(k)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Simulated != 0 {
		t.Errorf("resumed sweep simulated %d jobs, want 0", st.Simulated)
	}
	if got.ExecCycles != want.ExecCycles || !bytes.Equal(mustJSON(t, got.Snapshot), mustJSON(t, want.Snapshot)) {
		t.Error("replayed result differs from the simulated one")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestResultJSONRoundTripStable(t *testing.T) {
	// The journal stores Result as JSON; resume feeds them back through the
	// same formatters. marshal(unmarshal(marshal(m))) must equal marshal(m)
	// or resumed artifacts would drift from simulated ones.
	m, err := Run("MT", Options{Scale: workloads.ScaleTiny, CUsPerGPU: 2, Policy: core.PolicyAdaptive, Characterize: true})
	if err != nil {
		t.Fatal(err)
	}
	first, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("Result JSON not stable under round trip:\n%s\n---\n%s", first, second)
	}
}
