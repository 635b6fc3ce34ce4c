package runner

import (
	"fmt"
	"io"
	"path"
	"strings"

	"mgpucompress/internal/comp"
	"mgpucompress/internal/core"
	"mgpucompress/internal/energy"
	"mgpucompress/internal/fabric"
	"mgpucompress/internal/fault"
	"mgpucompress/internal/sweep"
	"mgpucompress/internal/workloads"
)

// This file binds the generic internal/sweep engine to the simulator: it
// maps sweep.JobKey to runner.Options (and back), and exposes every table,
// figure and ablation as a method on Sweep so all artifacts produced by one
// process share a single memoized job cache — a (workload, policy) run that
// several artifacts need is simulated exactly once.

// SweepConfig parameterizes a Sweep.
type SweepConfig struct {
	// Jobs bounds concurrent simulations (default GOMAXPROCS; 1 = serial).
	Jobs int
	// Journal, when non-nil, receives one JSONL record per completed job;
	// feed it back through Resume to skip finished jobs after a crash.
	Journal io.Writer
	// OnProgress is called after every completed job.
	OnProgress func(sweep.Progress)
	// Trace records fabric transfers on every job for WriteTraceFile.
	// It is applied when a job executes, after key normalization, so it
	// never perturbs fingerprints (tracing is measurement-only).
	Trace bool
	// Run, when non-nil, replaces RunJob as the job executor while keeping
	// the memo cache, journaling and deterministic assembly order; the
	// repository benchmark uses it to time each job. It must honor RunJob's
	// contract: the result is a pure function of the key.
	Run func(sweep.JobKey) (*Result, error)
}

// Sweep schedules simulation jobs through the orchestration engine.
type Sweep struct {
	eng   *sweep.Engine[*Result]
	trace bool
}

// NewSweep builds a sweep session.
func NewSweep(cfg SweepConfig) *Sweep {
	s := &Sweep{trace: cfg.Trace}
	run := s.executeJob
	if cfg.Run != nil {
		run = cfg.Run
	}
	s.eng = sweep.New(sweep.Config[*Result]{
		Workers:    cfg.Jobs,
		Run:        run,
		Journal:    cfg.Journal,
		OnProgress: cfg.OnProgress,
	})
	return s
}

// Result returns the (memoized) result for one job.
func (s *Sweep) Result(k sweep.JobKey) (*Result, error) { return s.eng.Get(k) }

// All runs the keys across the worker pool, returning results in key order.
func (s *Sweep) All(keys []sweep.JobKey) ([]*Result, error) { return s.eng.GetAll(keys) }

// Prefetch warms the cache with the keys (the parallel phase of
// cmd/reproduce; artifact assembly afterwards is pure cache hits).
func (s *Sweep) Prefetch(keys []sweep.JobKey) error { return s.eng.Prefetch(keys) }

// Resume replays a JSONL journal written by a previous run; loaded jobs are
// served from the cache instead of re-simulating.
func (s *Sweep) Resume(r io.Reader) (int, error) { return s.eng.Resume(r) }

// Stats snapshots the engine counters.
func (s *Sweep) Stats() sweep.Progress { return s.eng.Stats() }

// Completed lists every finished job with its key, sorted by canonical form
// (independent of scheduling), for the metrics/trace exporters.
func (s *Sweep) Completed() []sweep.CompletedJob[*Result] { return s.eng.Completed() }

// Key builds the normalized JobKey for one benchmark run under the options.
// Normalization (zero scale, the OnChip→MCM link default) keeps equal runs
// on equal fingerprints no matter how callers spell them.
func Key(bench string, opts Options) sweep.JobKey {
	k := sweep.JobKey{
		Workload:            bench,
		Policy:              opts.Policy.String(),
		Lambda:              opts.Lambda,
		Scale:               int(opts.Scale),
		CUsPerGPU:           opts.CUsPerGPU,
		NumGPUs:             opts.NumGPUs,
		Topology:            string(opts.Topology),
		Link:                int(opts.Link),
		RemoteCache:         opts.RemoteCache,
		FabricBytesPerCycle: opts.FabricBytesPerCycle,
		Characterize:        opts.Characterize,
		SeriesLimit:         opts.SeriesLimit,
		SeedOverride:        opts.Seed,
		FaultProfile:        opts.Fault.Canonical(),
	}
	if opts.Adaptive != nil {
		k.Policy = core.PolicyAdaptive.String()
		k.Lambda = opts.Adaptive.Lambda
		k.SampleCount = opts.Adaptive.SampleCount
		k.RunLength = opts.Adaptive.RunLength
		for _, c := range opts.Adaptive.Candidates {
			k.Candidates = append(k.Candidates, c.Algorithm().String())
		}
	}
	if k.Scale == 0 {
		k.Scale = int(workloads.ScaleSmall)
	}
	if energy.LinkClass(k.Link) == energy.OnChip {
		k.Link = int(energy.MCM) // Run treats the zero value as MCM
	}
	return k
}

// RunJob executes one simulation job straight from its key, without a sweep
// session (and so without tracing). It is the executor a resident daemon
// binds to the serve service: stateless, safe for concurrent use, and a pure
// function of the key like executeJob itself.
func RunJob(k sweep.JobKey) (*Result, error) {
	return (&Sweep{}).executeJob(k)
}

// executeJob is the engine's run function: the inverse of Key.
func (s *Sweep) executeJob(k sweep.JobKey) (*Result, error) {
	pol, err := core.ParsePolicy(k.Policy)
	if err != nil {
		return nil, fmt.Errorf("runner: job %s: %w", k.Fingerprint(), err)
	}
	opts := Options{
		Scale:               workloads.Scale(k.Scale),
		CUsPerGPU:           k.CUsPerGPU,
		Policy:              pol,
		Lambda:              k.Lambda,
		Characterize:        k.Characterize,
		SeriesLimit:         k.SeriesLimit,
		Link:                energy.LinkClass(k.Link),
		Topology:            fabric.Topology(k.Topology),
		RemoteCache:         k.RemoteCache,
		NumGPUs:             k.NumGPUs,
		FabricBytesPerCycle: k.FabricBytesPerCycle,
		// The seed is derived from the key's fingerprint (or pinned by
		// SeedOverride), not a scheduling artifact: equal jobs always
		// generate identical inputs, and distinct jobs draw from
		// domain-separated streams.
		Seed: k.Seed(),
		// Tracing is a sweep-level switch, applied after normalization so
		// it never reaches the fingerprint.
		Trace: s.trace,
	}
	if k.FaultProfile != "" {
		prof, err := fault.Parse(k.FaultProfile)
		if err != nil {
			return nil, fmt.Errorf("runner: job %s: %w", k.Fingerprint(), err)
		}
		opts.Fault = prof
	}
	if k.SampleCount > 0 || k.RunLength > 0 || len(k.Candidates) > 0 {
		cands, err := compressorsFor(k.Candidates)
		if err != nil {
			return nil, err
		}
		opts.Adaptive = &core.Config{
			Lambda:      k.Lambda,
			SampleCount: k.SampleCount,
			RunLength:   k.RunLength,
			Candidates:  cands,
		}
	}
	return Run(k.Workload, opts)
}

// compressorsFor instantiates fresh codecs from canonical algorithm names.
func compressorsFor(names []string) ([]comp.Compressor, error) {
	if len(names) == 0 {
		return nil, nil
	}
	out := make([]comp.Compressor, 0, len(names))
	for _, name := range names {
		alg, err := algByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, comp.NewCompressor(alg))
	}
	return out, nil
}

func algByName(name string) (comp.Algorithm, error) {
	for _, alg := range []comp.Algorithm{comp.FPC, comp.BDI, comp.CPackZ, comp.BPC} {
		if alg.String() == name {
			return alg, nil
		}
	}
	return comp.None, fmt.Errorf("runner: unknown codec %q in job key", name)
}

// ---------------------------------------------------------------------------
// Artifact plans
// ---------------------------------------------------------------------------

// Fig1Benchmarks lists the Fig. 1 series benchmarks (the paper uses SC and
// FIR).
func Fig1Benchmarks() []string { return []string{"SC", "FIR"} }

// Fig1Samples is the series length the paper plots.
const Fig1Samples = 500

// characterizationKeys enumerates the Characterize runs shared by Table V,
// Table VI and any future characterization artifact.
func characterizationKeys(o ExpOptions) []sweep.JobKey {
	keys := make([]sweep.JobKey, 0, len(Benchmarks()))
	for _, b := range Benchmarks() {
		opts := o.Options()
		opts.Characterize = true
		keys = append(keys, Key(b, opts))
	}
	return keys
}

// fig1Key is the series-collection run for one benchmark.
func fig1Key(bench string, n int, o ExpOptions) sweep.JobKey {
	opts := o.Options()
	opts.SeriesLimit = n
	return Key(bench, opts)
}

// normalizedKeys enumerates, for every benchmark, the uncompressed baseline
// followed by one run per policy spec: stride len(specs)+1 per benchmark.
func normalizedKeys(specs []policySpec, o ExpOptions) []sweep.JobKey {
	var keys []sweep.JobKey
	for _, b := range Benchmarks() {
		keys = append(keys, Key(b, o.Options()))
		for _, spec := range specs {
			opts := o.Options()
			opts.Policy = spec.policy
			opts.Lambda = spec.lambda
			keys = append(keys, Key(b, opts))
		}
	}
	return keys
}

// ReproducePlan enumerates every simulation cmd/reproduce needs — Tables V
// and VI, Fig. 1 (SC, FIR), and Figs. 5-7 — deduplicated by fingerprint.
// Prefetching the plan runs the whole reproduction at full parallelism;
// assembling the artifacts afterwards is pure cache hits.
func ReproducePlan(o ExpOptions) []sweep.JobKey {
	var keys []sweep.JobKey
	keys = append(keys, characterizationKeys(o)...)
	for _, bench := range Fig1Benchmarks() {
		keys = append(keys, fig1Key(bench, Fig1Samples, o))
	}
	keys = append(keys, normalizedKeys(allSpecs(), o)...)
	return sweep.Dedup(keys)
}

// allSpecs is the union of the static (Fig. 5) and adaptive (Fig. 6) policy
// specs — exactly the Fig. 7 bar set.
func allSpecs() []policySpec {
	return append(append([]policySpec{}, staticSpecs...), adaptiveSpecs...)
}

// Artifact is one output of cmd/reproduce, a paper table or figure or an
// ablation: its name (written to Name+".txt"), the simulations it reads, and
// how to render it.
type Artifact struct {
	Name string
	// Keys lists the jobs Render reads; nil for static artifacts.
	Keys   func(ExpOptions) []sweep.JobKey
	Render func(*Sweep, ExpOptions) (string, error)
}

// Artifacts lists the paper's tables and figures in writing order.
func Artifacts() []Artifact {
	static := func(format func() string) func(*Sweep, ExpOptions) (string, error) {
		return func(*Sweep, ExpOptions) (string, error) { return format(), nil }
	}
	arts := []Artifact{
		{"table1", nil, static(FormatTableI)},
		{"table3", nil, static(FormatTableIII)},
		{"table5", characterizationKeys, func(s *Sweep, o ExpOptions) (string, error) {
			rows, err := s.TableV(o)
			if err != nil {
				return "", err
			}
			return FormatTableV(rows), nil
		}},
		{"table6", characterizationKeys, func(s *Sweep, o ExpOptions) (string, error) {
			rows, err := s.TableVI(o)
			if err != nil {
				return "", err
			}
			return FormatTableVI(rows), nil
		}},
	}
	for _, bench := range Fig1Benchmarks() {
		arts = append(arts, Artifact{"fig1_" + bench,
			func(o ExpOptions) []sweep.JobKey { return []sweep.JobKey{fig1Key(bench, Fig1Samples, o)} },
			func(s *Sweep, o ExpOptions) (string, error) { return s.fig1Report(bench, o) }})
	}
	return append(arts,
		normalizedArtifact("fig5", "Fig. 5: Static Compression", staticSpecs, "traffic", "time"),
		normalizedArtifact("fig6", "Fig. 6: Adaptive Compression", adaptiveSpecs, "traffic", "time"),
		normalizedArtifact("fig7", "Fig. 7: Energy Consumption", allSpecs(), "energy"),
		Artifact{"area", nil, static(FormatAreaOverhead)},
	)
}

// normalizedArtifact renders one Fig. 5/6/7 matrix per metric.
func normalizedArtifact(name, title string, specs []policySpec, metrics ...string) Artifact {
	return Artifact{name,
		func(o ExpOptions) []sweep.JobKey { return normalizedKeys(specs, o) },
		func(s *Sweep, o ExpOptions) (string, error) {
			rows, err := s.runAll(specs, o)
			if err != nil {
				return "", err
			}
			parts := make([]string, len(metrics))
			for i, m := range metrics {
				parts[i] = FormatNormalized(title, m, rows)
			}
			return strings.Join(parts, "\n"), nil
		}}
}

// fig1Report renders a Fig. 1 series followed by its per-half phase summary.
func (s *Sweep) fig1Report(bench string, o ExpOptions) (string, error) {
	series, err := s.Fig1(bench, Fig1Samples, o)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(FormatFig1(bench, series))
	b.WriteString("\nphase summary (mean compressed bytes, halves):\n")
	phases := SummarizeFig1Phases(series)
	for _, alg := range []comp.Algorithm{comp.FPC, comp.BDI, comp.CPackZ} {
		p := phases[alg]
		fmt.Fprintf(&b, "  %-9v %6.1f B -> %6.1f B\n", alg, p[0], p[1])
	}
	return b.String(), nil
}

// allArtifacts lists the paper's artifacts, then the ablations.
func allArtifacts() []Artifact { return append(Artifacts(), Ablations()...) }

// ArtifactNames lists every artifact name, ablations included, in writing
// order.
func ArtifactNames() []string {
	var names []string
	for _, a := range allArtifacts() {
		names = append(names, a.Name)
	}
	return names
}

// SelectArtifacts resolves a comma-separated list of artifact names or
// path.Match patterns to artifacts in writing order. An entry that is not a
// valid pattern, or matches no artifact, is an error. "" selects the paper's
// Artifacts; ablations are written only when selected.
func SelectArtifacts(list string) ([]Artifact, error) {
	if list == "" {
		return Artifacts(), nil
	}
	all := allArtifacts()
	picked := make([]bool, len(all))
	for _, pat := range strings.Split(list, ",") {
		matched := false
		for i, a := range all {
			ok, err := path.Match(pat, a.Name)
			if err != nil {
				return nil, fmt.Errorf("artifact pattern %q: %w", pat, err)
			}
			picked[i] = picked[i] || ok
			matched = matched || ok
		}
		if !matched {
			return nil, fmt.Errorf("unknown artifact %q (want %s)", pat, strings.Join(ArtifactNames(), ","))
		}
	}
	var out []Artifact
	for i, a := range all {
		if picked[i] {
			out = append(out, a)
		}
	}
	return out, nil
}

// Plan lists the simulations the artifacts read, deduplicated: first the
// subsequence of ReproducePlan they need, then their other jobs in artifact
// order. Prefetching it leaves rendering them pure cache hits, and the
// paper's artifact list plans exactly ReproducePlan.
func Plan(arts []Artifact, o ExpOptions) []sweep.JobKey {
	var want []sweep.JobKey
	for _, a := range arts {
		if a.Keys != nil {
			want = append(want, a.Keys(o)...)
		}
	}
	need := map[string]bool{}
	for _, k := range want {
		need[k.Fingerprint()] = true
	}
	var keys []sweep.JobKey
	for _, k := range ReproducePlan(o) {
		if need[k.Fingerprint()] {
			keys = append(keys, k)
		}
	}
	return sweep.Dedup(append(keys, want...))
}
