// Package runner executes (workload, policy) experiments on the simulated
// platform and collects every measurement the paper reports: remote access
// counts and entropy (Table V), per-codec compression ratios and pattern
// mixes (Tables V and VI), transfer time series (Fig. 1), normalized
// traffic and execution time (Figs. 5 and 6), and energy (Fig. 7).
package runner

import (
	"fmt"

	"mgpucompress/internal/comp"
	"mgpucompress/internal/core"
	"mgpucompress/internal/energy"
	"mgpucompress/internal/fabric"
	"mgpucompress/internal/fault"
	"mgpucompress/internal/metrics"
	"mgpucompress/internal/platform"
	"mgpucompress/internal/stats"
	"mgpucompress/internal/trace"
	"mgpucompress/internal/workloads"
)

// Options configures one experiment run.
type Options struct {
	// Scale is the workload input scale.
	Scale workloads.Scale
	// CUsPerGPU overrides the platform CU count (0 = default).
	CUsPerGPU int
	// Policy selects the compression policy (zero value = PolicyNone).
	// CLIs parse user strings with core.ParsePolicy at the flag boundary.
	Policy core.PolicyID
	// Lambda is the adaptive λ.
	Lambda float64
	// Characterize additionally runs every codec on every transferred
	// line, filling PerCodec ratios and pattern histograms (Tables V/VI).
	// It does not affect timing: characterization is measurement-only.
	Characterize bool
	// SeriesLimit, when positive, collects the first N payload transfers
	// as a Fig. 1-style time series.
	SeriesLimit int
	// Link selects the fabric energy class (default MCM).
	Link energy.LinkClass
	// Topology selects the fabric implementation (default: the paper's
	// shared bus). The crossbar is an extension for the topology ablation.
	Topology fabric.Topology
	// RemoteCache enables the L1.5 remote-data cache extension
	// (Arunkumar et al.), off in the paper's configuration.
	RemoteCache bool
	// NumGPUs overrides the GPU count (default 4, the paper's system).
	NumGPUs int
	// Trace records every fabric transfer for timeline analysis.
	Trace bool
	// FabricBytesPerCycle overrides the link width (0 = the paper's
	// 20 B/cycle, i.e. 160 Gb/s at 1 GHz).
	FabricBytesPerCycle int
	// Adaptive, when non-nil, runs the adaptive controller with a fully
	// custom configuration (sampling geometry, candidate set) on every
	// compressing endpoint; Policy then only labels the run. Used by the
	// ablation studies.
	Adaptive *core.Config
	// Seed rebases the workload's input-generation random streams
	// (workloads.Seeder). Zero keeps each workload's fixed default stream;
	// sweeps set the JobKey-derived seed so every job's inputs are a pure
	// function of its fingerprint.
	Seed int64
	// Fault configures deterministic fault injection on the inter-GPU
	// fabric (zero value = off). When enabled it also arms the RDMA
	// reliability guard (CRC trailers, NACK/retry/timeout) and the
	// controller's degradation rule.
	Fault fault.Profile
}

// Validate reports the first configuration error, consolidating the checks
// that used to be scattered across Run, the CLIs and the sweep layer. A zero
// Options is valid.
func (o Options) Validate() error {
	if o.Scale < 0 {
		return fmt.Errorf("negative workload scale %d", o.Scale)
	}
	if !o.Policy.Valid() {
		return fmt.Errorf("invalid policy %v", o.Policy)
	}
	if err := core.ValidateLambda(o.Lambda); err != nil {
		return err
	}
	if o.SeriesLimit < 0 {
		return fmt.Errorf("negative series limit %d", o.SeriesLimit)
	}
	if o.Adaptive != nil && o.Policy != core.PolicyNone && o.Policy != core.PolicyAdaptive {
		return fmt.Errorf("Adaptive config conflicts with policy %v", o.Policy)
	}
	if o.Adaptive != nil {
		if err := core.ValidateLambda(o.Adaptive.Lambda); err != nil {
			return fmt.Errorf("Adaptive config: %w", err)
		}
	}
	// The platform's shape (GPUs, CUs, fabric, fault profile) is checked by
	// the platform itself, on the config Run builds.
	return o.platformConfig().Validate()
}

// platformConfig is the platform shape of a run: the defaults, with each
// nonzero option passed through unchecked (a negative CU count or link
// width reaches platform.Config.Validate, not a fallback). Link class 0
// keeps the default MCM class, as Key normalizes it.
func (o Options) platformConfig() platform.Config {
	cfg := platform.DefaultConfig()
	if o.NumGPUs != 0 {
		cfg.NumGPUs = o.NumGPUs
	}
	if o.CUsPerGPU != 0 {
		cfg.CUsPerGPU = o.CUsPerGPU
	}
	if o.Topology != "" {
		cfg.Fabric.Topology = o.Topology
	}
	if o.Link != energy.OnChip {
		cfg.Fabric.BaseClass = o.Link
	}
	if o.FabricBytesPerCycle != 0 {
		cfg.Fabric.BytesPerCycle = o.FabricBytesPerCycle
	}
	if o.RemoteCache {
		rc := platform.RemoteCacheConfig()
		cfg.RemoteCache = &rc
	}
	cfg.Fault = o.Fault
	return cfg
}

// CodecStats aggregates one codec's behaviour over all transferred lines.
type CodecStats struct {
	CompressedBytes uint64                `json:"compressed_bytes"`
	Patterns        comp.PatternHistogram `json:"patterns"`
}

// Result is the outcome of one run: the paper-facing measurements and the
// full metrics snapshot they are views over.
type Result struct {
	Workload string `json:"workload"`
	Policy   string `json:"policy"`

	ExecCycles  uint64        `json:"exec_cycles"`
	FabricBytes uint64        `json:"fabric_bytes"` // everything on the bus, headers and control included
	Traffic     stats.Traffic `json:"traffic"`

	// CodecEnergyPJ is the compression-hardware energy actually spent by
	// the policy; FabricEnergyPJ is the link transfer energy.
	CodecEnergyPJ  float64 `json:"codec_energy_pj"`
	FabricEnergyPJ float64 `json:"fabric_energy_pj"`

	// PerCodec holds characterization results (Characterize mode).
	PerCodec map[comp.Algorithm]*CodecStats `json:"per_codec,omitempty"`

	// Series is the Fig. 1 time series (SeriesLimit mode).
	Series *stats.Series `json:"series,omitempty"`

	// ReadLatency aggregates the end-to-end remote read latency (cycles)
	// across every RDMA engine. In-memory only: the sample list is too
	// large to journal, and its aggregates live in the snapshot
	// ("*/rdma/read_latency").
	ReadLatency stats.Histogram `json:"-"`

	// TraceLog holds the fabric transfer timeline (Trace mode) and Spans
	// the phase/kernel/workload span timeline. Both export to Chrome trace
	// JSON via WriteTraceFile; neither is journaled.
	TraceLog *trace.Log      `json:"-"`
	Spans    *trace.Recorder `json:"-"`

	// Snapshot is the full metric registry at end of run, sorted by path.
	// Every aggregate, platform.StatsFromSnapshot included, is derived
	// from it.
	Snapshot metrics.Snapshot `json:"snapshot,omitempty"`
}

// TotalEnergyPJ is the Fig. 7 quantity: fabric plus codec energy.
func (m *Result) TotalEnergyPJ() float64 { return m.FabricEnergyPJ + m.CodecEnergyPJ }

// CompressionRatio returns the achieved payload compression ratio.
func (m *Result) CompressionRatio() float64 { return m.Traffic.CompressionRatio() }

// CodecRatio returns the characterization compression ratio for one codec
// (Table V columns).
func (m *Result) CodecRatio(alg comp.Algorithm) float64 {
	cs, ok := m.PerCodec[alg]
	if !ok || cs.CompressedBytes == 0 {
		return 1
	}
	return float64(m.Traffic.UncompressedPayloadBytes) / float64(cs.CompressedBytes)
}

// characterizer is the run's measurement-only payload observer: it runs
// every codec on every transferred line for the PerCodec ratios and pattern
// histograms (Characterize) and feeds the Fig. 1 series (SeriesLimit). Its
// sums are integers, so one observer serves every endpoint.
type characterizer struct {
	codecs  []comp.Compressor
	per     map[comp.Algorithm]*CodecStats
	series  *stats.Series
	scratch []byte // characterization encode buffer, reused across lines
}

func newCharacterizer(opts Options) *characterizer {
	c := &characterizer{}
	if opts.Characterize {
		c.codecs = comp.AllCompressors()
		c.per = make(map[comp.Algorithm]*CodecStats, len(c.codecs))
		for _, codec := range c.codecs {
			c.per[codec.Algorithm()] = &CodecStats{}
		}
	}
	if opts.SeriesLimit > 0 {
		c.series = stats.NewSeries(opts.SeriesLimit)
	}
	return c
}

func (c *characterizer) Payload(line []byte, _ core.Decision) {
	if len(line) != comp.LineSize {
		return
	}
	for _, codec := range c.codecs {
		// Characterization needs sizes and pattern histograms but never
		// ships the encoding, so the bitstream lands in a reused buffer.
		enc := codec.CompressInto(c.scratch[:0], line)
		c.scratch = enc.Data
		cs := c.per[codec.Algorithm()]
		cs.CompressedBytes += uint64(enc.WireBytes())
		cs.Patterns.Add(enc.Patterns)
	}
	if c.series != nil {
		c.series.Observe(line)
	}
}

// Run executes the named workload under the options and returns the result.
func Run(abbrev string, opts Options) (*Result, error) {
	if opts.Scale == 0 {
		opts.Scale = workloads.ScaleSmall
	}
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("runner: %s: %w", abbrev, err)
	}
	w, err := workloads.ByAbbrev(abbrev, opts.Scale)
	if err != nil {
		return nil, err
	}
	if opts.Seed != 0 {
		if s, ok := w.(workloads.Seeder); ok {
			s.SetSeed(opts.Seed)
		}
	}

	cfg := opts.platformConfig()
	var traceLog *trace.Log
	if opts.Trace {
		traceLog = &trace.Log{Cap: 1 << 20}
		cfg.Fabric.Trace = traceLog
	}
	var char *characterizer
	if opts.Characterize || opts.SeriesLimit > 0 {
		char = newCharacterizer(opts)
		cfg.Recorder = char
	}
	if opts.Fault.Enabled() {
		// Faults must be a pure function of the job fingerprint: reuse the
		// workload seed, with a fixed fallback when the run keeps the
		// default input streams.
		cfg.FaultSeed = opts.Seed
		if cfg.FaultSeed == 0 {
			cfg.FaultSeed = 0x6d677075 // "mgpu"
		}
	}
	if opts.Adaptive != nil {
		acfg := *opts.Adaptive
		cfg.NewPolicy = func(int) core.Policy { return core.NewAdaptive(acfg) }
	} else if opts.Policy != core.PolicyNone {
		// Validate already vetted the ID; the factory cannot fail per
		// endpoint.
		newPolicy, err := core.PolicyFactory(opts.Policy, opts.Lambda)
		if err != nil {
			return nil, fmt.Errorf("runner: %s: %w", abbrev, err)
		}
		cfg.NewPolicy = func(int) core.Policy { return newPolicy() }
	}
	p, _ := platform.Build(cfg)

	stage := func(name string, fn func(*platform.Platform) error) error {
		start := p.Engine.Now()
		err := fn(p)
		p.Spans.Record(trace.Span{
			Track: "workload", Name: name, Cat: "stage",
			Start: start, End: p.Engine.Now(),
		})
		return err
	}
	if err := stage("setup", w.Setup); err != nil {
		return nil, fmt.Errorf("runner: %s setup: %w", abbrev, err)
	}
	if err := stage("run", w.Run); err != nil {
		return nil, fmt.Errorf("runner: %s run: %w", abbrev, err)
	}
	if err := stage("verify", w.Verify); err != nil {
		return nil, fmt.Errorf("runner: %s verify: %w", abbrev, err)
	}
	p.FinishTrace()

	m := &Result{
		Workload:      abbrev,
		Policy:        opts.Policy.String(),
		ExecCycles:    uint64(p.ExecCycles()),
		FabricBytes:   p.Bus.TotalBytes(),
		Traffic:       p.Traffic(),
		CodecEnergyPJ: p.CodecEnergyPJ(),
	}
	if char != nil {
		m.PerCodec, m.Series = char.per, char.series
		// The run-end check drains stale traffic; the observer stops here,
		// so the result keeps what the run itself transferred.
		char.codecs, char.series = nil, nil
	}
	m.FabricEnergyPJ = p.Bus.EnergyPJ()
	for _, dev := range p.GPUs {
		m.ReadLatency.Merge(&dev.RDMA.ReadLatency)
	}
	m.ReadLatency.Merge(&p.HostRDMA.ReadLatency)
	// One snapshot feeds every aggregate view, so the journal, the stats
	// report and a -metrics-out file can never disagree.
	m.Snapshot = p.Metrics.Snapshot()

	// The run-end check drains stale traffic, which still feeds the live
	// recorders; the result keeps what the run itself recorded.
	m.TraceLog, m.Spans = traceLog.Clone(), p.Spans.Clone()
	if err := p.CheckQuiescent(); err != nil {
		return nil, fmt.Errorf("runner: %s: %w", abbrev, err)
	}
	return m, nil
}

// PolicyNames lists the policy specs in the order Figs. 5-7 present them.
func PolicyNames() []string { return []string{"none", "fpc", "bdi", "cpackz"} }

// Benchmarks lists the Table IV abbreviations in paper order.
func Benchmarks() []string {
	return []string{"AES", "BS", "FIR", "GD", "KM", "MT", "SC"}
}
