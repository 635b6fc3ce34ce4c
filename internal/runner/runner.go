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
	"mgpucompress/internal/rdma"
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
	if o.CUsPerGPU < 0 {
		return fmt.Errorf("negative CUs per GPU %d", o.CUsPerGPU)
	}
	if o.NumGPUs != 0 && o.NumGPUs < 2 {
		return fmt.Errorf("NumGPUs = %d: a multi-GPU system needs at least 2", o.NumGPUs)
	}
	if o.SeriesLimit < 0 {
		return fmt.Errorf("negative series limit %d", o.SeriesLimit)
	}
	if o.FabricBytesPerCycle < 0 {
		return fmt.Errorf("negative fabric bytes/cycle %d", o.FabricBytesPerCycle)
	}
	switch o.Topology {
	case "", fabric.TopologyBus, fabric.TopologyCrossbar, fabric.TopologyRing, fabric.TopologyTree:
	case fabric.TopologyMesh:
		n := o.NumGPUs
		if n == 0 {
			n = platform.DefaultConfig().NumGPUs
		}
		if _, _, err := fabric.MeshDims(n); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown topology %q", o.Topology)
	}
	if o.Link < energy.OnChip || o.Link > energy.Node {
		return fmt.Errorf("invalid link class %d", o.Link)
	}
	if o.Adaptive != nil && o.Policy != core.PolicyNone && o.Policy != core.PolicyAdaptive {
		return fmt.Errorf("Adaptive config conflicts with policy %v", o.Policy)
	}
	if o.Adaptive != nil {
		if err := core.ValidateLambda(o.Adaptive.Lambda); err != nil {
			return fmt.Errorf("Adaptive config: %w", err)
		}
	}
	if err := o.Fault.Validate(); err != nil {
		return fmt.Errorf("fault profile: %w", err)
	}
	return nil
}

// CodecStats aggregates one codec's behaviour over all transferred lines.
type CodecStats struct {
	CompressedBytes uint64                `json:"compressed_bytes"`
	Patterns        comp.PatternHistogram `json:"patterns"`
}

// Result is the outcome of one run: the paper-facing measurements, the
// aggregated platform counters, and the full metrics snapshot they are
// views over.
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

	// Platform holds the aggregated hardware counters of the run.
	Platform platform.Stats `json:"platform"`

	// Snapshot is the full metric registry at end of run, sorted by path.
	// Platform (and every other aggregate) is derived from it.
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

// recorder implements rdma.Recorder for one compressing endpoint. Each
// unit gets its own shard, touched only from that unit's partition.
type recorder struct {
	codecs  []comp.Compressor
	traffic stats.Traffic
	energy  float64
	per     map[comp.Algorithm]*CodecStats
	series  *stats.Series
	scratch []byte // characterization encode buffer, reused across lines
}

// recorderSet is the run's traffic accounting, one recorder per
// compressing endpoint. Totals are folded in unit order: the simulation
// runs on one goroutine, so determinism does not need that order, but it
// fixes the float bits of the energy and entropy sums that the metric
// snapshot pins.
type recorderSet struct {
	shards []*recorder
}

func newRecorderSet(opts Options, units int) *recorderSet {
	s := &recorderSet{}
	// SeriesLimit captures the run's transfer stream in execution order, so
	// every shard feeds one shared series sink.
	var series *stats.Series
	if opts.SeriesLimit > 0 {
		series = stats.NewSeries(opts.SeriesLimit)
	}
	for u := 0; u < units; u++ {
		r := &recorder{per: make(map[comp.Algorithm]*CodecStats), series: series}
		if opts.Characterize {
			r.codecs = comp.AllCompressors()
			for _, c := range r.codecs {
				r.per[c.Algorithm()] = &CodecStats{}
			}
		}
		s.shards = append(s.shards, r)
	}
	return s
}

// forUnit hands out the unit's shard to the platform.
func (s *recorderSet) forUnit(unit int) *recorder { return s.shards[unit] }

// traffic merges the shards' traffic accounting in unit order.
func (s *recorderSet) trafficTotal() stats.Traffic {
	var t stats.Traffic
	for _, r := range s.shards {
		t.Merge(&r.traffic)
	}
	return t
}

// energyTotal merges codec energy in unit order (float sum: the fixed
// order keeps it deterministic).
func (s *recorderSet) energyTotal() float64 {
	e := 0.0
	for _, r := range s.shards {
		e += r.energy
	}
	return e
}

// perTotal merges the characterization results in unit order.
func (s *recorderSet) perTotal() map[comp.Algorithm]*CodecStats {
	total := make(map[comp.Algorithm]*CodecStats)
	for _, r := range s.shards {
		for alg, cs := range r.per {
			t, ok := total[alg]
			if !ok {
				t = &CodecStats{}
				total[alg] = t
			}
			t.CompressedBytes += cs.CompressedBytes
			t.Patterns.Add(cs.Patterns)
		}
	}
	return total
}

func (s *recorderSet) series() *stats.Series { return s.shards[0].series }

// registerMetrics publishes the merged traffic accounting under
// "traffic/*" so the snapshot carries the paper's Table V quantities.
// Snapshots are taken after the run, so the lazy merge is race-free.
func (s *recorderSet) registerMetrics(reg *metrics.Registry) {
	reg.CounterFunc("traffic/remote_reads", func() uint64 { return s.trafficTotal().RemoteReads })
	reg.CounterFunc("traffic/remote_writes", func() uint64 { return s.trafficTotal().RemoteWrites })
	reg.CounterFunc("traffic/header_bytes", func() uint64 { return s.trafficTotal().HeaderBytes })
	reg.CounterFunc("traffic/payload_bytes", func() uint64 { return s.trafficTotal().PayloadBytes })
	reg.CounterFunc("traffic/uncompressed_payload_bytes", func() uint64 { return s.trafficTotal().UncompressedPayloadBytes })
	reg.CounterFunc("traffic/messages", func() uint64 { return s.trafficTotal().Messages })
}

func (r *recorder) RemoteRead(int)  { r.traffic.RemoteReads++ }
func (r *recorder) RemoteWrite(int) { r.traffic.RemoteWrites++ }
func (r *recorder) Header(n int)    { r.traffic.HeaderBytes += uint64(n) }

func (r *recorder) Payload(line []byte, d core.Decision) {
	r.traffic.AddLine(line, d.WireBytes(), d.Alg != comp.None)
	r.energy += d.CodecEnergyPJ
	if len(line) == comp.LineSize {
		for _, c := range r.codecs {
			// Characterization needs sizes and pattern histograms but never
			// ships the encoding, so the bitstream lands in a reused buffer.
			enc := c.CompressInto(r.scratch[:0], line)
			r.scratch = enc.Data
			cs := r.per[c.Algorithm()]
			cs.CompressedBytes += uint64(enc.WireBytes())
			cs.Patterns.Add(enc.Patterns)
		}
		if r.series != nil {
			r.series.Observe(line)
		}
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

	reg := metrics.NewRegistry()
	spans := &trace.Recorder{}

	link := opts.Link
	if link == energy.OnChip {
		// The zero value selects the paper's MCM fabric (Sec. VII-B).
		link = energy.MCM
	}

	cfg := platform.DefaultConfig()
	cfg.Metrics = reg
	cfg.Spans = spans
	if opts.CUsPerGPU > 0 {
		cfg.CUsPerGPU = opts.CUsPerGPU
	}
	if opts.Topology != "" {
		cfg.Fabric.Topology = opts.Topology
	}
	// The fabric prices endpoint links (and, on the single-hop fabrics,
	// every transfer) at the selected class; switched topologies layer
	// board/node tiers on their long hops via Fabric.EnergyPJ.
	cfg.Fabric.BaseClass = link
	if opts.RemoteCache {
		rc := platform.RemoteCacheConfig()
		cfg.RemoteCache = &rc
	}
	if opts.NumGPUs > 0 {
		cfg.NumGPUs = opts.NumGPUs
	}
	if opts.FabricBytesPerCycle > 0 {
		cfg.Fabric.BytesPerCycle = opts.FabricBytesPerCycle
	}
	var traceLog *trace.Log
	if opts.Trace {
		traceLog = &trace.Log{Cap: 1 << 20}
		cfg.Fabric.Trace = traceLog
	}
	recs := newRecorderSet(opts, cfg.NumGPUs+1)
	recs.registerMetrics(reg)
	cfg.NewRecorder = func(unit int) rdma.Recorder { return recs.forUnit(unit) }
	if opts.Fault.Enabled() {
		cfg.Fault = opts.Fault
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

	// Lazily evaluated at snapshot time, after the run has accumulated. The
	// fabric owns the accounting: single-hop fabrics price TotalBytes at the
	// base class (bit-identical to the pre-topology arithmetic), switched
	// ones sum per-hop, per-class bytes.
	reg.GaugeFunc("energy/fabric_pj", p.Bus.EnergyPJ)
	reg.GaugeFunc("energy/codec_pj", func() float64 { return recs.energyTotal() })

	stage := func(name string, fn func(*platform.Platform) error) error {
		start := p.Engine.Now()
		err := fn(p)
		spans.Record(trace.Span{
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
		Traffic:       recs.trafficTotal(),
		CodecEnergyPJ: recs.energyTotal(),
		PerCodec:      recs.perTotal(),
		Series:        recs.series(),
		TraceLog:      traceLog,
		Spans:         spans,
	}
	m.FabricEnergyPJ = p.Bus.EnergyPJ()
	for _, dev := range p.GPUs {
		m.ReadLatency.Merge(&dev.RDMA.ReadLatency)
	}
	m.ReadLatency.Merge(&p.HostRDMA.ReadLatency)
	// One snapshot feeds every aggregate view, so the journal, the stats
	// report and a -metrics-out file can never disagree.
	m.Snapshot = reg.Snapshot()
	m.Platform = platform.StatsFromSnapshot(m.Snapshot)

	// The run-end check drains stale traffic, which still feeds the live
	// recorders; the result keeps what the run itself recorded.
	m.TraceLog, m.Spans = traceLog.Clone(), spans.Clone()
	if m.Series != nil {
		series := *m.Series
		m.Series = &series
	}
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
