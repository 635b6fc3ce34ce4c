// Package platform assembles the full simulated system of Fig. 3: four
// R9 Nano-class GPUs (compute units, private L1 vector caches, eight L2
// banks and eight DRAM channels each, and an RDMA engine) around a shared
// PCIe-like bus fabric, plus the host driver and its own RDMA engine for
// kernel argument traffic.
package platform

import (
	"errors"
	"fmt"

	"mgpucompress/internal/cache"
	"mgpucompress/internal/comp"
	"mgpucompress/internal/core"
	"mgpucompress/internal/energy"
	"mgpucompress/internal/fabric"
	"mgpucompress/internal/fault"
	"mgpucompress/internal/gpu"
	"mgpucompress/internal/mem"
	"mgpucompress/internal/metrics"
	"mgpucompress/internal/rdma"
	"mgpucompress/internal/sim"
	"mgpucompress/internal/trace"
)

// Config parameterizes the platform. Zero fields take Table VII defaults at
// a reduced test scale (4 CUs per GPU); set CUsPerGPU to 64 for the paper's
// full R9 Nano scale.
type Config struct {
	NumGPUs   int
	CUsPerGPU int
	// L2Banks is the number of L2 banks and DRAM channels per GPU.
	L2Banks int
	CU      gpu.CUConfig
	L1      cache.Config
	L2      cache.Config
	DRAM    mem.DRAMConfig
	Fabric  fabric.Config
	// NewPolicy builds the compression policy for each compressing
	// endpoint: GPUs 0..NumGPUs-1 and the host (index NumGPUs). Nil means
	// no compression anywhere.
	NewPolicy func(unit int) core.Policy
	// NewRecorder builds the RDMA traffic observer for each compressing
	// endpoint (same unit numbering as NewPolicy). Each unit's recorder is
	// only ever invoked from that unit's partition and sees that unit's
	// transfers in simulated order; merge them in unit order after the run
	// for a deterministic total. Nil means no recording.
	NewRecorder func(unit int) rdma.Recorder
	// ArgBufferBytes sizes the per-GPU kernel-argument buffer.
	ArgBufferBytes uint64
	// RemoteCache, when non-nil, inserts a per-GPU cache for REMOTE data
	// between the L1s and the RDMA engine — the "new cache level for
	// remote data" of Arunkumar et al.'s MCM-GPU design, which the paper
	// discusses as related work. It is invalidated at kernel boundaries
	// like the L1s. Nil (the default) reproduces the paper's system,
	// which does not cache remote data.
	RemoteCache *cache.Config
	// Metrics is the registry every component registers into at
	// construction. Nil means the platform creates a private one, so
	// CollectStats always works.
	Metrics *metrics.Registry
	// Spans, when non-nil, receives kernel launches and adaptive
	// controller phases as trace spans.
	Spans *trace.Recorder
	// Fault is the fault-injection profile. When enabled, the fabric
	// injects faults into RDMA wire traffic, every RDMA engine runs the
	// CRC/NACK/retry guard, adaptive controllers degrade on repeated
	// integrity failures, and the fault/guard metric paths are registered.
	// The zero profile leaves the platform byte-identical to a build
	// without the fault layer.
	Fault fault.Profile
	// FaultSeed seeds the injector's per-link PRNG streams (sweep-derived,
	// never wall clock).
	FaultSeed int64
}

// RemoteCacheConfig returns a reasonable L1.5 geometry for the extension:
// 128 KB, 8-way per GPU.
func RemoteCacheConfig() cache.Config {
	return cache.Config{
		SizeBytes:       128 * 1024,
		Ways:            8,
		LineSize:        mem.LineSize,
		HitLatency:      8,
		IssueWidth:      4,
		MaxMSHR:         32,
		PortBufferBytes: 8 * 1024,
	}
}

// DefaultConfig returns the test-scale configuration.
func DefaultConfig() Config {
	return Config{
		NumGPUs:        4,
		CUsPerGPU:      4,
		L2Banks:        mem.ChannelsPerPU,
		CU:             gpu.DefaultCUConfig(),
		L1:             cache.L1Config(),
		L2:             cache.L2Config(),
		DRAM:           mem.DefaultDRAMConfig(),
		Fabric:         fabric.DefaultConfig(),
		ArgBufferBytes: 4096,
	}
}

// FullConfig returns the paper-scale configuration (64 CUs per GPU).
func FullConfig() Config {
	cfg := DefaultConfig()
	cfg.CUsPerGPU = 64
	return cfg
}

// Device groups one GPU's components.
type Device struct {
	Index int
	CUs   []*gpu.CU
	L1s   []*cache.Cache
	L2s   []*cache.Cache
	DRAMs []*mem.DRAM
	RDMA  *rdma.Engine
	CP    *gpu.CommandProcessor
	// RemoteCache is the optional L1.5 for remote data (nil when the
	// platform reproduces the paper's configuration).
	RemoteCache *cache.Cache
}

// Partitions is the typed partition map of a built platform: one partition
// per GPU plus the hub. The engine advances them window by window; all
// cross-partition traffic rides the fabric links, whose latency bounds each
// window.
type Partitions struct {
	// GPUs[g] hosts GPU g's CUs, caches, DRAM channels, RDMA engine and
	// command processor.
	GPUs []*sim.Partition
	// Hub hosts the shared side: the fabric arbiter, the host driver and
	// the host RDMA engine.
	Hub *sim.Partition
}

// Platform is the assembled multi-GPU system.
type Platform struct {
	Engine   *sim.Engine
	Parts    Partitions
	Space    *mem.Space
	Bus      fabric.Fabric
	Driver   *gpu.Driver
	HostRDMA *rdma.Engine
	GPUs     []*Device
	// Metrics is the registry holding every component's counters; it is
	// never nil after New.
	Metrics *metrics.Registry
	// Spans is the trace recorder handed in via Config (nil when tracing
	// is off).
	Spans  *trace.Recorder
	phases []*phaseTracker
	// seenPolicies dedupes instrumentation when Config.NewPolicy hands the
	// same controller instance to several endpoints (the adaptive-global
	// policy): a shared controller is registered once, under the first
	// unit's prefix, instead of once per endpoint.
	seenPolicies map[core.Policy]bool
	cfg          Config
}

// phaseTracker turns a controller's phase-transition callbacks into
// contiguous spans on one timeline track. It reads time from the unit's
// own partition: transitions fire inside that partition's event handlers.
type phaseTracker struct {
	part  *sim.Partition
	spans *trace.Recorder
	track string
	start sim.Time
	name  string
}

func (t *phaseTracker) transition(sampling bool, selected comp.Algorithm) {
	now := t.part.Now()
	t.close(now)
	t.start = now
	if sampling {
		t.name = "sampling"
	} else {
		t.name = "run:" + selected.String()
	}
}

func (t *phaseTracker) close(now sim.Time) {
	if t.name != "" && now > t.start {
		t.spans.Record(trace.Span{
			Track: t.track, Name: t.name, Cat: "phase",
			Start: t.start, End: now,
		})
	}
}

// FinishTrace closes the still-open controller phase spans at the current
// simulated time. Call it once, after the last kernel completes and before
// exporting the trace.
func (p *Platform) FinishTrace() {
	now := p.Engine.Now()
	for _, t := range p.phases {
		t.close(now)
		t.name = ""
	}
}

// partitionOf returns the partition hosting compressing endpoint unit:
// GPU partitions for 0..NumGPUs-1, the hub for the host (index NumGPUs).
func (p *Platform) partitionOf(unit int) *sim.Partition {
	if unit == p.cfg.NumGPUs {
		return p.Parts.Hub
	}
	return p.Parts.GPUs[unit]
}

// instrumentPolicy registers an adaptive controller's metrics under
// ctrl<unit> and, when tracing, tracks its phases as spans.
func (p *Platform) instrumentPolicy(unit int, pol core.Policy) {
	type registrar interface {
		RegisterMetrics(*metrics.Registry, string)
	}
	type hooked interface {
		SetPhaseHook(core.PhaseHook)
	}
	prefix := fmt.Sprintf("ctrl%d", unit)
	if r, ok := pol.(registrar); ok {
		if p.seenPolicies == nil {
			p.seenPolicies = make(map[core.Policy]bool)
		}
		if p.seenPolicies[pol] {
			return // shared controller, already instrumented
		}
		p.seenPolicies[pol] = true
		r.RegisterMetrics(p.Metrics, prefix)
	}
	if p.cfg.Fault.Enabled() {
		type integrity interface {
			RegisterIntegrityMetrics(*metrics.Registry, string)
		}
		if ir, ok := pol.(integrity); ok {
			ir.RegisterIntegrityMetrics(p.Metrics, prefix)
		}
		if dk, ok := pol.(interface{ SetDegradeK(int) }); ok {
			dk.SetDegradeK(p.cfg.Fault.Degrade())
		}
	}
	if h, ok := pol.(hooked); ok && p.Spans != nil {
		t := &phaseTracker{
			part:  p.partitionOf(unit),
			spans: p.Spans,
			track: prefix,
			name:  "sampling", // adaptive controllers start sampling at t=0
		}
		p.phases = append(p.phases, t)
		h.SetPhaseHook(t.transition)
	}
}

// Build constructs and wires the platform, returning it together with its
// typed partition map. Each GPU's components live on their own partition;
// the fabric, driver and host RDMA share the hub partition.
func Build(cfg Config) (*Platform, Partitions) {
	base := DefaultConfig()
	if cfg.NumGPUs == 0 {
		cfg.NumGPUs = base.NumGPUs
	}
	if cfg.CUsPerGPU == 0 {
		cfg.CUsPerGPU = base.CUsPerGPU
	}
	if cfg.L2Banks == 0 {
		cfg.L2Banks = base.L2Banks
	}
	if cfg.CU.IssueWidth == 0 {
		cfg.CU = base.CU
	}
	if cfg.L1.SizeBytes == 0 {
		cfg.L1 = base.L1
	}
	if cfg.L2.SizeBytes == 0 {
		cfg.L2 = base.L2
	}
	if cfg.DRAM.AccessLatency == 0 {
		cfg.DRAM = base.DRAM
	}
	// Fabric defaults are per-field: the old wholesale fallback silently
	// replaced a partially-set Config (losing, say, a Topology choice made
	// without a BytesPerCycle override). Anything still invalid after
	// defaulting is rejected by Validate below instead of being normalized
	// away.
	if cfg.Fabric.BytesPerCycle == 0 {
		cfg.Fabric.BytesPerCycle = base.Fabric.BytesPerCycle
	}
	if cfg.Fabric.OutBufferBytes == 0 {
		cfg.Fabric.OutBufferBytes = base.Fabric.OutBufferBytes
	}
	if cfg.Fabric.LinkLatency == 0 {
		cfg.Fabric.LinkLatency = base.Fabric.LinkLatency
	}
	if cfg.Fabric.Topology == "" {
		cfg.Fabric.Topology = base.Fabric.Topology
	}
	if cfg.Fabric.BaseClass == energy.OnChip {
		// The zero value selects the paper's MCM fabric (Sec. VII-B).
		cfg.Fabric.BaseClass = base.Fabric.BaseClass
	}
	if cfg.ArgBufferBytes == 0 {
		cfg.ArgBufferBytes = base.ArgBufferBytes
	}
	if cfg.NewRecorder == nil {
		cfg.NewRecorder = func(int) rdma.Recorder { return rdma.NopRecorder{} }
	}
	// The switched topologies size their switch graph from the GPU count;
	// the fabric maps owner-partition indices 0..NumGPUs-1 to GPU nodes and
	// the hub partition to the host switch, so Nodes always mirrors NumGPUs.
	cfg.Fabric.Nodes = cfg.NumGPUs
	if err := cfg.Fabric.Validate(); err != nil {
		// User-facing layers (runner.Options.Validate, the CLIs) reject bad
		// shapes with an error first; reaching Build with one is a wiring
		// bug.
		panic(fmt.Sprintf("platform: %v", err))
	}

	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}

	// Fault layer: one injector shared by the fabric, guards on every RDMA
	// engine, and the fault/* metric paths — all strictly gated on an
	// enabled profile so that fault-free runs keep byte-identical
	// snapshots.
	var injector *fault.Injector
	if cfg.Fault.Enabled() {
		injector = fault.NewInjector(cfg.Fault, cfg.FaultSeed)
		cfg.Fabric.Fault = injector
	}

	p := &Platform{
		Engine:  sim.NewEngine(sim.WithPartitions(cfg.NumGPUs + 1)),
		Metrics: cfg.Metrics,
		Spans:   cfg.Spans,
		cfg:     cfg,
	}
	for g := 0; g < cfg.NumGPUs; g++ {
		p.Parts.GPUs = append(p.Parts.GPUs, p.Engine.Partition(g))
	}
	p.Parts.Hub = p.Engine.Partition(cfg.NumGPUs)
	p.Space = mem.NewSpace(cfg.NumGPUs)
	p.Bus = fabric.New("Fabric", p.Parts.Hub, cfg.Fabric)
	if injector != nil {
		injector.RegisterMetrics(p.Metrics, "fault")
	}
	p.Driver = gpu.NewDriver("Driver", p.Parts.Hub, p.Space)
	p.Driver.Spans = cfg.Spans

	p.Engine.RegisterMetrics(p.Metrics, "sim")
	p.Bus.RegisterMetrics(p.Metrics, "fabric")
	p.Driver.RegisterMetrics(p.Metrics, "driver")

	policy := func(unit int) core.Policy {
		var pol core.Policy = core.Uncompressed{}
		if cfg.NewPolicy != nil {
			pol = cfg.NewPolicy(unit)
		}
		p.instrumentPolicy(unit, pol)
		return pol
	}

	// Host RDMA: carries the driver's kernel-argument writes.
	p.HostRDMA = rdma.New("Host.RDMA", p.Parts.Hub, cfg.NumGPUs,
		policy(cfg.NumGPUs), cfg.NewRecorder(cfg.NumGPUs))
	p.HostRDMA.OwnerOf = p.Space.GPUOf
	p.HostRDMA.L2Router = func(addr uint64) *sim.Port {
		panic(fmt.Sprintf("platform: request for address %#x routed into the host", addr))
	}
	p.HostRDMA.RegisterMetrics(p.Metrics, "host/rdma")
	p.enableGuard(p.HostRDMA, "host/rdma")

	for g := 0; g < cfg.NumGPUs; g++ {
		p.GPUs = append(p.GPUs, p.buildGPU(g, policy(g)))
	}

	// RemotePort directories.
	remote := func(unit int) *sim.Port {
		if unit == cfg.NumGPUs {
			return p.HostRDMA.ToFabric
		}
		return p.GPUs[unit].RDMA.ToFabric
	}
	p.HostRDMA.RemotePort = remote
	for _, dev := range p.GPUs {
		dev.RDMA.RemotePort = remote
	}

	// Bus endpoints: per paper, the CPU and GPUs arbitrate round-robin.
	// Attach order fixes the fabric's round-robin order, so it is part of
	// the deterministic schedule.
	p.Bus.Attach(p.HostRDMA.ToFabric, p.Parts.Hub)
	p.Bus.Attach(p.Driver.Ctrl, p.Parts.Hub)
	for _, dev := range p.GPUs {
		p.Bus.Attach(dev.RDMA.ToFabric, p.Parts.GPUs[dev.Index])
		p.Bus.Attach(dev.CP.ToFabric, p.Parts.GPUs[dev.Index])
	}

	// Driver wiring.
	hostConn := sim.NewDirectConnection("Host.conn", p.Parts.Hub, 1)
	hostConn.Plug(p.Driver.ToRDMA)
	hostConn.Plug(p.HostRDMA.ToL1)
	p.Driver.RDMAPort = p.HostRDMA.ToL1
	for _, dev := range p.GPUs {
		p.Driver.CPPorts = append(p.Driver.CPPorts, dev.CP.ToFabric)
		p.Driver.ArgBuffers = append(p.Driver.ArgBuffers,
			p.Space.AllocOnGPU(dev.Index, cfg.ArgBufferBytes))
	}
	p.Driver.InvalidateL1s = func() {
		for _, dev := range p.GPUs {
			for _, l1 := range dev.L1s {
				l1.Invalidate()
			}
			if dev.RemoteCache != nil {
				dev.RemoteCache.Invalidate()
			}
		}
	}
	return p, p.Parts
}

func (p *Platform) buildGPU(g int, policy core.Policy) *Device {
	cfg := p.cfg
	part := p.Parts.GPUs[g]
	name := fmt.Sprintf("GPU%d", g)
	// mpfx is the GPU's metric-path prefix ("gpu0", "gpu1", ...).
	mpfx := fmt.Sprintf("gpu%d", g)
	dev := &Device{Index: g}

	dev.RDMA = rdma.New(name+".RDMA", part, g, policy, cfg.NewRecorder(g))
	dev.RDMA.OwnerOf = p.Space.GPUOf
	dev.RDMA.RegisterMetrics(p.Metrics, mpfx+"/rdma")
	p.enableGuard(dev.RDMA, mpfx+"/rdma")

	// DRAM channels and L2 banks.
	dramConn := sim.NewDirectConnection(name+".dram", part, 2)
	for ch := 0; ch < cfg.L2Banks; ch++ {
		d := mem.NewDRAM(fmt.Sprintf("%s.DRAM%d", name, ch), part, p.Space, cfg.DRAM)
		d.RegisterMetrics(p.Metrics, fmt.Sprintf("%s/dram_%d", mpfx, ch))
		dev.DRAMs = append(dev.DRAMs, d)
		l2 := cache.New(fmt.Sprintf("%s.L2_%d", name, ch), part, p.Space, cfg.L2)
		l2.RegisterMetrics(p.Metrics, fmt.Sprintf("%s/l2_%d", mpfx, ch))
		dev.L2s = append(dev.L2s, l2)
		dramConn.Plug(l2.Bottom)
		dramConn.Plug(d.Top)
		dramTop := d.Top
		l2.Router = func(uint64) *sim.Port { return dramTop }
	}

	// Intra-GPU crossbar: L1 bottoms, L2 tops, and the RDMA's two local
	// ports.
	xbar := sim.NewDirectConnection(name+".xbar", part, 3)
	for _, l2 := range dev.L2s {
		xbar.Plug(l2.Top)
	}
	xbar.Plug(dev.RDMA.ToL1)
	xbar.Plug(dev.RDMA.ToL2)
	dev.RDMA.L2Router = func(addr uint64) *sim.Port {
		return dev.L2s[p.Space.ChannelOf(addr)].Top
	}

	// Optional remote cache (L1.5) between the L1s and the RDMA engine.
	// Its top and bottom ports both live on the intra-GPU crossbar: L1s
	// route remote addresses to rc.Top, and rc misses go to the RDMA.
	remotePort := dev.RDMA.ToL1
	if cfg.RemoteCache != nil {
		rcCfg := *cfg.RemoteCache
		rcCfg.Cacheable = func(addr uint64) bool { return p.Space.GPUOf(addr) != g }
		rc := cache.New(name+".L1_5", part, p.Space, rcCfg)
		// Metric path "l15", not "l1_5": keeps the remote cache out of the
		// "l1_*" glob that aggregates the per-CU L1s.
		rc.RegisterMetrics(p.Metrics, mpfx+"/l15")
		rc.Router = func(uint64) *sim.Port { return dev.RDMA.ToL1 }
		xbar.Plug(rc.Top)
		xbar.Plug(rc.Bottom)
		dev.RemoteCache = rc
		remotePort = rc.Top
	}

	// CUs and their private L1 vector caches.
	cuConn := sim.NewDirectConnection(name+".cu", part, 1)
	l1cfg := cfg.L1
	l1cfg.Cacheable = func(addr uint64) bool { return p.Space.GPUOf(addr) == g }
	for i := 0; i < cfg.CUsPerGPU; i++ {
		l1 := cache.New(fmt.Sprintf("%s.L1_%d", name, i), part, p.Space, l1cfg)
		l1.RegisterMetrics(p.Metrics, fmt.Sprintf("%s/l1_%d", mpfx, i))
		l1.Router = func(addr uint64) *sim.Port {
			if p.Space.GPUOf(addr) == g {
				return dev.L2s[p.Space.ChannelOf(addr)].Top
			}
			return remotePort
		}
		xbar.Plug(l1.Bottom)
		cu := gpu.NewCU(fmt.Sprintf("%s.CU%d", name, i), part, cfg.CU)
		cu.RegisterMetrics(p.Metrics, fmt.Sprintf("%s/cu_%d", mpfx, i))
		cuConn.Plug(cu.ToL1)
		cuConn.Plug(l1.Top)
		cu.SetL1(l1.Top)
		dev.CUs = append(dev.CUs, cu)
		dev.L1s = append(dev.L1s, l1)
	}

	dev.CP = gpu.NewCommandProcessor(name+".CP", part, g)
	dev.CP.CUs = dev.CUs
	return dev
}

// enableGuard arms one RDMA engine's reliability protocol when the fault
// profile is on, and registers its guard counters under prefix.
func (p *Platform) enableGuard(e *rdma.Engine, prefix string) {
	if !p.cfg.Fault.Enabled() {
		return
	}
	e.Guard = &rdma.GuardConfig{
		TimeoutCycles: sim.Time(p.cfg.Fault.Timeout()),
		MaxAttempts:   p.cfg.Fault.Attempts(),
	}
	e.Spans = p.cfg.Spans
	e.RegisterGuardMetrics(p.Metrics, prefix)
}

// TotalCUs returns the number of CUs across all GPUs.
func (p *Platform) TotalCUs() int {
	n := 0
	for _, dev := range p.GPUs {
		n += len(dev.CUs)
	}
	return n
}

// ExecCycles returns the current simulated time, i.e. the execution time in
// cycles at 1 GHz.
func (p *Platform) ExecCycles() sim.Time { return p.Engine.Now() }

// CheckQuiescent proves that a finished run ended well-formed. It first
// drains the traffic still queued when the last kernel completed (stale
// timeouts and duplicate requests and responses of the fault path), then
// checks that every memory message was released exactly once and that no
// cache, CU, DRAM channel or RDMA engine still tracks a request. Draining
// moves counters and feeds the trace recorders, so take the run's snapshot,
// trace and results first. The check reads state and registers nothing.
func (p *Platform) CheckQuiescent() error {
	if err := p.Engine.Run(); err != nil {
		return fmt.Errorf("platform: draining stale traffic: %w", err)
	}
	var errs []error // errors.Join drops the nil ones
	for g, part := range p.Parts.GPUs {
		if err := mem.PoolOf(part).CheckQuiescent(); err != nil {
			errs = append(errs, fmt.Errorf("GPU%d messages: %w", g, err))
		}
	}
	if err := mem.PoolOf(p.Parts.Hub).CheckQuiescent(); err != nil {
		errs = append(errs, fmt.Errorf("hub messages: %w", err))
	}
	for _, dev := range p.GPUs {
		for _, cu := range dev.CUs {
			errs = append(errs, cu.CheckQuiescent())
		}
		for _, c := range dev.L1s {
			errs = append(errs, c.CheckQuiescent())
		}
		if dev.RemoteCache != nil {
			errs = append(errs, dev.RemoteCache.CheckQuiescent())
		}
		for _, c := range dev.L2s {
			errs = append(errs, c.CheckQuiescent())
		}
		for _, d := range dev.DRAMs {
			errs = append(errs, d.CheckQuiescent())
		}
		errs = append(errs, dev.RDMA.CheckQuiescent())
	}
	errs = append(errs, p.HostRDMA.CheckQuiescent())
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("platform: run did not end quiescent: %w", err)
	}
	return nil
}
