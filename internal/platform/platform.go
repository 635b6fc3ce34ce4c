// Package platform assembles the full simulated system of Fig. 3: a
// configurable number of R9 Nano-class GPUs (compute units, private L1
// vector caches, eight L2 banks and eight DRAM channels each, and an RDMA
// engine) on a configurable inter-GPU fabric (the paper's shared PCIe-like
// bus by default), plus the host driver and its own RDMA engine for kernel
// argument traffic. The Table VII geometry of each GPU is constants Build
// reads; Config holds only what callers vary.
package platform

import (
	"errors"
	"fmt"

	"mgpucompress/internal/cache"
	"mgpucompress/internal/comp"
	"mgpucompress/internal/core"
	"mgpucompress/internal/fabric"
	"mgpucompress/internal/fault"
	"mgpucompress/internal/gpu"
	"mgpucompress/internal/mem"
	"mgpucompress/internal/metrics"
	"mgpucompress/internal/rdma"
	"mgpucompress/internal/sim"
	"mgpucompress/internal/stats"
	"mgpucompress/internal/trace"
)

// Config holds what callers vary about the platform: the GPU and CU counts,
// the fabric, the compression policy, the L1.5 extension, the fault profile
// and the payload observer. The per-GPU Table VII geometry (CU issue width,
// L1 and L2 caches, mem.ChannelsPerPU L2 banks and DRAM channels, the
// argument buffer) and the metrics registry and span recorder, which Build
// creates, are not configurable. Start from DefaultConfig or FullConfig:
// Build checks the config with Validate and fills nothing in.
type Config struct {
	NumGPUs   int
	CUsPerGPU int
	// Fabric is the inter-GPU fabric. Build sets Fabric.Nodes to NumGPUs.
	Fabric fabric.Config
	// NewPolicy builds the compression policy for each compressing
	// endpoint: GPUs 0..NumGPUs-1 and the host (index NumGPUs). Nil means
	// no compression anywhere.
	NewPolicy func(unit int) core.Policy
	// Recorder, when non-nil, observes every payload that any RDMA engine
	// puts on the fabric, in simulated order. It is measurement-only: the
	// engines keep the traffic ledger themselves (Platform.Traffic and
	// Platform.CodecEnergyPJ), so a run needs no recorder to report it.
	Recorder rdma.Recorder
	// RemoteCache, when non-nil, inserts a per-GPU cache for REMOTE data
	// between the L1s and the RDMA engine — the "new cache level for
	// remote data" of Arunkumar et al.'s MCM-GPU design, which the paper
	// discusses as related work. It is invalidated at kernel boundaries
	// like the L1s. Nil (the default) reproduces the paper's system,
	// which does not cache remote data.
	RemoteCache *cache.Config
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
		HitLatency:      8,
		IssueWidth:      4,
		MaxMSHR:         32,
		PortBufferBytes: 8 * 1024,
	}
}

// argBufferBytes sizes each GPU's kernel-argument buffer.
const argBufferBytes = 4096

// DefaultConfig returns the paper's four-GPU shared-bus system at a reduced
// test scale (4 CUs per GPU).
func DefaultConfig() Config {
	return Config{NumGPUs: 4, CUsPerGPU: 4, Fabric: fabric.DefaultConfig()}
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
	// Metrics is the registry every component registers into at
	// construction, plus the run's traffic/* ledger and energy/* totals.
	Metrics *metrics.Registry
	// Spans receives kernel launches, guard events and adaptive controller
	// phases as trace spans.
	Spans  *trace.Recorder
	phases []*phaseTracker
	// seenPolicies dedupes instrumentation when Config.NewPolicy hands the
	// same controller instance to several endpoints (the adaptive-global
	// policy): a shared controller is registered once, under the first
	// unit's prefix, instead of once per endpoint.
	seenPolicies map[*core.Adaptive]bool
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
// ctrl<unit>, hands it the fault profile's degradation threshold and tracks
// its phases as spans. Other policies have nothing to instrument.
func (p *Platform) instrumentPolicy(unit int, pol core.Policy) {
	a, ok := pol.(*core.Adaptive)
	if !ok || p.seenPolicies[a] {
		return // not a controller, or a shared one already instrumented
	}
	if p.seenPolicies == nil {
		p.seenPolicies = make(map[*core.Adaptive]bool)
	}
	p.seenPolicies[a] = true
	prefix := fmt.Sprintf("ctrl%d", unit)
	a.RegisterMetrics(p.Metrics, prefix)
	if p.cfg.Fault.Enabled() {
		a.RegisterIntegrityMetrics(p.Metrics, prefix)
		a.SetDegradeK(p.cfg.Fault.Degrade())
	}
	t := &phaseTracker{
		part:  p.partitionOf(unit),
		spans: p.Spans,
		track: prefix,
		name:  "sampling", // adaptive controllers start sampling at t=0
	}
	p.phases = append(p.phases, t)
	a.SetPhaseHook(t.transition)
}

// Validate reports the first shape error: fewer than two GPUs, no CUs, a
// fabric that cannot connect NumGPUs GPUs, or an invalid fault profile. It
// is the platform's one shape check; user-facing layers call it to reject a
// configuration before building.
func (c Config) Validate() error {
	if c.NumGPUs < 2 {
		return fmt.Errorf("NumGPUs = %d: a multi-GPU system needs at least 2", c.NumGPUs)
	}
	if c.CUsPerGPU < 1 {
		return fmt.Errorf("CUsPerGPU = %d: each GPU needs at least one CU", c.CUsPerGPU)
	}
	f := c.Fabric
	f.Nodes = c.NumGPUs
	if err := f.Validate(); err != nil {
		return err
	}
	if err := c.Fault.Validate(); err != nil {
		return fmt.Errorf("fault profile: %w", err)
	}
	return nil
}

// Build constructs and wires the platform, returning it together with its
// typed partition map. Each GPU's components live on their own partition;
// the fabric, driver and host RDMA share the hub partition. The config must
// pass Validate: reaching Build with a bad shape is a wiring bug, and it
// panics.
func Build(cfg Config) (*Platform, Partitions) { return build(cfg) }

// build is Build with extra engine options; tests use it to pin the window
// schedule.
func build(cfg Config, opts ...sim.Option) (*Platform, Partitions) {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("platform: %v", err))
	}
	// The switched topologies size their switch graph from the GPU count;
	// the fabric maps owner-partition indices 0..NumGPUs-1 to GPU nodes and
	// the hub partition to the host switch, so Nodes always mirrors NumGPUs.
	cfg.Fabric.Nodes = cfg.NumGPUs

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
		Engine:  sim.NewEngine(append([]sim.Option{sim.WithPartitions(cfg.NumGPUs + 1)}, opts...)...),
		Metrics: metrics.NewRegistry(),
		Spans:   &trace.Recorder{},
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
	p.Driver.Spans = p.Spans

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
	p.HostRDMA = rdma.New("Host.RDMA", p.Parts.Hub, policy(cfg.NumGPUs), cfg.Recorder)
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
			p.Space.AllocOnGPU(dev.Index, argBufferBytes))
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
	p.registerTotals()
	return p, p.Parts
}

// registerTotals publishes the engines' merged traffic ledger under
// traffic/*, the paper's Table V quantities, and the fabric and codec energy
// under energy/*. All are read at snapshot time, after the run has
// accumulated. The fabric owns its energy accounting: single-hop fabrics
// price TotalBytes at the base class, switched ones sum per-hop, per-class
// bytes.
func (p *Platform) registerTotals() {
	reg := p.Metrics
	reg.CounterFunc("traffic/remote_reads", func() uint64 { return p.Traffic().RemoteReads })
	reg.CounterFunc("traffic/remote_writes", func() uint64 { return p.Traffic().RemoteWrites })
	reg.CounterFunc("traffic/header_bytes", func() uint64 { return p.Traffic().HeaderBytes })
	reg.CounterFunc("traffic/payload_bytes", func() uint64 { return p.Traffic().PayloadBytes })
	reg.CounterFunc("traffic/uncompressed_payload_bytes", func() uint64 { return p.Traffic().UncompressedPayloadBytes })
	reg.CounterFunc("traffic/messages", func() uint64 { return p.Traffic().Messages })
	reg.GaugeFunc("energy/fabric_pj", p.Bus.EnergyPJ)
	reg.GaugeFunc("energy/codec_pj", p.CodecEnergyPJ)
}

func (p *Platform) buildGPU(g int, policy core.Policy) *Device {
	cfg := p.cfg
	part := p.Parts.GPUs[g]
	name := fmt.Sprintf("GPU%d", g)
	// mpfx is the GPU's metric-path prefix ("gpu0", "gpu1", ...).
	mpfx := fmt.Sprintf("gpu%d", g)
	dev := &Device{Index: g}

	dev.RDMA = rdma.New(name+".RDMA", part, policy, cfg.Recorder)
	dev.RDMA.OwnerOf = p.Space.GPUOf
	dev.RDMA.RegisterMetrics(p.Metrics, mpfx+"/rdma")
	p.enableGuard(dev.RDMA, mpfx+"/rdma")

	// DRAM channels and L2 banks.
	dramConn := sim.NewDirectConnection(name+".dram", part, 2)
	for ch := 0; ch < mem.ChannelsPerPU; ch++ {
		d := mem.NewDRAM(fmt.Sprintf("%s.DRAM%d", name, ch), part, p.Space, mem.DefaultDRAMConfig())
		d.RegisterMetrics(p.Metrics, fmt.Sprintf("%s/dram_%d", mpfx, ch))
		dev.DRAMs = append(dev.DRAMs, d)
		l2 := cache.New(fmt.Sprintf("%s.L2_%d", name, ch), part, p.Space, cache.L2Config())
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
	l1cfg := cache.L1Config()
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
		cu := gpu.NewCU(fmt.Sprintf("%s.CU%d", name, i), part, gpu.DefaultCUConfig())
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
	e.Spans = p.Spans
	e.RegisterGuardMetrics(p.Metrics, prefix)
}

// Traffic merges the RDMA engines' traffic ledgers: GPUs in index order,
// then the host. The fixed order fixes the float bits of the entropy sum.
func (p *Platform) Traffic() stats.Traffic {
	var t stats.Traffic
	for _, dev := range p.GPUs {
		t.Merge(&dev.RDMA.Traffic)
	}
	t.Merge(&p.HostRDMA.Traffic)
	return t
}

// CodecEnergyPJ sums the codec energy the RDMA engines' policies spent, in
// the same order as Traffic.
func (p *Platform) CodecEnergyPJ() float64 {
	e := 0.0
	for _, dev := range p.GPUs {
		e += dev.RDMA.CodecEnergyPJ
	}
	return e + p.HostRDMA.CodecEnergyPJ
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
// checks that no partition still has an event queued, that every memory
// message and every RDMA wire message was released exactly once, that no
// cache, CU, DRAM channel or RDMA engine still tracks a request or parks a
// wire message, and that the fabric holds no message and has every credit
// back. Draining moves counters and feeds the trace recorders, so take the
// run's snapshot, trace and results first. The check reads state and
// registers nothing.
func (p *Platform) CheckQuiescent() error {
	if err := p.Engine.Run(); err != nil {
		return fmt.Errorf("platform: draining stale traffic: %w", err)
	}
	var errs []error // errors.Join drops the nil ones
	if n := p.Engine.Pending(); n != 0 {
		errs = append(errs, fmt.Errorf("engine: %d events still queued after the drain", n))
	}
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
	errs = append(errs, p.HostRDMA.CheckQuiescent(), p.Bus.CheckQuiescent())
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("platform: run did not end quiescent: %w", err)
	}
	return nil
}
