package platform

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"mgpucompress/internal/comp"
	"mgpucompress/internal/core"
	"mgpucompress/internal/fabric"
	"mgpucompress/internal/gpu"
	"mgpucompress/internal/mem"
	"mgpucompress/internal/rdma"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.CUsPerGPU = 2
	return cfg
}

// streams is a test Program: every workgroup runs waves wavefronts, and
// start emits a wavefront's whole opening stream.
type streams struct {
	waves int
	start func(w *gpu.Wave)
}

func (p *streams) Waves(int) int { return p.waves }

func (p *streams) Next(w *gpu.Wave) {
	if w.Step > 0 {
		return
	}
	w.Step++
	p.start(w)
}

// resume adapts a closure to gpu.Continuation.
type resume func(w *gpu.Wave, data []byte, arg int)

func (f resume) Resume(w *gpu.Wave, data []byte, arg int) { f(w, data, arg) }

// copyKernel builds a kernel where each workgroup copies `lines` cache
// lines from src to dst, one wavefront per workgroup.
func copyKernel(src, dst mem.Buffer, lines, wgs int) *gpu.Kernel {
	perWG := lines / wgs
	copyLine := resume(func(w *gpu.Wave, data []byte, line int) {
		w.Compute(4)
		// data is lent only for this call; the write issues after it.
		w.Write(dst.Addr(uint64(line*mem.LineSize)), append([]byte(nil), data...))
	})
	return &gpu.Kernel{
		Name:          "copy",
		NumWorkgroups: wgs,
		Args:          make([]byte, 32),
		Program: &streams{waves: 1, start: func(w *gpu.Wave) {
			for i := 0; i < perWG; i++ {
				line := w.WG*perWG + i
				w.Read(src.Addr(uint64(line*mem.LineSize)), mem.LineSize, copyLine, line)
			}
		}},
	}
}

func TestPlatformCopyKernelMovesDataCorrectly(t *testing.T) {
	p, _ := Build(testConfig())
	const lines = 64
	src := p.Space.AllocStriped(lines * mem.LineSize)
	dst := p.Space.AllocStriped(lines * mem.LineSize)
	want := make([]byte, lines*mem.LineSize)
	for i := range want {
		want[i] = byte(i * 7)
	}
	src.Write(0, want)

	if err := p.Driver.Launch(copyKernel(src, dst, lines, 8)); err != nil {
		t.Fatal(err)
	}
	got := dst.Read(0, len(want))
	if !bytes.Equal(got, want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("first mismatch at byte %d: got %d want %d", i, got[i], want[i])
			}
		}
	}
	if p.ExecCycles() == 0 {
		t.Error("kernel completed in zero time")
	}
}

func TestPlatformGeneratesRemoteTraffic(t *testing.T) {
	rec := &countingRecorder{}
	cfg := testConfig()
	cfg.NewRecorder = func(int) rdma.Recorder { return rec }
	p, _ := Build(cfg)
	const lines = 64
	src := p.Space.AllocStriped(lines * mem.LineSize)
	dst := p.Space.AllocStriped(lines * mem.LineSize)
	if err := p.Driver.Launch(copyKernel(src, dst, lines, 8)); err != nil {
		t.Fatal(err)
	}
	// With data striped across 4 GPUs and workgroups round-robin across
	// all CUs, roughly 3/4 of accesses are remote.
	if rec.reads == 0 || rec.writes == 0 {
		t.Errorf("no remote traffic recorded: %d reads, %d writes", rec.reads, rec.writes)
	}
	if p.Bus.TotalBytes() == 0 {
		t.Error("nothing crossed the fabric")
	}
	// Kernel args were written over the fabric too.
	if p.Driver.ArgBytesWritten == 0 {
		t.Error("no kernel-argument traffic")
	}
}

type countingRecorder struct {
	reads, writes, payloads int
}

func (r *countingRecorder) RemoteRead(int)                { r.reads++ }
func (r *countingRecorder) RemoteWrite(int)               { r.writes++ }
func (r *countingRecorder) Payload([]byte, core.Decision) { r.payloads++ }
func (r *countingRecorder) Header(int)                    {}

var _ rdma.Recorder = (*countingRecorder)(nil)

func TestPlatformCompressionReducesExecTimeOnCompressibleData(t *testing.T) {
	run := func(newPolicy func(int) core.Policy) (cycles, wireBytes uint64) {
		cfg := testConfig()
		cfg.NewPolicy = newPolicy
		p, _ := Build(cfg)
		const lines = 256
		src := p.Space.AllocStriped(lines * mem.LineSize)
		dst := p.Space.AllocStriped(lines * mem.LineSize)
		// Highly compressible content: small deltas around a base.
		data := make([]byte, lines*mem.LineSize)
		for i := 0; i < len(data); i += 8 {
			binary.LittleEndian.PutUint64(data[i:], 1<<40+uint64(i%256))
		}
		src.Write(0, data)
		if err := p.Driver.Launch(copyKernel(src, dst, lines, 16)); err != nil {
			t.Fatal(err)
		}
		if got := dst.Read(0, len(data)); !bytes.Equal(got, data) {
			t.Fatal("copy corrupted data")
		}
		return uint64(p.ExecCycles()), p.Bus.TotalBytes()
	}
	rawCycles, rawBytes := run(nil)
	bdiCycles, bdiBytes := run(func(int) core.Policy { return core.NewStatic(comp.BDI) })
	if bdiBytes >= rawBytes {
		t.Errorf("BDI bytes %d not below raw %d", bdiBytes, rawBytes)
	}
	if bdiCycles >= rawCycles {
		t.Errorf("BDI cycles %d not below raw %d on a fabric-bound workload", bdiCycles, rawCycles)
	}
}

func TestPlatformSequentialKernelLaunches(t *testing.T) {
	p, _ := Build(testConfig())
	const lines = 32
	a := p.Space.AllocStriped(lines * mem.LineSize)
	b := p.Space.AllocStriped(lines * mem.LineSize)
	c := p.Space.AllocStriped(lines * mem.LineSize)
	want := make([]byte, lines*mem.LineSize)
	for i := range want {
		want[i] = byte(255 - i%251)
	}
	a.Write(0, want)
	if err := p.Driver.Launch(copyKernel(a, b, lines, 4)); err != nil {
		t.Fatal(err)
	}
	t1 := p.ExecCycles()
	if err := p.Driver.Launch(copyKernel(b, c, lines, 4)); err != nil {
		t.Fatal(err)
	}
	if p.ExecCycles() <= t1 {
		t.Error("second kernel did not advance time")
	}
	if got := c.Read(0, len(want)); !bytes.Equal(got, want) {
		t.Error("chained kernels corrupted data")
	}
	if p.Driver.KernelsLaunched != 2 {
		t.Errorf("KernelsLaunched = %d", p.Driver.KernelsLaunched)
	}
}

func TestPlatformBarrierOrdersIntraWGPhases(t *testing.T) {
	p, _ := Build(testConfig())
	buf := p.Space.AllocOnGPU(0, mem.PageSize)
	// Wavefront 0 writes a value; after the barrier, wavefront 1 reads it
	// and stores a transformed copy. Without the barrier this would race.
	k := &gpu.Kernel{
		Name:          "barrier",
		NumWorkgroups: 1,
		Program: &streams{waves: 2, start: func(w *gpu.Wave) {
			if w.Index == 0 {
				data := make([]byte, mem.LineSize)
				for i := range data {
					data[i] = 0xAB
				}
				w.Compute(50)
				w.Write(buf.Addr(0), data)
				w.Barrier()
				return
			}
			w.Barrier()
			w.Read(buf.Addr(0), mem.LineSize, resume(func(w *gpu.Wave, d []byte, _ int) {
				out := make([]byte, mem.LineSize)
				for i, v := range d {
					out[i] = v ^ 0xFF
				}
				w.Write(buf.Addr(mem.LineSize), out)
			}), 0)
		}},
	}
	if err := p.Driver.Launch(k); err != nil {
		t.Fatal(err)
	}
	got := buf.Read(mem.LineSize, mem.LineSize)
	for i, v := range got {
		if v != 0xAB^0xFF {
			t.Fatalf("byte %d = %#x: barrier did not order write before read", i, v)
		}
	}
}

func TestPlatformWorkgroupsSpreadAcrossAllGPUs(t *testing.T) {
	p, _ := Build(testConfig())
	buf := p.Space.AllocStriped(mem.PageSize * 8)
	k := &gpu.Kernel{
		Name:          "spread",
		NumWorkgroups: 32,
		Program: &streams{waves: 1, start: func(w *gpu.Wave) {
			data := make([]byte, mem.LineSize)
			data[0] = byte(w.WG + 1)
			w.Write(buf.Addr(uint64(w.WG)*mem.LineSize), data)
		}},
	}
	if err := p.Driver.Launch(k); err != nil {
		t.Fatal(err)
	}
	for wg := 0; wg < 32; wg++ {
		if got := buf.Read(uint64(wg)*mem.LineSize, 1)[0]; got != byte(wg+1) {
			t.Errorf("workgroup %d did not run (marker %d)", wg, got)
		}
	}
	// Every GPU must have retired some workgroups.
	for _, dev := range p.GPUs {
		retired := uint64(0)
		for _, cu := range dev.CUs {
			retired += cu.WGsRetired
		}
		if retired == 0 {
			t.Errorf("GPU %d retired no workgroups", dev.Index)
		}
	}
}

func TestPlatformL1CachingReducesSecondKernelTraffic(t *testing.T) {
	// Two identical read-only kernels on local data: within a kernel,
	// repeated reads of the same line hit L1.
	p, _ := Build(testConfig())
	buf := p.Space.AllocOnGPU(0, mem.PageSize)
	k := &gpu.Kernel{
		Name:          "reread",
		NumWorkgroups: 1,
		Program: &streams{waves: 1, start: func(w *gpu.Wave) {
			for i := 0; i < 10; i++ {
				w.Read(buf.Addr(0), mem.LineSize, nil, 0)
			}
		}},
	}
	if err := p.Driver.Launch(k); err != nil {
		t.Fatal(err)
	}
	hits := uint64(0)
	for _, dev := range p.GPUs {
		for _, l1 := range dev.L1s {
			hits += l1.Hits
		}
	}
	if hits < 8 {
		t.Errorf("L1 hits = %d, want ≥8 for 10 reads of one line", hits)
	}
}

// The simulator must be fully deterministic: identical configurations give
// bit-identical cycle counts and traffic.
func TestPlatformDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		p, _ := Build(testConfig())
		const lines = 128
		src := p.Space.AllocStriped(lines * mem.LineSize)
		dst := p.Space.AllocStriped(lines * mem.LineSize)
		data := make([]byte, lines*mem.LineSize)
		for i := range data {
			data[i] = byte(i*13 + 7)
		}
		src.Write(0, data)
		if err := p.Driver.Launch(copyKernel(src, dst, lines, 16)); err != nil {
			t.Fatal(err)
		}
		return uint64(p.ExecCycles()), p.Bus.TotalBytes()
	}
	c1, b1 := run()
	c2, b2 := run()
	if c1 != c2 || b1 != b2 {
		t.Errorf("nondeterministic: run1 = (%d cy, %d B), run2 = (%d cy, %d B)", c1, b1, c2, b2)
	}
}

// Paper-scale smoke test: 4 GPUs × 64 CUs.
func TestPlatformFullScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale platform")
	}
	cfg := FullConfig()
	p, _ := Build(cfg)
	if p.TotalCUs() != 256 {
		t.Fatalf("TotalCUs = %d, want 256", p.TotalCUs())
	}
	const lines = 1024
	src := p.Space.AllocStriped(lines * mem.LineSize)
	dst := p.Space.AllocStriped(lines * mem.LineSize)
	data := make([]byte, lines*mem.LineSize)
	for i := range data {
		data[i] = byte(i % 251)
	}
	src.Write(0, data)
	if err := p.Driver.Launch(copyKernel(src, dst, lines, 256)); err != nil {
		t.Fatal(err)
	}
	if got := dst.Read(0, len(data)); !bytes.Equal(got, data) {
		t.Error("full-scale copy corrupted data")
	}
}

// The crossbar topology must run the same workloads correctly.
func TestPlatformCrossbarTopology(t *testing.T) {
	cfg := testConfig()
	cfg.Fabric.Topology = fabric.TopologyCrossbar
	p, _ := Build(cfg)
	const lines = 64
	src := p.Space.AllocStriped(lines * mem.LineSize)
	dst := p.Space.AllocStriped(lines * mem.LineSize)
	data := make([]byte, lines*mem.LineSize)
	for i := range data {
		data[i] = byte(i * 3)
	}
	src.Write(0, data)
	if err := p.Driver.Launch(copyKernel(src, dst, lines, 8)); err != nil {
		t.Fatal(err)
	}
	if got := dst.Read(0, len(data)); !bytes.Equal(got, data) {
		t.Error("crossbar copy corrupted data")
	}
	if p.Bus.TotalBytes() == 0 {
		t.Error("no crossbar traffic")
	}
}

// The remote-cache extension (Arunkumar et al.'s L1.5) must preserve
// correctness and absorb repeated remote reads.
func TestPlatformRemoteCacheExtension(t *testing.T) {
	cfg := testConfig()
	rc := RemoteCacheConfig()
	cfg.RemoteCache = &rc
	rec := &countingRecorder{}
	cfg.NewRecorder = func(int) rdma.Recorder { return rec }
	p, _ := Build(cfg)

	// A buffer on GPU 3, read repeatedly by workgroups running everywhere.
	buf := p.Space.AllocOnGPU(3, mem.PageSize)
	data := make([]byte, mem.LineSize)
	for i := range data {
		data[i] = byte(i)
	}
	buf.Write(0, data)
	k := &gpu.Kernel{
		Name: "reread-remote", NumWorkgroups: 16,
		Program: &streams{waves: 1, start: func(w *gpu.Wave) {
			for i := 0; i < 8; i++ {
				w.Read(buf.Addr(0), mem.LineSize, nil, 0)
			}
		}},
	}
	if err := p.Driver.Launch(k); err != nil {
		t.Fatal(err)
	}
	// 16 WGs × 8 reads = 128 accesses; 12 WGs run on GPUs 0-2 (remote).
	// With the remote cache, each remote GPU fetches the line roughly once,
	// so far fewer than 96 remote reads cross the fabric.
	if rec.reads > 24 {
		t.Errorf("remote reads = %d; remote cache not absorbing re-reads", rec.reads)
	}
	hits := uint64(0)
	for _, dev := range p.GPUs {
		if dev.RemoteCache != nil {
			hits += dev.RemoteCache.Hits
		}
	}
	if hits == 0 {
		t.Error("remote cache recorded no hits")
	}
	// And the data read must still be correct end to end.
	got := p.Space.Read(buf.Addr(0), mem.LineSize)
	if !bytes.Equal(got, data) {
		t.Error("data corrupted")
	}
}

// All workload-style traffic must stay correct with the remote cache on.
func TestPlatformRemoteCacheCorrectness(t *testing.T) {
	cfg := testConfig()
	rc := RemoteCacheConfig()
	cfg.RemoteCache = &rc
	p, _ := Build(cfg)
	const lines = 64
	src := p.Space.AllocStriped(lines * mem.LineSize)
	dst := p.Space.AllocStriped(lines * mem.LineSize)
	want := make([]byte, lines*mem.LineSize)
	for i := range want {
		want[i] = byte(i*11 + 3)
	}
	src.Write(0, want)
	if err := p.Driver.Launch(copyKernel(src, dst, lines, 8)); err != nil {
		t.Fatal(err)
	}
	if got := dst.Read(0, len(want)); !bytes.Equal(got, want) {
		t.Error("copy corrupted with remote cache enabled")
	}
}

// Timing-model validation against an analytical bound: a fabric-saturating
// kernel cannot finish faster than total_bytes / bus_bandwidth, and a
// healthy simulator should land within a modest factor of that bound.
func TestPlatformExecTimeRespectsBandwidthBound(t *testing.T) {
	p, _ := Build(testConfig())
	const lines = 512
	src := p.Space.AllocStriped(lines * mem.LineSize)
	dst := p.Space.AllocStriped(lines * mem.LineSize)
	data := make([]byte, lines*mem.LineSize)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	src.Write(0, data)
	if err := p.Driver.Launch(copyKernel(src, dst, lines, 32)); err != nil {
		t.Fatal(err)
	}
	bound := p.Bus.TotalBytes() / 20 // 20 B/cycle
	got := uint64(p.ExecCycles())
	if got < bound {
		t.Fatalf("exec %d cycles beats the bus bandwidth bound %d", got, bound)
	}
	if got > bound*3 {
		t.Errorf("exec %d cycles is %.1fx the bandwidth bound %d: fabric not the bottleneck?",
			got, float64(got)/float64(bound), bound)
	}
	// Sanity: a fabric-bound run keeps the bus busy most of the time.
	if u := p.Bus.Utilization(p.ExecCycles()); u < 0.5 {
		t.Errorf("bus utilization %.2f too low for a saturating kernel", u)
	}
}

func TestPlatformStatsReport(t *testing.T) {
	p, _ := Build(testConfig())
	const lines = 64
	src := p.Space.AllocStriped(lines * mem.LineSize)
	dst := p.Space.AllocStriped(lines * mem.LineSize)
	data := make([]byte, lines*mem.LineSize)
	for i := range data {
		data[i] = byte(i)
	}
	src.Write(0, data)
	if err := p.Driver.Launch(copyKernel(src, dst, lines, 8)); err != nil {
		t.Fatal(err)
	}
	s := p.CollectStats()
	if s.ExecCycles == 0 || s.WGsRetired != 8 {
		t.Errorf("stats = %+v", s)
	}
	if s.MemOpsIssued != 2*lines {
		t.Errorf("mem ops = %d, want %d", s.MemOpsIssued, 2*lines)
	}
	// Every remote read sent must have been served somewhere.
	if s.RDMAReadsSent != s.RDMAReadsServed {
		t.Errorf("reads sent %d != served %d", s.RDMAReadsSent, s.RDMAReadsServed)
	}
	if s.RDMAWritesSent != s.RDMAWritesServed {
		t.Errorf("writes sent %d != served %d", s.RDMAWritesSent, s.RDMAWritesServed)
	}
	// DRAM sees each line at least once (write-through).
	if s.DRAMWrites < lines {
		t.Errorf("DRAM writes = %d, want ≥%d", s.DRAMWrites, lines)
	}
	if s.FabricUtil <= 0 || s.FabricUtil > 1 {
		t.Errorf("fabric utilization = %v", s.FabricUtil)
	}
	out := s.String()
	for _, want := range []string{"L1:", "L2:", "DRAM:", "RDMA:", "fabric:"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if s.L1HitRate() < 0 || s.L1HitRate() > 1 || s.L2HitRate() < 0 || s.L2HitRate() > 1 {
		t.Error("hit rates out of range")
	}
}

// TestPlatformCheckQuiescent: a finished copy kernel passes the run-end
// check, with and without the remote cache, and a message that is never
// released fails it.
func TestPlatformCheckQuiescent(t *testing.T) {
	for _, remoteCache := range []bool{false, true} {
		cfg := testConfig()
		if remoteCache {
			rc := RemoteCacheConfig()
			cfg.RemoteCache = &rc
		}
		p, parts := Build(cfg)
		const lines = 64
		src := p.Space.AllocStriped(lines * mem.LineSize)
		dst := p.Space.AllocStriped(lines * mem.LineSize)
		if err := p.Driver.Launch(copyKernel(src, dst, lines, 8)); err != nil {
			t.Fatal(err)
		}
		if err := p.CheckQuiescent(); err != nil {
			t.Fatalf("remote cache %v: %v", remoteCache, err)
		}
		msgs := mem.PoolOf(parts.GPUs[1])
		leak := msgs.ReadReq(nil, nil, 0, mem.LineSize)
		if err := p.CheckQuiescent(); err == nil || !strings.Contains(err.Error(), "GPU1 messages") {
			t.Errorf("remote cache %v: a live message passed the check (%v)", remoteCache, err)
		}
		msgs.Release(leak)
		if err := p.CheckQuiescent(); err != nil {
			t.Errorf("remote cache %v: %v", remoteCache, err)
		}
	}
}
