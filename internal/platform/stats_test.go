package platform

import (
	"bytes"
	"encoding/json"
	"path"
	"testing"

	"mgpucompress/internal/core"
	"mgpucompress/internal/fabric"
	"mgpucompress/internal/fault"
	"mgpucompress/internal/mem"
	"mgpucompress/internal/metrics"
)

// runCopy builds a platform under cfg, runs one copy kernel, and returns it.
func runCopy(t *testing.T, cfg Config) *Platform {
	t.Helper()
	p, _ := Build(cfg)
	const lines = 64
	src := p.Space.AllocStriped(lines * mem.LineSize)
	dst := p.Space.AllocStriped(lines * mem.LineSize)
	data := make([]byte, lines*mem.LineSize)
	for i := range data {
		data[i] = byte(i / mem.LineSize)
	}
	src.Write(0, data)
	if err := p.Driver.Launch(copyKernel(src, dst, lines, 8)); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCollectStatsMatchesDirectAggregation is the no-double-counting proof:
// the snapshot-derived view must equal a direct walk over the component
// counter fields, including the float utilization bit for bit.
func TestCollectStatsMatchesDirectAggregation(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"bus", func(*Config) {}},
		{"crossbar", func(c *Config) { c.Fabric.Topology = "crossbar" }},
		{"remote-cache", func(c *Config) {
			rc := RemoteCacheConfig()
			c.RemoteCache = &rc
		}},
		{"adaptive", func(c *Config) {
			c.NewPolicy = func(int) core.Policy { return core.NewAdaptive(core.Config{}) }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.mut(&cfg)
			p := runCopy(t, cfg)
			got := p.CollectStats()
			want := p.directStats()
			if got != want {
				t.Errorf("snapshot view diverges from direct aggregation:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}

func TestStatsJSONRoundTrip(t *testing.T) {
	p := runCopy(t, testConfig())
	s1 := p.CollectStats()
	b1, err := json.Marshal(s1)
	if err != nil {
		t.Fatal(err)
	}
	var s2 Stats
	if err := json.Unmarshal(b1, &s2); err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Errorf("round trip mismatch:\n  %+v\n  %+v", s1, s2)
	}
	b2, err := json.Marshal(s2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("re-marshal differs:\n  %s\n  %s", b1, b2)
	}
}

func TestAdaptivePhaseSpansRecorded(t *testing.T) {
	cfg := testConfig()
	cfg.NewPolicy = func(int) core.Policy {
		return core.NewAdaptive(core.Config{SampleCount: 2, RunLength: 8})
	}
	p := runCopy(t, cfg)
	p.FinishTrace()

	var phases, kernels int
	for _, s := range p.Spans.Spans() {
		if s.End <= s.Start {
			t.Errorf("span %+v is not forward in time", s)
		}
		switch s.Cat {
		case "phase":
			phases++
		case "kernel":
			kernels++
		}
	}
	if phases == 0 {
		t.Error("no controller phase spans recorded")
	}
	if kernels != 1 {
		t.Errorf("kernel spans = %d, want 1", kernels)
	}

	// FinishTrace must be idempotent: a second call adds nothing.
	n := len(p.Spans.Spans())
	p.FinishTrace()
	if len(p.Spans.Spans()) != n {
		t.Error("second FinishTrace appended spans")
	}
}

// TestSnapshotGlobsMatchPathMatch is the differential check of the metrics
// glob prefilter: for every path of a 64-GPU switch-tree snapshot (adaptive
// controllers, fault guard) and of a remote-cache snapshot, and for every
// pattern the non-test code sums, CountMatch on that one sample agrees with
// path.Match. A few extra patterns and paths reach the prefilter's edges:
// classes, escapes, a malformed pattern and literal last segments.
func TestSnapshotGlobsMatchPathMatch(t *testing.T) {
	aggressive, err := fault.Parse("aggressive")
	if err != nil {
		t.Fatal(err)
	}
	tree := DefaultConfig()
	tree.NumGPUs = 64
	tree.Fabric.Topology = fabric.TopologyTree
	tree.NewPolicy = func(int) core.Policy { return core.NewAdaptive(core.Config{}) }
	tree.Fault = aggressive
	remote := testConfig()
	rc := RemoteCacheConfig()
	remote.RemoteCache = &rc

	var paths []string
	for _, cfg := range []Config{tree, remote} {
		p, _ := Build(cfg)
		for _, smp := range p.Metrics.Snapshot() {
			paths = append(paths, smp.Path)
		}
	}
	paths = append(paths, "", "x", "a/x", "bb/x", "a/b/x", "*/x", "a*/x", "l1_0", "gpu0/l1_0/hits/")

	patterns := []string{
		// platform.StatsFromSnapshot
		"gpu*/l1_*/hits", "gpu*/l1_*/misses", "gpu*/l1_*/coalesced", "gpu*/l1_*/bypassed",
		"gpu*/l2_*/hits", "gpu*/l2_*/misses", "gpu*/dram_*/reads", "gpu*/dram_*/writes",
		"*/rdma/reads_sent", "*/rdma/writes_sent", "*/rdma/reads_served", "*/rdma/writes_served",
		"gpu*/cu_*/wgs_retired", "gpu*/cu_*/mem_reads_issued", "gpu*/cu_*/mem_writes_issued",
		"gpu*/l15/hits", "gpu*/l15/misses",
		// the benchmark's per-job counters
		"sim/events_handled", "sim/windows", "sim/remote_msgs", "fabric/hops", "fabric/bytes",
		"fabric/messages", "gpu*/rdma/retries", "host/rdma/retries", "gpu*/rdma/nacks",
		"host/rdma/nacks", "gpu*/rdma/timeouts", "host/rdma/timeouts", "fault/injected",
		"ctrl*/sampling_rounds", "ctrl*/transfers", "traffic/payload_bytes",
		"traffic/uncompressed_payload_bytes",
		// edges
		"*", "*/*", "*/*/*", "[ab]*/x", "[^/]/x", "a[/]x", "a\\*/x", "\\*/x", "a\\/x",
		"gpu?/l1_?/hits", "[", "gpu*/[", "x", "",
	}
	for _, pat := range patterns {
		for _, p := range paths {
			ok, err := path.Match(pat, p)
			want := 0
			if err == nil && ok {
				want = 1
			}
			one := metrics.Snapshot{{Path: p, Value: 1}}
			if got := one.CountMatch(pat); got != want {
				t.Errorf("CountMatch(%q) on %q = %d, path.Match says %d", pat, p, got, want)
			}
			if got := one.SumMatch(pat); got != float64(want) {
				t.Errorf("SumMatch(%q) on %q = %v, path.Match says %d", pat, p, got, want)
			}
		}
	}
	if len(paths) < 1000 {
		t.Errorf("only %d paths: the snapshots lost their components", len(paths))
	}
}
