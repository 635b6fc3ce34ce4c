package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// set run spawns its child passes.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestFoldChargesCallerLayer(t *testing.T) {
	const (
		mem      = repoPrefix + "mem.NewReadReq"
		engine   = repoPrefix + "sim.(*Engine).Run"
		snapshot = repoPrefix + "metrics.(*Registry).Snapshot"
	)
	stacks := []stack{
		// A runtime leaf is charged to its repository caller.
		{[]string{"runtime.mallocgc", "runtime.newobject", mem, engine}, 30},
		// The background collector with no repository frame is gc.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 20},
		// Anything else without a repository frame is other.
		{[]string{"runtime.futex", "runtime.schedule"}, 10},
		// Packages outside the ledger are charged to their caller.
		{[]string{repoPrefix + "energy.PJ", repoPrefix + "fabric.(*Bus).EnergyPJ", snapshot}, 5},
		{[]string{repoPrefix + "sweep.(*Engine[go.shape.*uint8]).Get"}, 4},
		{[]string{repoPrefix + "workloads.(*AES).Verify.func1", repoPrefix + "runner.Run"}, 1},
	}
	f := foldStacks(stacks)
	want := map[string]int64{"mem": 30, "gc": 20, "other": 10, "fabric": 5, "sweep": 4, "workloads": 1}
	if len(f.CPUNs) != len(want) {
		t.Errorf("layers = %v, want %v", f.CPUNs, want)
	}
	for l, n := range want {
		if f.CPUNs[l] != n {
			t.Errorf("%s = %d, want %d", l, f.CPUNs[l], n)
		}
	}
	sum := 0.0
	for _, n := range f.CPUNs {
		sum += float64(n) / float64(f.TotalNs)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %g", sum)
	}
	if f.RuntimeNs != 60 || f.SnapshotNs != 5 || f.VerifyNs != 1 {
		t.Errorf("runtime/snapshot/verify = %d/%d/%d, want 60/5/1", f.RuntimeNs, f.SnapshotNs, f.VerifyNs)
	}
}

var sink []byte

func TestParseAllocsProfile(t *testing.T) {
	sink = make([]byte, 4<<20) // larger than the sampling interval: always sampled
	runtime.GC()
	allocs, err := foldAllocs()
	if err != nil {
		t.Fatal(err)
	}
	if allocs["other"] == 0 {
		t.Errorf("no allocation charged to the test's own frames: %v", allocs)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	wall := metricSpec{"wall_s", "s", "lower", 0.10}
	tight := func(m float64) stat { return newStat("s", []float64{m * 0.99, m, m * 1.01}) }
	cases := []struct {
		a, b stat
		want string
	}{
		{tight(10), tight(10.5), "within"},
		{tight(10), tight(12), "worse"},
		{tight(10), tight(8), "better"},
		{tight(10), newStat("s", []float64{8, 10, 12}), "unresolved"},
		{newStat("s", []float64{10, 13, 16}), tight(5), "better"},
	}
	for _, c := range cases {
		if got := verdict(wall, c.a, c.b); got != c.want {
			t.Errorf("%g -> %g: %s, want %s", c.a.Median, c.b.Median, got, c.want)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	var names []string
	for _, w := range suite {
		names = append(names, w.name)
	}
	for _, m := range append(e2eMetrics, layerMetrics()...) {
		names = append(names, m.Name)
	}
	for _, n := range names {
		if !nameRE.MatchString(n) || len(n) > 64 {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("duplicate name %q", n)
		}
		seen[n] = true
	}
}

// benchmarkFile is the part of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(suite) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(b.Workloads), len(suite))
	}
	for i, w := range b.Workloads {
		if w.Name != suite[i].name || w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q, code has %q", i, w.Name, suite[i].name)
		}
	}
	compare := func(kind string, file, code []metricSpec) {
		if len(file) != len(code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(file), len(code))
			return
		}
		for i := range file {
			if file[i] != code[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", kind, i, file[i], code[i])
			}
		}
	}
	compare("end_to_end", b.EndToEnd, e2eMetrics)
	compare("per_layer", b.PerLayer, layerMetrics())
}

// TestShortRun runs the -short smoke set end to end in child processes and
// checks that it is correct and emits exactly the metrics BENCHMARK.json
// names.
func TestShortRun(t *testing.T) {
	out := filepath.Join(t.TempDir(), "short.json")
	if err := runSet(options{short: true, out: out}); err != nil {
		t.Fatal(err)
	}
	set, err := readSet(out)
	if err != nil {
		t.Fatal(err)
	}
	b := readBenchmarkFile(t)
	if len(set.Workloads) != len(b.Workloads) {
		t.Fatalf("%d workloads reported, %d named", len(set.Workloads), len(b.Workloads))
	}
	for i, r := range set.Workloads {
		if r.Workload != b.Workloads[i].Name {
			t.Errorf("workload %d is %s, want %s", i, r.Workload, b.Workloads[i].Name)
		}
		if r.FailFrac != 0 || r.Attempted == 0 {
			t.Errorf("%s: %d of %d jobs failed: %v", r.Workload, r.Failed, r.Attempted, r.Problems)
		}
		if len(r.E2E) != len(b.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", r.Workload, len(r.E2E), len(b.EndToEnd))
		}
		for _, m := range b.EndToEnd {
			if s, ok := r.E2E[m.Name]; !ok || s.Median <= 0 {
				t.Errorf("%s: %s missing or not positive", r.Workload, m.Name)
			}
		}
		if len(r.Ledger) != len(b.PerLayer) {
			t.Errorf("%s: %d ledger metrics, want %d", r.Workload, len(r.Ledger), len(b.PerLayer))
		}
		for _, m := range b.PerLayer {
			if _, ok := r.Ledger[m.Name]; !ok {
				t.Errorf("%s: %s missing", r.Workload, m.Name)
			}
		}
		shares := r.Ledger["gc.cpu_share"].Value + r.Ledger["other.cpu_share"].Value
		for _, l := range layers {
			shares += r.Ledger[l+".cpu_share"].Value
		}
		if math.Abs(shares-1) > 0.01 {
			t.Errorf("%s: cpu shares sum to %g", r.Workload, shares)
		}
		if retries := r.Ledger["rdma.retries"].Value; (retries > 0) != (r.Workload == "faults-mesh16-s4") {
			t.Errorf("%s: rdma.retries = %g", r.Workload, retries)
		}
	}
}
