package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"maps"
	"sort"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// e2eMetrics are what a user of the simulator sees per pass; bound is the
// share of the baseline median by which a metric may worsen before a change
// counts as a regression. On a shared 2-vCPU VM the times drift by 10-20%
// between runs minutes apart, RSS by a few per cent, and allocation counts
// by under 0.1% (they move with the seed and the code only).
var e2eMetrics = []metricSpec{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"allocs_m", "1e6", "lower", 0.01},
	{"alloc_mb", "MB", "lower", 0.01},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

func e2eValues(s sample) map[string]float64 {
	return map[string]float64{
		"wall_s":      s.WallS,
		"cpu_s":       s.CPUS,
		"allocs_m":    float64(s.Mallocs) / 1e6,
		"alloc_mb":    float64(s.AllocBytes) / 1e6,
		"peak_rss_mb": float64(s.MaxRSSKB) * 1024 / 1e6,
		"setup_s":     s.SetupS,
	}
}

// layerMetrics lists the per-layer ledger in output order.
func layerMetrics() []metricSpec {
	var out []metricSpec
	for _, l := range layers {
		out = append(out,
			metricSpec{l + ".cpu_share", "ratio", "lower", 0},
			metricSpec{l + ".cpu_ns_per_event", "ns", "lower", 0},
			metricSpec{l + ".allocs_per_event", "count", "lower", 0})
	}
	return append(out, []metricSpec{
		{"gc.cpu_share", "ratio", "lower", 0},
		{"other.cpu_share", "ratio", "lower", 0},
		{"runtime.cpu_share", "ratio", "lower", 0},
		{"gc.cycles", "count", "lower", 0},
		{"gc.pause_ms", "ms", "lower", 0},
		{"sim.events", "count", "lower", 0},
		{"sim.windows", "count", "lower", 0},
		{"sim.events_per_window", "count", "higher", 0},
		{"sim.remote_msgs", "count", "lower", 0},
		{"fabric.hops", "count", "lower", 0},
		{"fabric.bytes", "B", "lower", 0},
		{"fabric.messages", "count", "lower", 0},
		{"rdma.retries", "count", "lower", 0},
		{"rdma.nacks", "count", "lower", 0},
		{"rdma.timeouts", "count", "lower", 0},
		{"fault.injected", "count", "lower", 0},
		{"core.sampling_rounds", "count", "lower", 0},
		{"core.transfers", "count", "lower", 0},
		{"traffic.compression_ratio", "ratio", "higher", 0},
		{"platform.build_s", "s", "lower", 0},
		{"workloads.setup_s", "s", "lower", 0},
		{"metrics.snapshot_share", "ratio", "lower", 0},
		{"workloads.verify_share", "ratio", "lower", 0},
		{"runner.job_s.p50", "s", "lower", 0},
		{"runner.job_s.max", "s", "lower", 0},
		{"sweep.worker_util", "ratio", "higher", 0},
		{"cache.l1_hit_ratio", "ratio", "higher", 0},
		{"cache.l2_hit_ratio", "ratio", "higher", 0},
		{"trace.overhead_ratio", "ratio", "lower", 0},
	}...)
}

// ledger derives the per-layer metrics from the traced pass, with the GC and
// set-up figures and the overhead baseline taken from the untraced passes.
func ledger(traced sample, untraced []sample, workers int) map[string]float64 {
	f := traced.Fold
	total := func(name string) float64 {
		t := 0.0
		for _, j := range traced.Jobs {
			t += j.Counters[name]
		}
		return t
	}
	across := func(get func(sample) float64) float64 {
		xs := make([]float64, len(untraced))
		for i, s := range untraced {
			xs[i] = get(s)
		}
		return median(xs)
	}
	events := total("sim.events")
	// The kernel tick can cap the profile's sample rate below the requested
	// one, so the profile gives shares and the pass's rusage gives the time.
	share := func(ns int64) float64 { return ratio(float64(ns), float64(f.TotalNs)) }
	m := make(map[string]float64)
	for _, l := range layers {
		m[l+".cpu_share"] = share(f.CPUNs[l])
		m[l+".cpu_ns_per_event"] = ratio(share(f.CPUNs[l])*traced.CPUS*1e9, events)
		m[l+".allocs_per_event"] = ratio(float64(f.Allocs[l]), events)
	}
	m["gc.cpu_share"] = share(f.CPUNs["gc"])
	m["other.cpu_share"] = share(f.CPUNs["other"])
	m["runtime.cpu_share"] = share(f.RuntimeNs)
	m["metrics.snapshot_share"] = share(f.SnapshotNs)
	m["workloads.verify_share"] = share(f.VerifyNs)

	m["gc.cycles"] = across(func(s sample) float64 { return float64(s.GCCycles) })
	m["gc.pause_ms"] = across(func(s sample) float64 { return float64(s.GCPauseNs) / 1e6 })
	m["platform.build_s"] = across(func(s sample) float64 { return s.BuildS })
	m["workloads.setup_s"] = across(func(s sample) float64 { return s.WSetupS })
	m["trace.overhead_ratio"] = ratio(traced.WallS, across(func(s sample) float64 { return s.WallS }))

	for _, name := range []string{"sim.events", "sim.windows", "sim.remote_msgs",
		"fabric.hops", "fabric.bytes", "fabric.messages", "rdma.retries", "rdma.nacks",
		"rdma.timeouts", "fault.injected", "core.sampling_rounds", "core.transfers"} {
		m[name] = total(name)
	}
	m["sim.events_per_window"] = ratio(events, total("sim.windows"))
	m["traffic.compression_ratio"] = 1
	if p := total("traffic.payload_bytes"); p > 0 {
		m["traffic.compression_ratio"] = total("traffic.uncompressed_payload_bytes") / p
	}
	for _, lvl := range []string{"l1", "l2"} {
		hits := total("cache." + lvl + "_hits")
		m["cache."+lvl+"_hit_ratio"] = ratio(hits, hits+total("cache."+lvl+"_misses"))
	}

	var walls []float64
	busy := 0.0
	for _, j := range traced.Jobs {
		walls = append(walls, j.WallS)
		busy += j.WallS
	}
	sort.Float64s(walls)
	m["runner.job_s.p50"] = median(walls)
	if len(walls) > 0 {
		m["runner.job_s.max"] = walls[len(walls)-1]
	}
	m["sweep.worker_util"] = ratio(busy, float64(workers)*traced.WallS)
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

//go:embed testdata/expected.json
var oracleJSON []byte

// loadOracle returns the committed per-job results at the default seed,
// keyed by the job's canonical form.
func loadOracle() (map[string]outcome, error) {
	var o map[string]outcome
	if err := json.Unmarshal(oracleJSON, &o); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return o, nil
}

// check counts attempted and failed jobs over a workload's passes. A job
// fails on a runner error (Workload.Verify included), on a result that
// differs from the same job in the first pass, or, at the default seed, on a
// mismatch with the oracle.
func check(passes []sample, seed int64) (attempted, failed int, problems []string, err error) {
	var oracle map[string]outcome
	if seed == 0 {
		if oracle, err = loadOracle(); err != nil {
			return 0, 0, nil, err
		}
	}
	ref := passes[0].Jobs
	for p, s := range passes {
		for i, j := range s.Jobs {
			attempted++
			why := ""
			switch {
			case j.Err != "":
				why = j.Err
			case i >= len(ref) || j.Key != ref[i].Key || j.Out != ref[i].Out ||
				!maps.Equal(j.Counters, ref[i].Counters):
				why = "differs from the first pass"
			case oracle != nil:
				want, ok := oracle[j.Key]
				if !ok {
					why = "no oracle entry"
				} else if want != j.Out {
					why = fmt.Sprintf("oracle mismatch: got %+v, want %+v", j.Out, want)
				}
			}
			if why != "" {
				failed++
				problems = append(problems, fmt.Sprintf("pass %d job %s: %s", p, j.Key, why))
			}
		}
	}
	return attempted, failed, problems, nil
}

// stat summarizes one metric's samples. Q1 and Q3 are the exclusive-method
// quartiles (Python's statistics.quantiles default).
type stat struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// spread is the interquartile range as a share of the median.
func (s stat) spread() float64 { return ratio(s.Q3-s.Q1, s.Median) }

func newStat(unit string, xs []float64) stat {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	st := stat{Unit: unit, Median: median(s), N: len(s), Samples: xs}
	if len(s) > 0 {
		st.Min, st.Max = s[0], s[len(s)-1]
	}
	st.Q1, st.Q3 = quartiles(s)
	return st
}

// quartiles returns the first and third exclusive-method quartiles of sorted
// data, falling back to the extremes for fewer than two values.
func quartiles(s []float64) (q1, q3 float64) {
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload's result in a run or a set.
type report struct {
	Workload  string           `json:"workload"`
	Jobs      int              `json:"jobs"`
	Workers   int              `json:"workers"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	FailFrac  float64          `json:"fail_frac"`
	Problems  []string         `json:"problems,omitempty"`
	E2E       map[string]stat  `json:"e2e"`
	Ledger    map[string]value `json:"ledger,omitempty"`
}

// buildReport checks and summarizes a workload's untraced passes and, when
// given, its traced pass.
func buildReport(w workload, passes []sample, traced *sample, seed int64) (report, error) {
	all := passes
	if traced != nil {
		all = append(append([]sample(nil), passes...), *traced)
	}
	r := report{Workload: w.name, Jobs: len(passes[0].Jobs), Workers: w.workers,
		E2E: make(map[string]stat)}
	var err error
	if r.Attempted, r.Failed, r.Problems, err = check(all, seed); err != nil {
		return r, err
	}
	r.FailFrac = ratio(float64(r.Failed), float64(r.Attempted))
	series := make(map[string][]float64)
	for _, s := range passes {
		for name, v := range e2eValues(s) {
			series[name] = append(series[name], v)
		}
	}
	for _, m := range e2eMetrics {
		r.E2E[m.Name] = newStat(m.Unit, series[m.Name])
	}
	if traced != nil {
		vals := ledger(*traced, passes, w.workers)
		r.Ledger = make(map[string]value, len(vals))
		for _, m := range layerMetrics() {
			r.Ledger[m.Name] = value{vals[m.Name], m.Unit}
		}
	}
	return r, nil
}

// verdict compares one metric between a baseline and a candidate under its
// bound: worse or better when the medians differ by more than the bound,
// within when they do not, and unresolved when either side's spread exceeds
// the bound, unless every candidate sample beats every baseline sample.
func verdict(m metricSpec, a, b stat) string {
	change := ratio(b.Median-a.Median, a.Median)
	if m.Better == "higher" {
		change = -change
	}
	if a.spread() > m.Bound || b.spread() > m.Bound {
		if (m.Better == "lower" && b.Max < a.Min) || (m.Better == "higher" && b.Min > a.Max) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case change > m.Bound:
		return "worse"
	case change < -m.Bound:
		return "better"
	}
	return "within"
}
