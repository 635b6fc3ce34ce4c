// Command bench is the repository's host-time benchmark. It runs four fixed
// closed-loop workloads through the public sweep path cmd/reproduce uses,
// checks every job's simulated results, and reports end-to-end host metrics
// (wall and CPU time, allocations, peak RSS, set-up time) as medians over
// passes, each pass in a fresh child process. A traced pass adds a per-layer
// CPU and allocation ledger folded from runtime/pprof profiles.
//
// From the repository root:
//
//	bash bench/run.sh --workload reproduce-s4 --seed 1 --seconds 20 --trace 0
//
// runs one workload for 20 seconds and prints one JSON result line. From
// bench/:
//
//	go run . -out results/set.json      # every workload, -reps passes each
//	go run . -short                     # scale-1 smoke, one pass each
//	go run . -compare A.json B.json     # verdicts under the metric bounds
//	go run . -write-oracle testdata/expected.json
//
// See README.md for the workloads, the metrics and how to read the ledger.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// childEnv marks a child process, which runs one pass and prints its sample
// as JSON; the value says whether the pass is traced.
const childEnv = "MGPUBENCH_CHILD"

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	reps     int
	short    bool
	out      string
	compare  bool
	oracle   string
}

func main() {
	// The allocation sampling rate must be set before the process allocates.
	if os.Getenv(childEnv) == "traced" {
		runtime.MemProfileRate = memProfileRate
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload for -seconds and print one JSON result line (default: a set of every workload)")
	flag.Int64Var(&o.seed, "seed", 0, "input seed written into every job key (0 = the fingerprint-derived seed, checked against the oracle)")
	flag.IntVar(&o.seconds, "seconds", 20, "with -workload: how long to keep starting passes")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 1 reports the per-layer ledger instead of the end-to-end metrics")
	flag.IntVar(&o.reps, "reps", 5, "without -workload: passes per workload, interleaved across workloads")
	flag.BoolVar(&o.short, "short", false, "smoke run: every workload at scale 1, one pass")
	flag.StringVar(&o.out, "out", "", "without -workload: write the set's results to this JSON file")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files given as arguments and exit 1 on any regression")
	flag.StringVar(&o.oracle, "write-oracle", "", "run every workload once at the default seed and write the oracle to this file")
	flag.Parse()

	var err error
	switch {
	case o.trace != 0 && o.trace != 1:
		err = fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	case o.seconds < 1 || o.reps < 1:
		err = errors.New("-seconds and -reps must be at least 1")
	case os.Getenv(childEnv) != "":
		err = child(o, os.Getenv(childEnv) == "traced")
	case o.compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare needs two result files")
		} else {
			err = compareFiles(flag.Arg(0), flag.Arg(1))
		}
	case o.oracle != "":
		err = writeOracle(o.oracle)
	case o.workload != "":
		err = runOne(o)
	default:
		err = runSet(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// child runs one measured pass and prints the sample on stdout.
func child(o options, traced bool) error {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return err
	}
	s, err := measurePass(w.keysFor(o.short, o.seed), w.workers, traced)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(s)
}

// spawn runs one pass of the workload in a fresh child process.
func spawn(w workload, o options, traced bool) (sample, error) {
	exe, err := os.Executable()
	if err != nil {
		return sample{}, err
	}
	args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10)}
	if o.short {
		args = append(args, "-short")
	}
	cmd := exec.Command(exe, args...)
	mode := "plain"
	if traced {
		mode = "traced"
	}
	cmd.Env = append(os.Environ(), childEnv+"="+mode)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return sample{}, fmt.Errorf("%s pass: %w", w.name, err)
	}
	var s sample
	if err := json.Unmarshal(out, &s); err != nil {
		return sample{}, fmt.Errorf("%s pass output: %w", w.name, err)
	}
	return s, nil
}

// meta records the host and build a result came from.
type meta struct {
	HostCPUs   int    `json:"host_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	Revision   string `json:"revision"`
	Seed       int64  `json:"seed"`
	Reps       int    `json:"reps,omitempty"`
	Seconds    int    `json:"seconds,omitempty"`
	Short      bool   `json:"short"`
}

func newMeta(o options) meta {
	m := meta{
		HostCPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH,
		Revision: "unknown", Seed: o.seed, Short: o.short,
	}
	dirty := false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		m.Revision += "-dirty"
	}
	return m
}

// runOne runs one workload for o.seconds (at least one pass), plus a traced
// pass when o.trace is 1, and prints the result as its last stdout line.
func runOne(o options) error {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return err
	}
	md := newMeta(o)
	md.Seconds = o.seconds
	printMeta(md)
	var passes []sample
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < time.Duration(o.seconds)*time.Second {
		s, err := spawn(w, o, false)
		if err != nil {
			return err
		}
		passes = append(passes, s)
	}
	var traced *sample
	if o.trace == 1 {
		s, err := spawn(w, o, true)
		if err != nil {
			return err
		}
		traced = &s
	}
	r, err := buildReport(w, passes, traced, o.seed)
	if err != nil {
		return err
	}
	printReport(r)

	metrics := make(map[string]value)
	if traced != nil {
		metrics = r.Ledger
	} else {
		for _, m := range e2eMetrics {
			metrics[m.Name] = value{r.E2E[m.Name].Median, m.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// resultSet is the file a set writes and -compare reads.
type resultSet struct {
	Meta      meta     `json:"meta"`
	Workloads []report `json:"workloads"`
}

// runSet runs o.reps passes of every workload, interleaved so host drift
// spreads evenly, then one traced pass of each.
func runSet(o options) error {
	if o.short {
		o.reps = 1
	}
	md := newMeta(o)
	md.Reps = o.reps
	printMeta(md)
	passes := make([][]sample, len(suite))
	for rep := 0; rep < o.reps; rep++ {
		for i, w := range suite {
			s, err := spawn(w, o, false)
			if err != nil {
				return err
			}
			passes[i] = append(passes[i], s)
		}
	}
	set := resultSet{Meta: md}
	failed := 0
	for i, w := range suite {
		traced, err := spawn(w, o, true)
		if err != nil {
			return err
		}
		r, err := buildReport(w, passes[i], &traced, o.seed)
		if err != nil {
			return err
		}
		printReport(r)
		failed += r.Failed
		set.Workloads = append(set.Workloads, r)
	}
	if o.out != "" {
		data, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d jobs failed", failed)
	}
	return nil
}

func printMeta(m meta) {
	data, _ := json.Marshal(m) // a struct of plain fields always marshals
	fmt.Println("meta", string(data))
}

func printReport(r report) {
	fmt.Printf("%s: %d jobs on %d workers, %d of %d attempted failed (fail_frac %g)\n",
		r.Workload, r.Jobs, r.Workers, r.Failed, r.Attempted, r.FailFrac)
	for _, p := range r.Problems {
		fmt.Println("  FAIL", p)
	}
	for _, m := range e2eMetrics {
		s := r.E2E[m.Name]
		fmt.Printf("  %-24s %12.6g %-5s median of %d, IQR %.4g, min %.6g, max %.6g\n",
			m.Name, s.Median, m.Unit, s.N, s.Q3-s.Q1, s.Min, s.Max)
	}
	for _, m := range layerMetrics() {
		if v, ok := r.Ledger[m.Name]; ok {
			fmt.Printf("  %-34s %12.6g %s\n", m.Name, v.Value, v.Unit)
		}
	}
}

func readSet(path string) (resultSet, error) {
	var s resultSet
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &s)
	}
	if err != nil {
		return s, fmt.Errorf("read %s: %w", path, err)
	}
	return s, nil
}

// compareFiles prints a verdict for every (workload, end-to-end metric) of
// baseline a against candidate b, and fails on any regression.
func compareFiles(a, b string) error {
	base, err := readSet(a)
	if err != nil {
		return err
	}
	cand, err := readSet(b)
	if err != nil {
		return err
	}
	worse := 0
	for _, rb := range cand.Workloads {
		var ra *report
		for i := range base.Workloads {
			if base.Workloads[i].Workload == rb.Workload {
				ra = &base.Workloads[i]
			}
		}
		if ra == nil {
			fmt.Printf("%-24s not in %s\n", rb.Workload, a)
			continue
		}
		for _, m := range e2eMetrics {
			sa, sb := ra.E2E[m.Name], rb.E2E[m.Name]
			v := verdict(m, sa, sb)
			if v == "worse" {
				worse++
			}
			fmt.Printf("%-24s %-12s %12.6g (IQR %.3g) -> %12.6g (IQR %.3g) %-5s %+7.2f%% bound %g%%: %s\n",
				rb.Workload, m.Name, sa.Median, sa.Q3-sa.Q1, sb.Median, sb.Q3-sb.Q1, m.Unit,
				100*ratio(sb.Median-sa.Median, sa.Median), 100*m.Bound, v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics worse than their bound", worse)
	}
	return nil
}

// writeOracle runs every workload once, at full and at -short scale, at the
// default seed, and writes each job's simulated results.
func writeOracle(path string) error {
	oracle := make(map[string]outcome)
	for _, w := range suite {
		for _, short := range []bool{false, true} {
			keys := w.keysFor(short, 0)
			for _, j := range runPass(keys, w.workers) {
				if j.Err != "" {
					return fmt.Errorf("%s: %s", j.Key, j.Err)
				}
				oracle[j.Key] = j.Out
			}
		}
	}
	data, err := json.MarshalIndent(oracle, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
