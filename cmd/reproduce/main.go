// Command reproduce regenerates every table and figure of the paper in one
// run and writes each artifact to a results directory:
//
//	reproduce -out results -scale 4
//
// All simulations are scheduled through the internal/sweep engine: the full
// job plan is deduplicated (Tables V/VI share characterization runs; Fig. 7
// re-uses every Fig. 5 and Fig. 6 run), fanned out across -jobs workers,
// and streamed to a JSONL journal. An interrupted run restarted with the
// same -resume file replays the journal and skips every finished job.
// Artifacts are byte-identical for any -jobs value.
//
// With -server the plan is submitted as one batch to a resident sweepd
// daemon instead of simulating locally: the daemon dedupes it against every
// job it has ever run, and the downloaded results journal replays into the
// local cache, so artifacts come out byte-identical either way.
//
// Produced files: table1.txt, table3.txt, table5.txt, table6.txt,
// fig1_SC.txt, fig1_FIR.txt, fig5.txt, fig6.txt, fig7.txt, area.txt and a
// summary.txt index.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mgpucompress/internal/comp"
	"mgpucompress/internal/fabric"
	"mgpucompress/internal/fault"
	"mgpucompress/internal/runner"
	"mgpucompress/internal/serve"
	"mgpucompress/internal/sweep"
	"mgpucompress/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("reproduce: ")
	out := flag.String("out", "results", "output directory")
	scale := flag.Int("scale", int(workloads.ScaleSmall), "input scale factor")
	cus := flag.Int("cus", 0, "CUs per GPU (0 = default)")
	gpus := flag.Int("gpus", 0, "GPU count (0 = the paper's 4)")
	topology := flag.String("topology", "", "fabric topology: bus (paper), crossbar, ring, mesh or tree")
	jobs := flag.Int("jobs", 0, "max concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
	resume := flag.String("resume", "", "JSONL job journal: replayed if it exists, appended to as jobs finish")
	quiet := flag.Bool("quiet", false, "suppress per-job progress lines")
	seed := flag.Int64("seed", 0, "pin every job's input seed (0 = per-job fingerprint seeds)")
	metricsOut := flag.String("metrics-out", "", "write every job's metric snapshot as JSON to this file")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON timeline of all jobs to this file")
	faultProfile := flag.String("fault-profile", "off", "fault-injection profile: off|light|aggressive or k=v list")
	server := flag.String("server", "", "sweepd base URL (e.g. http://127.0.0.1:8372): run the plan on a resident daemon instead of simulating locally")
	flag.Parse()

	prof, err := fault.Parse(*faultProfile)
	if err != nil {
		log.Fatal(err)
	}
	if *server != "" && *traceOut != "" {
		log.Fatal("-trace-out requires local execution: results fetched from a daemon carry no span timeline")
	}
	o := runner.ExpOptions{Scale: workloads.Scale(*scale), CUsPerGPU: *cus, Seed: *seed, Fault: prof,
		Topology: fabric.Topology(*topology), NumGPUs: *gpus}
	if err := run(*out, *jobs, o, *resume, *quiet, *metricsOut, *traceOut, *server); err != nil {
		log.Fatal(err)
	}
}

func run(out string, jobs int, o runner.ExpOptions, resume string, quiet bool, metricsOut, traceOut, server string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	scale := int(o.Scale)
	start := time.Now()

	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	cfg := runner.SweepConfig{Jobs: jobs, Trace: traceOut != ""}

	// The journal file doubles as resume input (read first) and sink
	// (appended to as new jobs finish).
	var journal *os.File
	if resume != "" {
		f, err := os.OpenFile(resume, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		journal = f
		cfg.Journal = f
	}

	plan := runner.ReproducePlan(o)
	total := len(plan)
	if !quiet {
		cfg.OnProgress = func(p sweep.Progress) {
			fmt.Printf("  [%d/%d] %d simulated, %d cache hits, %d resumed (%s)\n",
				p.Completed, total, p.Simulated, p.CacheHits, p.Resumed,
				p.Elapsed.Round(time.Millisecond))
		}
	}
	s := runner.NewSweep(cfg)
	if journal != nil {
		loaded, err := s.Resume(journal)
		if err != nil {
			return fmt.Errorf("replaying %s: %w", resume, err)
		}
		if loaded > 0 {
			fmt.Printf("resumed %d finished jobs from %s\n", loaded, resume)
		}
		// A journal killed mid-write ends with a partial line and no
		// newline; terminate it so the first appended record stays intact.
		if st, err := journal.Stat(); err == nil && st.Size() > 0 {
			buf := make([]byte, 1)
			if _, err := journal.ReadAt(buf, st.Size()-1); err == nil && buf[0] != '\n' {
				if _, err := journal.Write([]byte("\n")); err != nil {
					return fmt.Errorf("terminating %s: %w", resume, err)
				}
			}
		}
	}

	// Phase 1: simulate the whole deduplicated plan at full parallelism —
	// either locally or as one batch on a resident sweepd daemon. Even if an
	// artifact later fails to assemble, every completed job has already been
	// streamed to the journal (local) or the daemon's store (server) for the
	// next attempt.
	if server != "" {
		fmt.Printf("plan: %d unique jobs (scale %d, server %s)\n", total, scale, server)
		if err := serverPrefetch(s, server, plan, quiet); err != nil {
			return err
		}
	} else {
		fmt.Printf("plan: %d unique jobs (scale %d, %d workers)\n", total, scale, jobs)
		if err := s.Prefetch(plan); err != nil {
			return err
		}
	}

	// Phase 2: assemble artifacts — pure cache hits from here on.
	var index []string
	write := func(name, content string) error {
		path := filepath.Join(out, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return err
		}
		index = append(index, name)
		fmt.Printf("wrote %s (%d bytes)\n", path, len(content))
		return nil
	}

	for _, a := range artifacts(s, o) {
		content, err := a.render()
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		if err := write(a.name, content); err != nil {
			return err
		}
	}

	// The summary must stay byte-identical across -jobs values and reruns,
	// so it carries job counts but no wall times; timing goes to stdout.
	stats := s.Stats()
	var sum strings.Builder
	fmt.Fprintf(&sum, "reproduction artifacts (scale %d, %d unique jobs)\n", scale, total)
	for _, n := range index {
		fmt.Fprintf(&sum, "  %s\n", n)
	}
	if err := write("summary.txt", sum.String()); err != nil {
		return err
	}
	if metricsOut != "" {
		if err := s.WriteMetricsFile(metricsOut); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", metricsOut)
	}
	if traceOut != "" {
		if err := s.WriteTraceFile(traceOut); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", traceOut)
	}
	fmt.Printf("sweep: %s (total %s)\n", stats, time.Since(start).Round(time.Millisecond))
	return nil
}

// serverPrefetch runs the whole plan as one batch on a sweepd daemon and
// replays the downloaded results journal into the local sweep, so artifact
// assembly afterwards is pure cache hits — exactly like a local prefetch.
// The daemon dedupes the batch against everything it has ever run, so a
// re-submitted reproduction costs no simulation at all.
func serverPrefetch(s *runner.Sweep, server string, plan []sweep.JobKey, quiet bool) error {
	client := &serve.Client{BaseURL: server}
	st, err := client.Submit(serve.BatchRequest{Tenant: "reproduce", Keys: plan})
	if err != nil {
		return fmt.Errorf("submitting to %s: %w", server, err)
	}
	fmt.Printf("submitted batch %s (%d jobs)\n", st.ID, st.Jobs)
	var onProgress func(serve.BatchStatus)
	if !quiet {
		last := -1
		onProgress = func(bs serve.BatchStatus) {
			if bs.Completed != last {
				last = bs.Completed
				fmt.Printf("  [%d/%d] server batch %s\n", bs.Completed, bs.Jobs, bs.ID)
			}
		}
	}
	fin, err := client.Wait(st.ID, onProgress)
	if err != nil {
		return err
	}
	if fin.State != serve.StateDone {
		return fmt.Errorf("server batch %s: %s: %s", fin.ID, fin.State, fin.Error)
	}
	if fin.Failed > 0 {
		return fmt.Errorf("server batch %s: %d of %d jobs failed", fin.ID, fin.Failed, fin.Jobs)
	}
	rc, err := client.Results(fin.ID)
	if err != nil {
		return err
	}
	defer rc.Close()
	loaded, err := s.Resume(rc)
	if err != nil {
		return fmt.Errorf("replaying server results: %w", err)
	}
	fmt.Printf("loaded %d results from %s\n", loaded, server)
	return nil
}

// artifact names one output file and how to produce it.
type artifact struct {
	name   string
	render func() (string, error)
}

// artifacts lists every output in writing order. All simulation goes
// through the shared sweep, so characterization runs (Tables V and VI) and
// the Fig. 5/6/7 policy runs are simulated once each.
func artifacts(s *runner.Sweep, o runner.ExpOptions) []artifact {
	static := func(content string) func() (string, error) {
		return func() (string, error) { return content, nil }
	}
	arts := []artifact{
		{"table1.txt", static(tableI())},
		{"table3.txt", static(tableIII())},
		{"table5.txt", func() (string, error) {
			rows, err := s.TableV(o)
			if err != nil {
				return "", err
			}
			return runner.FormatTableV(rows), nil
		}},
		{"table6.txt", func() (string, error) {
			rows, err := s.TableVI(o)
			if err != nil {
				return "", err
			}
			return runner.FormatTableVI(rows), nil
		}},
	}
	for _, bench := range runner.Fig1Benchmarks() {
		bench := bench
		arts = append(arts, artifact{"fig1_" + bench + ".txt", func() (string, error) {
			return fig1(s, bench, o)
		}})
	}
	arts = append(arts,
		artifact{"fig5.txt", func() (string, error) {
			rows, err := s.Fig5(o)
			if err != nil {
				return "", err
			}
			return runner.FormatNormalized("Fig. 5: Static Compression", "traffic", rows) +
				"\n" + runner.FormatNormalized("Fig. 5: Static Compression", "time", rows), nil
		}},
		artifact{"fig6.txt", func() (string, error) {
			rows, err := s.Fig6(o)
			if err != nil {
				return "", err
			}
			return runner.FormatNormalized("Fig. 6: Adaptive Compression", "traffic", rows) +
				"\n" + runner.FormatNormalized("Fig. 6: Adaptive Compression", "time", rows), nil
		}},
		artifact{"fig7.txt", func() (string, error) {
			rows, err := s.Fig7(o)
			if err != nil {
				return "", err
			}
			return runner.FormatNormalized("Fig. 7: Energy Consumption", "energy", rows), nil
		}},
		artifact{"area.txt", static(runner.FormatAreaOverhead())},
	)
	return arts
}

func fig1(s *runner.Sweep, bench string, o runner.ExpOptions) (string, error) {
	series, err := s.Fig1(bench, runner.Fig1Samples, o)
	if err != nil {
		return "", err
	}
	body := runner.FormatFig1(bench, series)
	phases := runner.SummarizeFig1Phases(series)
	body += "\nphase summary (mean compressed bytes, halves):\n"
	for _, alg := range []comp.Algorithm{comp.FPC, comp.BDI, comp.CPackZ} {
		p := phases[alg]
		body += fmt.Sprintf("  %-9v %6.1f B -> %6.1f B\n", alg, p[0], p[1])
	}
	return body, nil
}

func tableI() string {
	var t strings.Builder
	fmt.Fprintf(&t, "TABLE I: Supported data patterns\n")
	for _, p := range comp.AllDataPatterns() {
		fmt.Fprintf(&t, "%-20s FPC=%-8v BDI=%-8v C-Pack+Z=%v\n", p,
			comp.SupportedPatterns(comp.FPC)[p],
			comp.SupportedPatterns(comp.BDI)[p],
			comp.SupportedPatterns(comp.CPackZ)[p])
	}
	return t.String()
}

func tableIII() string {
	var t strings.Builder
	fmt.Fprintf(&t, "TABLE III: codec costs (7nm, 1 GHz)\n")
	for _, alg := range []comp.Algorithm{comp.FPC, comp.BDI, comp.CPackZ} {
		c := comp.CostOf(alg)
		fmt.Fprintf(&t, "%-9v comp %2d cy, decomp %2d cy, %5.0f µm², %.1f pJ/block\n",
			alg, c.CompressionCycles, c.DecompressionCycles, c.AreaUM2, c.BlockEnergyPJ())
	}
	return t.String()
}
