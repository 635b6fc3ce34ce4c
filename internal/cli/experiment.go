package cli

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mgpucompress/internal/runner"
	"mgpucompress/internal/serve"
	"mgpucompress/internal/sweep"
)

// Experiment is a validated artifact-writing command line: the commands
// reproduce and ablations differ only in the defaults of -out and -only.
type Experiment struct {
	out, resume string
	quiet       bool
	flags       *Flags
	opts        runner.ExpOptions
	arts        []runner.Artifact
}

// ParseExperiment declares BindSweep's flags plus -out, -resume, -quiet and
// -only on fs, parses args and validates them without touching the file
// system or the network. out and only are the defaults of -out and -only;
// an empty -only selects the paper's artifacts.
func ParseExperiment(fs *flag.FlagSet, args []string, out, only string) (Experiment, error) {
	e := Experiment{flags: BindSweep(fs)}
	fs.StringVar(&e.out, "out", out, "output directory")
	fs.StringVar(&e.resume, "resume", "", "JSONL job journal: replayed if it exists, appended to as jobs finish")
	fs.BoolVar(&e.quiet, "quiet", false, "suppress per-job progress lines")
	sel := fs.String("only", only, "comma-separated artifacts to write (empty = the paper's): "+
		strings.Join(runner.ArtifactNames(), ","))
	if err := fs.Parse(args); err != nil {
		return e, err
	}
	var err error
	if e.opts, err = e.flags.Options(); err != nil {
		return e, err
	}
	e.arts, err = runner.SelectArtifacts(*sel)
	return e, err
}

// Run simulates the selected artifacts' plan, writes them and returns the
// sweep counters.
func (e Experiment) Run() (sweep.Progress, error) {
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return sweep.Progress{}, err
	}
	scale := int(e.opts.Scale)
	start := time.Now()

	jobs := e.flags.Jobs
	if jobs == 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	cfg := runner.SweepConfig{Jobs: jobs, Trace: e.flags.TraceOut != ""}

	// The journal file doubles as resume input (read first) and sink
	// (appended to as new jobs finish).
	var journal *os.File
	if e.resume != "" {
		f, err := os.OpenFile(e.resume, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
		if err != nil {
			return sweep.Progress{}, err
		}
		defer f.Close()
		journal = f
		cfg.Journal = f
	}

	plan := runner.Plan(e.arts, e.opts)
	total := len(plan)
	if !e.quiet {
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
			return sweep.Progress{}, fmt.Errorf("replaying %s: %w", e.resume, err)
		}
		if loaded > 0 {
			fmt.Printf("resumed %d finished jobs from %s\n", loaded, e.resume)
		}
		// A journal killed mid-write ends with a partial line and no
		// newline; terminate it so the first appended record stays intact.
		if st, err := journal.Stat(); err == nil && st.Size() > 0 {
			buf := make([]byte, 1)
			if _, err := journal.ReadAt(buf, st.Size()-1); err == nil && buf[0] != '\n' {
				if _, err := journal.Write([]byte("\n")); err != nil {
					return sweep.Progress{}, fmt.Errorf("terminating %s: %w", e.resume, err)
				}
			}
		}
	}

	// Phase 1: simulate the whole deduplicated plan at full parallelism —
	// either locally or as one batch on a resident sweepd daemon. Even if an
	// artifact later fails to assemble, every completed job has already been
	// streamed to the journal (local) or the daemon's store (server) for the
	// next attempt. A daemon rejects empty batches, so a static-only
	// selection never contacts it.
	if server := e.flags.Server; server != "" && total > 0 {
		fmt.Printf("plan: %d unique jobs (scale %d, server %s)\n", total, scale, server)
		if err := serverPrefetch(s, server, plan, e.quiet); err != nil {
			return sweep.Progress{}, err
		}
	} else {
		fmt.Printf("plan: %d unique jobs (scale %d, %d workers)\n", total, scale, jobs)
		if err := s.Prefetch(plan); err != nil {
			return sweep.Progress{}, err
		}
	}

	// Phase 2: assemble artifacts — pure cache hits from here on.
	var index []string
	write := func(name, content string) error {
		path := filepath.Join(e.out, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return err
		}
		index = append(index, name)
		fmt.Printf("wrote %s (%d bytes)\n", path, len(content))
		return nil
	}
	for _, a := range e.arts {
		content, err := a.Render(s, e.opts)
		if err != nil {
			return sweep.Progress{}, fmt.Errorf("%s: %w", a.Name, err)
		}
		if err := write(a.Name+".txt", content); err != nil {
			return sweep.Progress{}, err
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
		return sweep.Progress{}, err
	}
	if err := e.flags.WriteOutputs(s); err != nil {
		return sweep.Progress{}, err
	}
	fmt.Printf("sweep: %s (total %s)\n", stats, time.Since(start).Round(time.Millisecond))
	return stats, nil
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
