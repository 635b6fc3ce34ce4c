// Command ablations runs the extension and design-choice studies that go
// beyond the paper's evaluation:
//
//	ablations -study sampling   sampling-phase geometry sweep (Sec. V choice)
//	ablations -study onoff      single-codec on/off mode (Sec. V)
//	ablations -study link       fabric energy classes (Sec. II)
//	ablations -study extensions BPC candidate set + dynamic λ
//	ablations -study topology   every fabric topology, per-link vs global
//	                            codec selection (ignores -topology)
//	ablations -study l15        remote cache (Arunkumar et al.) × compression
//	ablations -study scale      GPU-count sweep
//	ablations -study bandwidth  link-width sweep
//	ablations -study all        everything
//
// With -server each job executes on a resident sweepd daemon instead of the
// local simulator; study output is byte-identical either way.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"mgpucompress/internal/cli"
	"mgpucompress/internal/runner"
	"mgpucompress/internal/serve"
	"mgpucompress/internal/sweep"
)

// studies lists every study in -study all order. Each renders one ablation;
// single-benchmark studies use -bench, the others pick their own sets.
var studies = []struct {
	name string
	run  func(s *runner.Sweep, bench string, o runner.ExpOptions) (string, error)
}{
	{"sampling", func(s *runner.Sweep, bench string, o runner.ExpOptions) (string, error) {
		rows, err := s.SamplingAblation(bench, o)
		return runner.FormatSamplingAblation(bench, rows), err
	}},
	{"onoff", func(s *runner.Sweep, _ string, o runner.ExpOptions) (string, error) {
		rows, err := s.OnOffAblation([]string{"AES", "MT"}, o)
		return runner.FormatOnOffAblation(rows), err
	}},
	{"link", func(s *runner.Sweep, bench string, o runner.ExpOptions) (string, error) {
		rows, err := s.LinkClassAblation(bench, o)
		return runner.FormatLinkClassAblation(bench, rows), err
	}},
	{"extensions", func(s *runner.Sweep, _ string, o runner.ExpOptions) (string, error) {
		rows, err := s.ExtensionAblation(runner.Benchmarks(), o)
		return runner.FormatExtensionAblation(rows), err
	}},
	{"topology", func(s *runner.Sweep, _ string, o runner.ExpOptions) (string, error) {
		rows, err := s.TopologyAblation([]string{"BS", "MT", "SC"}, o)
		return runner.FormatTopologyAblation(rows), err
	}},
	{"l15", func(s *runner.Sweep, _ string, o runner.ExpOptions) (string, error) {
		rows, err := s.RemoteCacheAblation([]string{"SC", "MT", "AES"}, o)
		return runner.FormatRemoteCacheAblation(rows), err
	}},
	{"scale", func(s *runner.Sweep, bench string, o runner.ExpOptions) (string, error) {
		rows, err := s.ScalabilityAblation(bench, o, []int{2, 4, 8})
		return runner.FormatScalabilityAblation(rows), err
	}},
	{"bandwidth", func(s *runner.Sweep, bench string, o runner.ExpOptions) (string, error) {
		rows, err := s.BandwidthAblation(bench, o, []int{5, 10, 20, 40, 80, 160})
		return runner.FormatBandwidthAblation(bench, rows), err
	}},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ablations: ")
	if err := run(flag.CommandLine, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(fs *flag.FlagSet, args []string) error {
	name := fs.String("study", "all", "sampling|onoff|link|extensions|topology|l15|scale|bandwidth|all")
	bench := fs.String("bench", "SC", "benchmark for single-benchmark studies")
	f := cli.BindSweep(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	o, err := f.Options()
	if err != nil {
		return err
	}
	selected := studies
	if *name != "all" {
		selected = nil
		for _, st := range studies {
			if st.name == *name {
				selected = append(selected, st)
			}
		}
		if selected == nil {
			return fmt.Errorf("unknown study %q", *name)
		}
	}

	// One shared sweep across studies: -study all re-uses baseline and
	// adaptive runs that several studies have in common.
	cfg := runner.SweepConfig{Jobs: f.Jobs, Trace: f.TraceOut != ""}
	if f.Server != "" {
		cfg.Run = remoteRun(&serve.Client{BaseURL: f.Server})
	}
	s := runner.NewSweep(cfg)
	for _, st := range selected {
		out, err := st.run(s, *bench, o)
		if err != nil {
			return err
		}
		if len(selected) > 1 {
			fmt.Printf("=== %s ===\n%s\n", st.name, out)
		} else {
			fmt.Print(out)
		}
	}
	return f.WriteOutputs(s)
}

// remoteRun adapts a sweepd client to the sweep engine's run-function shape:
// each job becomes a single-key batch on the daemon, whose memo cache makes
// repeats free. The local engine keeps its own cache, ordering and progress
// accounting, so studies behave identically either way.
func remoteRun(c *serve.Client) func(sweep.JobKey) (*runner.Result, error) {
	return func(k sweep.JobKey) (*runner.Result, error) {
		raw, err := c.RunJob(k)
		if err != nil {
			return nil, err
		}
		res := new(runner.Result)
		if err := json.Unmarshal(raw, res); err != nil {
			return nil, fmt.Errorf("decoding remote result %s: %w", k.Fingerprint(), err)
		}
		return res, nil
	}
}
