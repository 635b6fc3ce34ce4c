// Package cli declares the flags the experiment commands share and
// validates them at the flag boundary, before a command creates any file or
// contacts a sweepd daemon. Each shared flag is declared here once, so every
// command spells, documents and checks it the same way. Experiment is the
// driver of the two artifact-writing commands, reproduce and ablations.
package cli

import (
	"errors"
	"flag"
	"fmt"

	"mgpucompress/internal/fabric"
	"mgpucompress/internal/fault"
	"mgpucompress/internal/runner"
	"mgpucompress/internal/workloads"
)

// Flags holds the parsed shared flags.
type Flags struct {
	MetricsOut string
	TraceOut   string
	// Jobs and Server are bound only by BindSweep.
	Jobs   int
	Server string

	scale, cus, gpus       int
	topology, faultProfile string
	seed                   int64
}

// Bind declares the flags of every experiment command on fs: the platform
// shape (-scale -cus -gpus -topology), the inputs (-seed -fault-profile) and
// the observability outputs (-metrics-out -trace-out).
func Bind(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.scale, "scale", int(workloads.ScaleSmall), "input scale factor")
	fs.IntVar(&f.cus, "cus", 0, "CUs per GPU (0 = default 4; the paper's full scale is 64)")
	fs.IntVar(&f.gpus, "gpus", 0, "GPU count (0 = the paper's 4)")
	fs.StringVar(&f.topology, "topology", "", "fabric topology: bus (paper), crossbar, ring, mesh or tree")
	fs.Int64Var(&f.seed, "seed", 0, "pin the workload input seed (0 = default seeds)")
	fs.StringVar(&f.faultProfile, "fault-profile", "off",
		"fault-injection profile: off|light|aggressive or k=v list (corrupt=,drop=,delay=,delaycycles=,timeout=,attempts=,degradek=)")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write the metric snapshot of every job as JSON to this file")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write a Chrome trace-event JSON timeline of every job to this file")
	return f
}

// BindSweep declares Bind's flags plus the sweep commands' -jobs and
// -server.
func BindSweep(fs *flag.FlagSet) *Flags {
	f := Bind(fs)
	JobsVar(fs, &f.Jobs)
	fs.StringVar(&f.Server, "server", "",
		"sweepd base URL (e.g. http://127.0.0.1:8372): run jobs on a resident daemon instead of simulating locally")
	return f
}

// JobsVar declares -jobs, which the sweepd daemon shares with the sweep
// commands.
func JobsVar(fs *flag.FlagSet, p *int) {
	fs.IntVar(p, "jobs", 0, "max concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
}

// Options validates the parsed flags and returns the experiment options.
// Commands call it right after parsing, so a bad configuration fails before
// any output file, journal or daemon request exists.
func (f *Flags) Options() (runner.ExpOptions, error) {
	if f.Jobs < 0 {
		return runner.ExpOptions{}, fmt.Errorf("negative -jobs %d", f.Jobs)
	}
	if f.Server != "" && f.TraceOut != "" {
		return runner.ExpOptions{}, errors.New("-trace-out requires local execution: results fetched from a daemon carry no span timeline")
	}
	prof, err := fault.Parse(f.faultProfile)
	if err != nil {
		return runner.ExpOptions{}, err
	}
	o := runner.ExpOptions{
		Scale:     workloads.Scale(f.scale),
		CUsPerGPU: f.cus,
		Seed:      f.seed,
		Fault:     prof,
		Topology:  fabric.Topology(f.topology),
		NumGPUs:   f.gpus,
	}
	if err := o.Validate(); err != nil {
		return runner.ExpOptions{}, err
	}
	return o, nil
}

// Exporter is a run or sweep whose results can be written out.
type Exporter interface {
	WriteMetricsFile(path string) error
	WriteTraceFile(path string) error
}

// WriteOutputs writes the -metrics-out and -trace-out files that were
// requested.
func (f *Flags) WriteOutputs(e Exporter) error {
	if f.MetricsOut != "" {
		if err := e.WriteMetricsFile(f.MetricsOut); err != nil {
			return err
		}
	}
	if f.TraceOut != "" {
		return e.WriteTraceFile(f.TraceOut)
	}
	return nil
}
