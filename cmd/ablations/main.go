// Command ablations writes the studies of the design choices the paper makes
// but does not sweep, and of the extensions beyond it:
//
//	ablations -out results/ablations -scale 2
//	ablations -only ablation_topology -gpus 8
//
// It is reproduce with -only defaulting to every ablation_* artifact
// (ablation_sampling, ablation_onoff, ablation_link, ablation_extensions,
// ablation_topology, ablation_l15, ablation_scale, ablation_bandwidth) and
// -out to results/ablations; the two commands share every flag, the sweep
// journal, -server batch submission and the output files. See reproduce for
// what each study measures.
package main

import (
	"flag"
	"log"
	"os"
	"path/filepath"
	"strings"

	"mgpucompress/internal/cli"
	"mgpucompress/internal/runner"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ablations: ")
	if err := run(flag.CommandLine, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run parses and validates the command line, then writes the selected
// artifacts.
func run(fs *flag.FlagSet, args []string) error {
	var names []string
	for _, a := range runner.Ablations() {
		names = append(names, a.Name)
	}
	e, err := cli.ParseExperiment(fs, args, filepath.Join("results", "ablations"), strings.Join(names, ","))
	if err != nil {
		return err
	}
	_, err = e.Run()
	return err
}
