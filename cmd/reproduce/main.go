// Command reproduce regenerates the tables and figures of the paper, and the
// ablation studies beyond it, and writes each artifact to a results
// directory:
//
//	reproduce -out results -scale 4
//	reproduce -only table5,fig6 -scale 4
//	reproduce -only ablation_topology,ablation_l15 -scale 2
//
// -only selects artifacts by name. The default is the paper's artifacts:
// table1, table3, table5, table6, fig1_SC, fig1_FIR, fig5, fig6, fig7 and
// area. The ablations are written only when named:
//
//	ablation_sampling    sampling-phase geometry sweep on SC (Sec. V choice)
//	ablation_onoff       single-codec on/off mode on AES and MT (Sec. V)
//	ablation_link        fabric energy classes on SC (Sec. II)
//	ablation_extensions  BPC candidate set and dynamic λ on every benchmark
//	ablation_topology    every fabric topology, per-link vs global codec
//	                     selection on BS, MT and SC (ignores -topology)
//	ablation_l15         remote cache (Arunkumar et al.) × compression
//	ablation_scale       2/4/8-GPU sweep on SC (ignores -gpus)
//	ablation_bandwidth   link-width sweep on SC
//
// Each is written to <name>.txt, alongside a summary.txt index. Only the
// simulations the selected artifacts read are run, so -only table1,table3,area
// simulates nothing.
//
// All simulations are scheduled through the internal/sweep engine: the job
// plan is deduplicated (Tables V/VI share characterization runs; Fig. 7
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
// The ablations command is this command with -only defaulting to every
// ablation_* artifact and -out to results/ablations; both run
// cli.Experiment.
package main

import (
	"flag"
	"log"
	"os"

	"mgpucompress/internal/cli"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("reproduce: ")
	e, err := parse(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		log.Fatal(err)
	}
}

// parse reads and validates the command line without touching the file
// system or the network.
func parse(fs *flag.FlagSet, args []string) (cli.Experiment, error) {
	return cli.ParseExperiment(fs, args, "results", "")
}
