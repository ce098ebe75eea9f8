// Command characterize runs the structural characterization stages of
// the paper over a trace: size distributions before/after conflation
// (Fig 3), per-size-group features (Figs 4/5), the pattern census
// (§V-B) and the M/J/R task-type table (Fig 6).
//
// Usage:
//
//	characterize [-trace batch_task.csv | -gen 10000] [-sample 100] [-seed 1]
//	             [-workers N] [-cache-dir .jobgraph-cache] [-no-cache]
//	             [-lenient] [-v] [-log-json] [-debug-addr localhost:6060]
//	             [-trace-out trace.json] [-ledger results/runs/ledger.jsonl]
//
// -workers spreads the parallel stages (trace decode, filtering, the
// per-job DAG stage, the WL kernel) across that many goroutines; 0
// uses every CPU, 1 forces the bit-identical sequential pipeline.
// -cache-dir reuses pipeline stage artifacts across runs with matching
// upstream configuration (see clusterjobs for details).
package main

import (
	"flag"
	"fmt"

	"jobgraph/internal/cli"
	"jobgraph/internal/core"
	"jobgraph/internal/sampling"
)

func main() { cli.Run(run) }

func run() error {
	var (
		tracePath = flag.String("trace", "", "batch_task CSV (empty: generate)")
		gen       = flag.Int("gen", 10000, "jobs to generate when no trace given")
		sample    = flag.Int("sample", 100, "jobs to sample for the per-job tables")
		seed      = flag.Int64("seed", 1, "RNG seed")
	)
	pf := cli.RegisterPipelineFlags("characterize", true)
	flag.Parse()

	sess, err := pf.Start()
	if err != nil {
		return fmt.Errorf("characterize: %v", err)
	}
	defer sess.Close()
	defer pf.Close()

	readOpts, err := pf.ReadOptions()
	if err != nil {
		return fmt.Errorf("characterize: %v", err)
	}
	jobs, istats, err := cli.LoadOrGenerateOpts(*tracePath, *gen, *seed, readOpts)
	if err != nil {
		return fmt.Errorf("characterize: %v", err)
	}
	cands, fstats, err := sampling.FilterOpts(jobs, sampling.PaperCriteria(cli.TraceWindow()), sampling.FilterOptions{Workers: *pf.Workers})
	if err != nil {
		return fmt.Errorf("characterize: %v", err)
	}
	fmt.Printf("filtering: %d jobs in, %d eligible DAG jobs (integrity %d, availability %d, non-DAG %d)\n\n",
		fstats.Input, fstats.Kept, fstats.NotTerminated, fstats.OutsideWindow, fstats.NonDAG)

	graphs := sampling.Graphs(cands)

	fig3, err := core.Fig3Conflation(graphs)
	if err != nil {
		return fmt.Errorf("characterize: %v", err)
	}
	fmt.Println(fig3)

	rows, err := core.FigSizeGroupFeatures(graphs, false)
	if err != nil {
		return fmt.Errorf("characterize: %v", err)
	}
	fmt.Println(core.FigSizeGroupTable(rows, "Fig 4: job features before node conflation"))

	rowsC, err := core.FigSizeGroupFeatures(graphs, true)
	if err != nil {
		return fmt.Errorf("characterize: %v", err)
	}
	fmt.Println(core.FigSizeGroupTable(rowsC, "Fig 5: job features after node conflation"))

	census, _, err := core.PatternCensusTable(graphs)
	if err != nil {
		return fmt.Errorf("characterize: %v", err)
	}
	fmt.Println(census)

	// Fig 6 needs a bounded per-job table: sample first.
	cfg := core.DefaultConfig(cli.TraceWindow(), *seed)
	cfg.SampleSize = *sample
	cfg.Ingest = istats
	pf.Configure(&cfg)
	an, err := core.Run(jobs, cfg)
	if err != nil {
		return fmt.Errorf("characterize: %v", err)
	}
	for _, w := range an.Warnings {
		sess.AddWarning(w)
	}
	fmt.Println(core.Fig6TaskTypes(an))
	return nil
}
