// Patternmining: run the §V-B structural census over a large synthetic
// trace — shape taxonomy shares, size/critical-path/width tables, node
// conflation effect, and recurring-structure detection via canonical
// signatures.
package main

import (
	"fmt"
	"log"
	"sort"

	"jobgraph/internal/core"
	"jobgraph/internal/dag"
	"jobgraph/internal/report"
	"jobgraph/internal/sampling"
	"jobgraph/internal/tracegen"
)

func main() {
	jobs, err := tracegen.GenerateJobs(tracegen.DefaultConfig(20000, 7))
	if err != nil {
		log.Fatal(err)
	}
	cands, fstats, err := sampling.FilterOpts(jobs, sampling.PaperCriteria(2*8*24*3600), sampling.FilterOptions{Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	graphs := sampling.Graphs(cands)
	fmt.Printf("trace: %d jobs, %d eligible DAG jobs (%.1f%% of batch workload has dependencies)\n\n",
		fstats.Input, fstats.Kept, 100*float64(fstats.Kept+fstats.SizeRejected)/float64(fstats.Input))

	// Shape census.
	tbl, census, err := core.PatternCensusTable(graphs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(tbl)
	_ = census

	// Size-group features (Fig 4) as bar chart.
	rows, err := core.FigSizeGroupFeatures(graphs, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("job count per size group:")
	maxCount := 0
	for _, r := range rows {
		if r.Count > maxCount {
			maxCount = r.Count
		}
	}
	for _, r := range rows {
		fmt.Println(report.Bar(fmt.Sprintf("size %d", r.Size), float64(r.Count), float64(maxCount), 50))
	}
	fmt.Println()

	// Recurring structures: identical canonical signatures across jobs.
	bySig := make(map[dag.Signature]int)
	for _, g := range graphs {
		bySig[g.CanonicalSignature()]++
	}
	type sigCount struct {
		sig dag.Signature
		n   int
	}
	var top []sigCount
	for s, n := range bySig {
		top = append(top, sigCount{s, n})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].n > top[j].n })
	fmt.Printf("distinct topologies: %d across %d jobs\n", len(bySig), len(graphs))
	fmt.Println("most recurrent structures:")
	for i := 0; i < 5 && i < len(top); i++ {
		// Find one exemplar for the signature.
		for _, g := range graphs {
			if g.CanonicalSignature() == top[i].sig {
				fmt.Printf("  %5d jobs share structure of %s (%d tasks, %d edges)\n",
					top[i].n, g.JobID, g.Size(), g.NumEdges())
				break
			}
		}
	}
}
