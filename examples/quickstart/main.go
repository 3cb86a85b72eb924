// Command quickstart is the smallest end-to-end tour of the public
// API: generate a synthetic SDSS-like catalog, build the kd-tree
// index, run a Figure 2-style color-cut query under different plans,
// and fetch nearest neighbours — the §3.2/§3.3 workflow.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/sky"
)

func main() {
	log.SetFlags(0)
	dir, err := os.MkdirTemp("", "spatialdb-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Open a database and load a 100K-object catalog.
	db, err := core.Open(core.Config{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	const n = 100_000
	if err := db.IngestSynthetic(sky.DefaultParams(n, 42)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("catalog: %d objects in 5-D magnitude space\n", db.NumRows())

	// 2. Build the kd-tree index (the paper's √N-leaves rule).
	if err := db.BuildKdIndex(0); err != nil {
		log.Fatal(err)
	}
	st := db.KdTree().Stats()
	fmt.Printf("kd-tree: %d levels, %d leaves, ~%.0f rows/leaf\n",
		st.Levels, st.Leaves, st.MeanLeafRows)

	// 3. A color-cut query in the mini-SQL of the SkyServer log.
	where := "g - r > 0.4 AND g - r < 1.0 AND r < 19.5"
	for _, plan := range []core.Plan{core.PlanFullScan, core.PlanAuto} {
		recs, rep, err := db.QueryWhere(where, plan)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query[%-8s]: %6d rows, %6d examined, %5d disk reads\n",
			rep.Plan, len(recs), rep.RowsExamined, rep.DiskReads)
	}

	// 4. Nearest neighbours of a known galaxy color.
	probe := sky.GalaxyColors(0.15, 18)
	nbs, knnRep, err := db.NearestNeighbors(probe, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("5 nearest neighbours of %v (%d leaves, %d rows examined):\n",
		probe, knnRep.LeavesExamined, knnRep.RowsExamined)
	for i, nb := range nbs {
		fmt.Printf("  %d. obj %-8d class=%-7s z=%.3f\n", i+1, nb.ObjID, nb.Class, nb.Redshift)
	}
}
