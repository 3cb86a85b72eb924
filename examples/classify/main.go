// Command classify demonstrates the paper's classification and data
// mining workloads end to end (§2.2 and §4):
//
//  1. classify-by-example: a convex hull around a few dozen
//     spectroscopically confirmed quasars retrieves quasar candidates
//     from the whole catalog;
//  2. unsupervised classification: basin spanning trees over Voronoi
//     cell densities recover the spectral classes without any labels
//     (Figure 6's 92%);
//  3. outlier detection from Voronoi cell volumes (§4).
//
// The serving store keeps no Voronoi index; the example builds one over
// the store's catalog on demand, as every §4 application does. Its
// cell-clustered copy lands in the example's throwaway store directory.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/bst"
	"repro/internal/core"
	"repro/internal/hull"
	"repro/internal/outlier"
	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vec"
	"repro/internal/voronoi"
)

func main() {
	log.SetFlags(0)
	dir, err := os.MkdirTemp("", "spatialdb-classify-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := core.Open(core.Config{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	params := sky.DefaultParams(60_000, 42)
	params.SpectroFrac = 0.02
	if err := db.IngestSynthetic(params); err != nil {
		log.Fatal(err)
	}
	if err := db.BuildKdIndex(0); err != nil {
		log.Fatal(err)
	}
	cat, err := db.Catalog()
	if err != nil {
		log.Fatal(err)
	}
	vp := voronoi.DefaultParams(cat.NumRows(), 7)
	vp.NumSeeds = int(cat.NumRows()) / 10
	ix, err := voronoi.Build(cat, "mag.vor", db.Domain(), vp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("catalog: %d objects, %d Voronoi cells\n\n", db.NumRows(), ix.NumCells())

	// --- 1. Classify by example (§2.2) -------------------------------
	var training []vec.Point
	totalQuasars := 0
	cat.Scan(func(_ table.RowID, r *table.Record) bool {
		if r.Class == table.Quasar {
			totalQuasars++
			if r.HasZ && len(training) < 50 {
				training = append(training, r.Point())
			}
		}
		return true
	})
	hp := hull.DefaultParams(table.Dim)
	hp.Margin = 0.2
	h, err := hull.Build(training, hp)
	if err != nil {
		log.Fatal(err)
	}
	recs, rep, err := db.QueryPolyhedron(h, core.PlanAuto)
	if err != nil {
		log.Fatal(err)
	}
	hits := 0
	for i := range recs {
		if recs[i].Class == table.Quasar {
			hits++
		}
	}
	fmt.Printf("1. hull around %d confirmed quasars (of %d in catalog):\n", len(training), totalQuasars)
	fmt.Printf("   %d candidates via %v, precision %.2f, recall %.2f (base rate %.1f%%)\n\n",
		len(recs), rep.Plan, float64(hits)/float64(len(recs)),
		float64(hits)/float64(totalQuasars), 100*float64(totalQuasars)/float64(db.NumRows()))

	// --- 2. Unsupervised basins (§4, Figure 6) ------------------------
	vols := ix.MonteCarloVolumes(20*ix.NumCells(), 11)
	dens := ix.Densities(vols)
	adj := make([][]int, ix.NumCells())
	for c := range adj {
		adj[c] = ix.Neighbors(c)
	}
	forest, err := bst.Build(adj, dens)
	if err != nil {
		log.Fatal(err)
	}
	ev, err := bst.Evaluate(ix, forest)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2. basin spanning trees: %d basins from %d cells\n", ev.Basins, ix.NumCells())
	fmt.Printf("   unsupervised classification accuracy %.1f%% over %d objects (paper: 92%%)\n\n",
		100*ev.Accuracy, ev.Objects)

	// --- 3. Outliers from cell volumes (§4) ---------------------------
	res, err := outlier.Detect(ix, ix.MonteCarloVolumes(20*ix.NumCells(), 13), 0.03)
	if err != nil {
		log.Fatal(err)
	}
	oev, err := outlier.Evaluate(ix, res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("3. outlier detection (sparsest 3%% of cells): flagged %d objects\n", len(res.Rows))
	fmt.Printf("   precision %.2f, recall %.2f, enrichment %.0fx over the base rate\n",
		oev.Precision, oev.Recall, oev.Enrichment)
	err = ix.Table().GetMany(res.Rows[:min(len(res.Rows), 3)], func(_ table.RowID, r *table.Record) bool {
		fmt.Printf("   e.g. obj %-8d mags=(%.1f %.1f %.1f %.1f %.1f) true class: %s\n",
			r.ObjID, r.Mags[0], r.Mags[1], r.Mags[2], r.Mags[3], r.Mags[4], r.Class)
		return true
	})
	if err != nil {
		log.Fatal(err)
	}
}
