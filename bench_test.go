// Package repro's root benchmark suite regenerates the performance
// side of every table and figure in the paper's evaluation (the
// experiment index is DESIGN.md §3; cmd/experiments prints the
// corresponding text reports). One benchmark family per experiment;
// the query families (Fig2 exec, Fig5, hull) run forced-plan
// statements on the fixture's core store, the engine that serves:
//
//	Fig1  BenchmarkFig1ColorSpaceGen
//	Fig2  BenchmarkFig2LoggedQuery{Parse,Exec}
//	Fig4  BenchmarkFig4ClassifyLeaves
//	Fig5  BenchmarkFig5{FullScan,KdTree}/half=*
//	§3.1  BenchmarkGrid{Sample,TableSample,Build}, BenchmarkAblationGridStream
//	§3.2  BenchmarkKdBuild, BenchmarkAblationPruning
//	§3.3  BenchmarkKNN{Indexed,BruteForce}/k=*
//	§3.4  BenchmarkVoronoi{Walk,Query}, BenchmarkDelaunay*
//	§2.2  BenchmarkHullQuery
//	§4    BenchmarkBSTBuild, BenchmarkOutlierDetect
//	§4.1  BenchmarkPhotoZ{KNN,Template}
//	§4.2  BenchmarkSpectra{PCA,Similarity}
//	§5    BenchmarkVizPipeline, BenchmarkAdaptiveLOD
//	§3.5  BenchmarkVectorCodec*
//	plan  BenchmarkPlannerPlan (end-to-end plan/scan numbers: bench/baseline.json)
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/bst"
	"repro/internal/colorsql"
	"repro/internal/core"
	"repro/internal/delaunay"
	"repro/internal/grid"
	"repro/internal/hull"
	"repro/internal/kdtree"
	"repro/internal/knn"
	"repro/internal/outlier"
	"repro/internal/pagestore"
	"repro/internal/photoz"
	"repro/internal/planner"
	"repro/internal/sky"
	"repro/internal/spectra"
	"repro/internal/table"
	"repro/internal/vec"
	"repro/internal/viz"
	"repro/internal/voronoi"
)

// benchRows is the shared catalog size: large enough for index
// behaviour to dominate, small enough for a laptop benchmark run.
const benchRows = 50_000

// fixture is the lazily built shared world for the benchmarks: a core
// store whose catalog is kd-clustered, and beside it a page store
// holding the same rows in arrival order, over which the grid,
// Voronoi and photo-z structures are built.
type fixture struct {
	db        *core.SpatialDB
	tree      *kdtree.Tree // db's kd-tree
	kdTable   *table.Table // db's leaf-clustered catalog
	store     *pagestore.Store
	catalog   *table.Table
	searcher  *knn.Searcher
	gridIx    *grid.Index
	vorIx     *voronoi.Index
	estimator *photoz.Estimator
	dom3      vec.Box
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func sharedFixture(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		dir, err := os.MkdirTemp("", "repro-bench-*")
		if err != nil {
			fixErr = err
			return
		}
		registerBenchDir(dir)
		params := sky.DefaultParams(benchRows, 42)
		params.SpectroFrac = 0.05
		f := &fixture{}
		f.db, err = core.Open(core.Config{Dir: filepath.Join(dir, "core"), PoolPages: 16384})
		if err != nil {
			fixErr = err
			return
		}
		if err = f.db.IngestSynthetic(params); err != nil {
			fixErr = err
			return
		}
		if err = f.db.BuildKdIndex(0); err != nil {
			fixErr = err
			return
		}
		f.tree = f.db.KdTree()
		if f.kdTable, err = f.db.Catalog(); err != nil {
			fixErr = err
			return
		}
		if f.store, err = pagestore.Open(dir, 16384); err != nil {
			fixErr = err
			return
		}
		f.catalog, err = table.Create(f.store, "mag.tbl")
		if err != nil {
			fixErr = err
			return
		}
		if err = sky.GenerateTable(f.catalog, params); err != nil {
			fixErr = err
			return
		}
		f.searcher = knn.NewSearcher(f.tree, f.kdTable)
		f.dom3 = vec.NewBox(sky.Domain().Min[:3], sky.Domain().Max[:3])
		f.gridIx, err = grid.Build(f.catalog, "mag.grid.tbl", grid.DefaultParams(f.dom3, 7))
		if err != nil {
			fixErr = err
			return
		}
		vp := voronoi.DefaultParams(f.catalog.NumRows(), 7)
		f.vorIx, err = voronoi.Build(f.catalog, "mag.vor.tbl", sky.Domain(), vp)
		if err != nil {
			fixErr = err
			return
		}
		refs, err := photoz.ExtractReference(f.catalog)
		if err != nil {
			fixErr = err
			return
		}
		f.estimator, err = photoz.NewEstimator(f.store, refs, "ref.kd.tbl", 16, 1)
		if err != nil {
			fixErr = err
			return
		}
		fix = f
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fix
}

// --- Figure 1 ---------------------------------------------------------

// BenchmarkFig1ColorSpaceGen measures synthetic catalog generation,
// the substrate behind every other experiment.
func BenchmarkFig1ColorSpaceGen(b *testing.B) {
	p := sky.DefaultParams(10_000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sky.Generate(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(10_000*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// --- Figure 2 ---------------------------------------------------------

const fig2Where = `
  (dered_r - dered_i - (dered_g - dered_r)/4 - 0.18 < 0.2)
  AND (dered_r - dered_i - (dered_g - dered_r)/4 - 0.18 > -0.2)
  AND (dered_g - dered_r > 1.35 + 0.25*(dered_r - dered_i))
  AND (dered_r < 19.5)`

// BenchmarkFig2LoggedQueryParse measures compiling the logged
// SkyServer predicate to a polyhedron.
func BenchmarkFig2LoggedQueryParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := colorsql.Parse(fig2Where, colorsql.DefaultVars(), table.Dim); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2LoggedQueryExec measures executing it as the kd-tree
// index scan.
func BenchmarkFig2LoggedQueryExec(b *testing.B) {
	f := sharedFixture(b)
	q := colorsql.MustParse(fig2Where, colorsql.DefaultVars(), table.Dim).Single()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.db.QueryPolyhedron(q, core.PlanAuto); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 4 ---------------------------------------------------------

// BenchmarkFig4ClassifyLeaves measures the inside/outside/partial
// leaf classification of a color-cut polyhedron.
func BenchmarkFig4ClassifyLeaves(b *testing.B) {
	f := sharedFixture(b)
	q := colorsql.MustParse("g - r > 0.4 AND g - r < 0.9 AND u - g < 1.8",
		colorsql.DefaultVars(), table.Dim).Single()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.tree.ClassifyLeaves(q)
	}
}

// --- Figure 5 ---------------------------------------------------------

// fig5Query returns a centered box query of the given half-width.
func fig5Query(f *fixture, half float64) vec.Polyhedron {
	var rec table.Record
	f.kdTable.Get(table.RowID(f.kdTable.NumRows()/2), &rec)
	c := rec.Point()
	lo, hi := make(vec.Point, table.Dim), make(vec.Point, table.Dim)
	for d := range lo {
		lo[d], hi[d] = c[d]-half, c[d]+half
	}
	return vec.BoxPolyhedron(vec.NewBox(lo, hi))
}

// BenchmarkFig5FullScan is the "simple SQL query" baseline across
// the Figure 5 selectivity sweep: the forced full scan.
func BenchmarkFig5FullScan(b *testing.B) { benchFig5(b, core.PlanFullScan) }

// BenchmarkFig5KdTree is the kd-tree index scan PlanAuto runs across
// the same sweep; the time ratio against BenchmarkFig5FullScan is the
// Figure 5 curve.
func BenchmarkFig5KdTree(b *testing.B) { benchFig5(b, core.PlanAuto) }

// benchFig5 runs the Figure 5 sweep under plan, every row materialized.
func benchFig5(b *testing.B, plan core.Plan) {
	f := sharedFixture(b)
	for _, half := range []float64{0.2, 0.8, 3.2, 12.8} {
		q := fig5Query(f, half)
		b.Run(fmt.Sprintf("half=%.1f", half), func(b *testing.B) {
			var returned int
			for i := 0; i < b.N; i++ {
				recs, _, err := f.db.QueryPolyhedron(q, plan)
				if err != nil {
					b.Fatal(err)
				}
				returned = len(recs)
			}
			b.ReportMetric(float64(returned), "rows")
		})
	}
}

// --- §3.1 layered grid ------------------------------------------------

// BenchmarkGridSample measures the adaptive distribution-following
// sample at the paper's request sizes.
func BenchmarkGridSample(b *testing.B) {
	f := sharedFixture(b)
	zoom := vec.NewBox(vec.Point{15, 15, 14}, vec.Point{23, 22, 21})
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				recs, _, err := f.gridIx.Sample(zoom, n)
				if err != nil {
					b.Fatal(err)
				}
				if len(recs) == 0 {
					b.Fatal("empty sample")
				}
			}
		})
	}
}

// BenchmarkGridTableSample is the TABLESAMPLE baseline the paper
// abandoned.
func BenchmarkGridTableSample(b *testing.B) {
	f := sharedFixture(b)
	zoom := vec.NewBox(vec.Point{15, 15, 14}, vec.Point{23, 22, 21})
	for i := 0; i < b.N; i++ {
		if _, _, err := grid.TableSample(f.catalog, zoom, 1000, 20, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §3.1/§3.2 index construction ------------------------------------

// buildRows is the build benchmarks' catalog size: the bench harness's
// 200K rows, where the two builds are most of a set-up.
const buildRows = 200_000

// benchBuild times build over a fresh buildRows-row catalog in
// arrival order, the kd build's input; each run writes its clustered
// copy under a new name.
func benchBuild(b *testing.B, build func(tb *table.Table, name string) error) {
	s, err := pagestore.Open(b.TempDir(), 16384)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	tb, err := table.Create(s, "mag.tbl")
	if err != nil {
		b.Fatal(err)
	}
	if err := sky.GenerateTable(tb, sky.DefaultParams(buildRows, 42)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := build(tb, fmt.Sprintf("copy.%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buildRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkKdBuild measures the §3.2 kd-tree build (the paper's
// 12-hour offline step): partition, leaf sorts and the clustered copy.
func BenchmarkKdBuild(b *testing.B) {
	benchBuild(b, func(tb *table.Table, name string) error {
		_, _, err := kdtree.Build(tb, name, kdtree.BuildParams{Domain: sky.Domain()})
		return err
	})
}

// BenchmarkGridBuild measures the §3.1 layered grid build: layer and
// cell tags, the clustered order and the clustered copy.
func BenchmarkGridBuild(b *testing.B) {
	dom3 := vec.NewBox(sky.Domain().Min[:3], sky.Domain().Max[:3])
	benchBuild(b, func(tb *table.Table, name string) error {
		_, err := grid.Build(tb, name, grid.DefaultParams(dom3, 7))
		return err
	})
}

// --- §3.3 kNN ----------------------------------------------------------

// BenchmarkKNNIndexed measures the boundary-point kNN.
func BenchmarkKNNIndexed(b *testing.B) {
	f := sharedFixture(b)
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var rec table.Record
				f.kdTable.Get(table.RowID(rng.Intn(int(f.kdTable.NumRows()))), &rec)
				if _, _, err := f.searcher.Search(rec.Point(), k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKNNBruteForce is the no-index baseline.
func BenchmarkKNNBruteForce(b *testing.B) {
	f := sharedFixture(b)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < b.N; i++ {
		var rec table.Record
		f.kdTable.Get(table.RowID(rng.Intn(int(f.kdTable.NumRows()))), &rec)
		if _, _, err := knn.BruteForce(f.kdTable, rec.Point(), 10); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §3.4 Voronoi ------------------------------------------------------

// BenchmarkVoronoiWalk measures directed-walk point location.
func BenchmarkVoronoiWalk(b *testing.B) {
	f := sharedFixture(b)
	rng := rand.New(rand.NewSource(5))
	var steps int
	for i := 0; i < b.N; i++ {
		var rec table.Record
		f.vorIx.Table().Get(table.RowID(rng.Intn(int(f.vorIx.Table().NumRows()))), &rec)
		_, st := f.vorIx.DirectedWalk(rec.Point(), rng.Intn(f.vorIx.NumCells()))
		steps += st
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/walk")
}

// BenchmarkVoronoiQuery measures polyhedron queries through the cell
// index.
func BenchmarkVoronoiQuery(b *testing.B) {
	f := sharedFixture(b)
	q := fig5Query(f, 1.6)
	for i := 0; i < b.N; i++ {
		if _, _, err := f.vorIx.QueryPolyhedron(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDelaunayBuild measures exact Bowyer–Watson construction
// in the dimensions of the §3.4 statistics table.
func BenchmarkDelaunayBuild(b *testing.B) {
	for _, dim := range []int{2, 3, 5} {
		rng := rand.New(rand.NewSource(7))
		pts := make([]vec.Point, 40)
		for i := range pts {
			p := make(vec.Point, dim)
			for d := range p {
				p[d] = rng.Float64()
			}
			pts[i] = p
		}
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := delaunay.Build(pts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWitnessGraph measures the approximate Delaunay graph
// construction used at scale.
func BenchmarkWitnessGraph(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	seeds := make([]vec.Point, 500)
	for i := range seeds {
		seeds[i] = vec.Point{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wg, err := delaunay.NewWitnessGraph(seeds)
		if err != nil {
			b.Fatal(err)
		}
		wg.AddRandomWitnesses(5000, 11)
	}
}

// --- §4 BST ------------------------------------------------------------

// BenchmarkBSTBuild measures basin spanning forest construction plus
// evaluation over the shared Voronoi index.
func BenchmarkBSTBuild(b *testing.B) {
	f := sharedFixture(b)
	vols := f.vorIx.MonteCarloVolumes(20_000, 11)
	dens := f.vorIx.Densities(vols)
	adj := make([][]int, f.vorIx.NumCells())
	for c := range adj {
		adj[c] = f.vorIx.Neighbors(c)
	}
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		forest, err := bst.Build(adj, dens)
		if err != nil {
			b.Fatal(err)
		}
		ev, err := bst.Evaluate(f.vorIx, forest)
		if err != nil {
			b.Fatal(err)
		}
		acc = ev.Accuracy
	}
	b.ReportMetric(100*acc, "accuracy%")
}

// --- §4.1 photo-z -------------------------------------------------------

// BenchmarkPhotoZKNN measures per-object kNN polynomial estimation.
func BenchmarkPhotoZKNN(b *testing.B) {
	f := sharedFixture(b)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < b.N; i++ {
		z := rng.Float64() * 0.4
		if _, err := f.estimator.Estimate(sky.GalaxyColors(z, 18)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhotoZTemplate measures per-object template fitting.
func BenchmarkPhotoZTemplate(b *testing.B) {
	tf, err := photoz.NewTemplateFitter(0, 0.8, 401, [5]float64{0.2, -0.15, 0.1, -0.12, 0.15})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tf.Estimate(sky.GalaxyColors(rng.Float64()*0.4, 18))
	}
}

// --- §4.2 spectra --------------------------------------------------------

// BenchmarkSpectraPCA measures the snapshot Karhunen–Loève fit over
// 3000-bin spectra.
func BenchmarkSpectraPCA(b *testing.B) {
	ds := spectra.GenerateDataset(128, 0.05, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := pagestore.Open(b.TempDir(), 1024)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := spectra.BuildService(s, ds, 128, "spec"); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

// BenchmarkSpectraSimilarity measures one similarity lookup.
func BenchmarkSpectraSimilarity(b *testing.B) {
	s, err := pagestore.Open(b.TempDir(), 4096)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ds := spectra.GenerateDataset(500, 0.05, 11)
	svc, err := spectra.BuildService(s, ds, 256, "spec")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.MostSimilar(ds.Spectra[i%len(ds.Spectra)], 3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §5 visualization ----------------------------------------------------

// BenchmarkVizPipeline measures a full camera-change → production →
// frame cycle through the threaded plugin pipeline.
func BenchmarkVizPipeline(b *testing.B) {
	f := sharedFixture(b)
	p := viz.NewPointCloudProducer(f.gridIx, f.dom3, 1000, 2)
	app := viz.NewApp()
	app.AddPipeline(p)
	if err := app.Start(); err != nil {
		b.Fatal(err)
	}
	defer app.Stop()
	overview := viz.NewCamera(f.dom3, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate two cameras so the tiny cache never serves both.
		cam := overview.Zoom(0.5 + 0.001*float64(i%97))
		app.SetCamera(cam)
		if _, err := app.WaitFrame(30 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptiveLOD measures the zoom-in/out script with cache
// hits (Figures 14-16 behaviour).
func BenchmarkAdaptiveLOD(b *testing.B) {
	f := sharedFixture(b)
	p := viz.NewPointCloudProducer(f.gridIx, f.dom3, 1000, 8)
	app := viz.NewApp()
	app.AddPipeline(p)
	if err := app.Start(); err != nil {
		b.Fatal(err)
	}
	defer app.Stop()
	overview := viz.NewCamera(f.dom3, 1000)
	zoomed := overview.Zoom(0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cam := range []viz.Camera{overview, zoomed, overview} {
			app.SetCamera(cam)
			if _, err := app.WaitFrame(30 * time.Second); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(p.CacheHits())/float64(b.N), "cacheHits/op")
}

// --- §2.2 / §4 extensions ------------------------------------------------

// BenchmarkHullQuery measures the convex-hull similar-object search
// of §2.2 (training-set hull → kd-tree index scan).
func BenchmarkHullQuery(b *testing.B) {
	f := sharedFixture(b)
	var training []vec.Point
	f.kdTable.Scan(func(_ table.RowID, r *table.Record) bool {
		if r.Class == table.Quasar && len(training) < 40 {
			training = append(training, r.Point())
		}
		return len(training) < 40
	})
	p := hull.DefaultParams(table.Dim)
	h, err := hull.Build(training, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.db.QueryPolyhedron(h, core.PlanAuto); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOutlierDetect measures the §4 volume-based outlier pass
// (excluding the Monte-Carlo volume estimation, which is a build
// step).
func BenchmarkOutlierDetect(b *testing.B) {
	f := sharedFixture(b)
	vols := f.vorIx.MonteCarloVolumes(20_000, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := outlier.Detect(f.vorIx, vols, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations ---------------------------------------------------------

// BenchmarkAblationPruning compares the kd-tree's tight-bounds
// pruning (the design DESIGN.md calls out) against pruning on
// partition cells, in memory: the rows the index scan's ranges cover
// against the rows of the leaves whose partition cell is not Outside.
func BenchmarkAblationPruning(b *testing.B) {
	f := sharedFixture(b)
	q := fig5Query(f, 0.8)
	b.Run("tightBounds", func(b *testing.B) {
		var rows int64
		for i := 0; i < b.N; i++ {
			ranges, _ := f.tree.CollectRanges([]vec.Polyhedron{q})
			rows = 0
			for _, r := range ranges {
				rows += int64(r.Hi - r.Lo)
			}
		}
		b.ReportMetric(float64(rows), "rowsExamined")
	})
	b.Run("partitionCells", func(b *testing.B) {
		var rows int64
		for i := 0; i < b.N; i++ {
			rows = 0
			for _, ni := range f.tree.LeafNodes {
				if n := &f.tree.Nodes[ni]; q.ClassifyBox(n.Cell) != vec.Outside {
					rows += int64(n.RowHi - n.RowLo)
				}
			}
		}
		b.ReportMetric(float64(rows), "rowsExamined")
	})
}

// BenchmarkAblationGridStream compares buffered Sample with the
// streaming variant (§3.1's future-work feature).
func BenchmarkAblationGridStream(b *testing.B) {
	f := sharedFixture(b)
	zoom := vec.NewBox(vec.Point{15, 15, 14}, vec.Point{23, 22, 21})
	b.Run("buffered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := f.gridIx.Sample(zoom, 1000); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("streaming", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			_, err := f.gridIx.SampleStream(zoom, 1000, func(*table.Record) bool {
				n++
				return true
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- cost-based planner --------------------------------------------------

// BenchmarkPlannerPlan measures the cost of one planning decision
// across the Figure 5 selectivity sweep and colour cuts whose bounding
// boxes cover most of the catalog — the overhead PlanAuto adds to every
// query, which must stay microseconds. The estimate is counted on the
// grid's layer 1.
func BenchmarkPlannerPlan(b *testing.B) {
	f := sharedFixture(b)
	pl := &planner.Planner{Catalog: f.kdTable, Kd: f.tree, Sample: f.gridIx.FirstLayer()}
	type where struct {
		name    string
		clauses []vec.Polyhedron
	}
	var wheres []where
	for _, half := range []float64{0.2, 0.8, 3.2, 12.8} {
		wheres = append(wheres, where{fmt.Sprintf("half=%.1f", half), []vec.Polyhedron{fig5Query(f, half)}})
	}
	for _, cut := range []string{"g - r > 0.5 AND g - r < 0.55", "g - r > 1.2 AND r - i > 0.6", "u - g < 0.6 AND g - r < 0.3"} {
		wheres = append(wheres, where{cut, colorsql.MustParse(cut, colorsql.DefaultVars(), table.Dim).Polys})
	}
	for _, w := range wheres {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			var sel float64
			for i := 0; i < b.N; i++ {
				c, err := pl.Plan(w.clauses)
				if err != nil {
					b.Fatal(err)
				}
				sel = c.Est.Selectivity
			}
			b.ReportMetric(sel, "estSel")
		})
	}
}

// --- §3.5 vector codecs ----------------------------------------------------

// BenchmarkVectorCodec measures decode throughput of the three §3.5
// codecs over an encoded batch; the paper's claim is blob-unsafe ≈
// native with ≤20% scan overhead, UDT (gob) far behind.
func BenchmarkVectorCodec(b *testing.B) {
	recs, err := sky.Generate(sky.DefaultParams(2000, 42))
	if err != nil {
		b.Fatal(err)
	}
	for _, codec := range []table.Codec{table.NativeCodec{}, table.BlobCodec{}, table.GobCodec{}} {
		var buf []byte
		for i := range recs {
			buf, err = codec.Encode(buf, &recs[i])
			if err != nil {
				b.Fatal(err)
			}
		}
		b.Run(codec.Name(), func(b *testing.B) {
			b.SetBytes(int64(len(buf)))
			var rec table.Record
			for i := 0; i < b.N; i++ {
				src := buf
				for len(src) > 0 {
					src, err = codec.Decode(src, &rec)
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- kNN serving ------------------------------------------------------

// BenchmarkKnnBatch runs 256 k = 10 probes on a 50 000-row kd store two
// ways: a loop over the §3.3 region-growing searcher (knn.Searcher),
// and core.NearestNeighborsBatch — every probe its statement ORDER BY
// dist(p) LIMIT k, walked best kd node first — which serves /knn.
func BenchmarkKnnBatch(b *testing.B) {
	db, err := core.Open(core.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if err := db.IngestSynthetic(sky.DefaultParams(benchRows, 42)); err != nil {
		b.Fatal(err)
	}
	if err := db.BuildKdIndex(0); err != nil {
		b.Fatal(err)
	}
	catalog, err := db.Catalog()
	if err != nil {
		b.Fatal(err)
	}
	searcher := knn.NewSearcher(db.KdTree(), catalog)
	rng := rand.New(rand.NewSource(17))
	const batch = 256
	queries := make([]vec.Point, batch)
	for i := range queries {
		var rec table.Record
		catalog.Get(table.RowID(rng.Intn(int(catalog.NumRows()))), &rec)
		queries[i] = rec.Point()
	}
	b.Run("searcher", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				if _, _, err := searcher.Search(q, 10); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := db.NearestNeighborsBatch(context.Background(), queries, 10); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	})
}
