// Command adaptiveviz reproduces the §5 adaptive visualization stack
// (Figures 11–16): a plugin pipeline with threaded producers backed
// by the layered grid and kd-tree indexes, driven through a scripted
// camera path (overview → zoom → zoom → back out) and rendered as
// ASCII frames. It prints the per-request level-of-detail and cache
// behaviour the paper describes.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/sky"
	"repro/internal/vec"
	"repro/internal/viz"
)

func main() {
	log.SetFlags(0)
	dir, err := os.MkdirTemp("", "spatialdb-viz-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := core.Open(core.Config{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if err := db.IngestSynthetic(sky.DefaultParams(120_000, 42)); err != nil {
		log.Fatal(err)
	}
	if err := db.BuildKdIndex(0); err != nil {
		log.Fatal(err)
	}
	if err := db.BuildGridIndex(1024, 7); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("catalog: %d objects; grid layers: %d; kd leaves: %d\n\n",
		db.NumRows(), db.Grid().NumLayers(), db.KdTree().NumLeaves())

	dom3 := vec.NewBox(db.Domain().Min[:3], db.Domain().Max[:3])
	points := viz.NewPointCloudProducer(db.Grid(), dom3, 2000, 8)
	boxes := viz.NewKdBoxProducer(db.KdTree(), dom3, 200)

	// Figure 16: multi-level Voronoi tessellations of catalog samples
	// (the paper demos 1K/10K/100K; two levels suffice on a terminal).
	voronoiLevels := make([]*viz.VoronoiLevel, 0, 2)
	for _, n := range []int{60, 600} {
		sample, _, err := db.SampleRegion(dom3, n)
		if err != nil {
			log.Fatal(err)
		}
		pts := make([]vec.Point, len(sample))
		for i := range sample {
			pts[i] = vec.Point{float64(sample[i].Mags[0]), float64(sample[i].Mags[1]), float64(sample[i].Mags[2])}
		}
		level, err := viz.BuildVoronoiLevel(pts)
		if err != nil {
			log.Fatal(err)
		}
		voronoiLevels = append(voronoiLevels, level)
	}
	cells := viz.NewVoronoiProducer(voronoiLevels, dom3, 100)

	app := viz.NewApp()
	app.AddPipeline(points, &viz.DecimatePipe{Max: 100_000})
	app.AddPipeline(boxes)
	app.AddPipeline(cells)
	if err := app.Start(); err != nil {
		log.Fatal(err)
	}
	defer app.Stop()

	// Scripted camera path: overview, two zooms toward the stellar
	// locus, then straight back to the overview (a cache hit).
	overview := viz.NewCamera(dom3, 2000)
	focus := overview.Zoom(0.45).Pan(vec.Point{-1.5, -1.5, -1.5})
	tight := focus.Zoom(0.5)
	script := []struct {
		name string
		cam  viz.Camera
	}{
		{"overview", overview},
		{"zoom 1", focus},
		{"zoom 2", tight},
		{"back out", overview},
	}

	r := viz.AsciiRenderer{W: 78, H: 22}
	for _, step := range script {
		app.SetCamera(step.cam)
		g, err := app.WaitFrame(30 * time.Second)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %-8s  view=%v\n", step.name, step.cam.View)
		fmt.Printf("    %d points (LOD level %d), %d kd-boxes, %d voronoi edges, cache hits so far: %d\n",
			len(g.Points), g.Level, len(g.Boxes), len(g.Lines), points.CacheHits())
		fmt.Println(r.Render(g, step.cam.View))
	}

	st := app.Stats()
	fmt.Printf("frames: %d, productions: %d, busy handoffs (nil GetOutput): %d\n",
		st.Frames, st.Productions, st.NilHandoffs)
	if points.CacheHits() < 1 {
		fmt.Println("warning: zoom-out was expected to hit the geometry cache")
	} else {
		fmt.Println("zoom-out served from the plugin's local geometry cache (no database traffic).")
	}

	renderSkyView(db, r)
}

// renderSkyView shows Figure 14: the ra/dec/redshift view of the
// large scale structure, served by the same grid index machinery
// over a derived Cartesian-sky table.
func renderSkyView(db *core.SpatialDB, r viz.AsciiRenderer) {
	cat, err := db.Catalog()
	if err != nil {
		log.Fatal(err)
	}
	recs, err := sky.SkyCatalog(cat)
	if err != nil {
		log.Fatal(err)
	}
	skyTb, err := db.Engine().CreateTable("sky.tbl")
	if err != nil {
		log.Fatal(err)
	}
	if err := skyTb.AppendAll(recs); err != nil {
		log.Fatal(err)
	}
	dom := sky.SkyDomain(3)
	gp := grid.DefaultParams(dom, 7)
	ix, err := grid.Build(skyTb, "sky.grid", gp)
	if err != nil {
		log.Fatal(err)
	}
	// Zoom into the z<0.5 neighbourhood where the galaxy clusters live.
	view := vec.NewBox(vec.Point{-0.5, -0.5, -0.5}, vec.Point{0.5, 0.5, 0.5})
	sample, stats, err := ix.Sample(view, 4000)
	if err != nil {
		log.Fatal(err)
	}
	g := &viz.GeometrySet{}
	for i := range sample {
		g.Points = append(g.Points, viz.Point{
			Pos: viz.P3{float64(sample[i].Mags[0]), float64(sample[i].Mags[1]), float64(sample[i].Mags[2])},
			Tag: uint8(sample[i].Class),
		})
	}
	fmt.Printf("\n=== Figure 14: large scale structure (ra/dec/redshift view, %d galaxies/quasars, %d layers)\n",
		len(sample), stats.LayersUsed)
	fmt.Println(r.Render(g, view))
	fmt.Println("dense knots are galaxy clusters; the view is served by the same layered grid index.")
}
