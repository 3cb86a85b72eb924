package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/sky"
	"repro/internal/vec"
	"repro/internal/viz"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func sqrtMath(x float64) float64 { return math.Sqrt(x) }

func absF(x float64) float64 { return math.Abs(x) }

// runVizScript drives the §5 pipeline through a camera script. With
// lodDetail it prints per-step LOD numbers (Figures 14-16);
// otherwise it reports the threading/caching counters (§5.1).
func runVizScript(n int, seed int64, lodDetail bool) error {
	dir, err := os.MkdirTemp("", "repro-exp-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	db, err := core.Open(core.Config{Dir: dir})
	if err != nil {
		return err
	}
	defer db.Close()
	if err := db.IngestSynthetic(sky.DefaultParams(n, seed)); err != nil {
		return err
	}
	if err := db.BuildKdIndex(0); err != nil {
		return err
	}
	if err := db.BuildGridIndex(1024, seed); err != nil {
		return err
	}

	dom3 := vec.NewBox(db.Domain().Min[:3], db.Domain().Max[:3])
	points := viz.NewPointCloudProducer(db.Grid(), dom3, 2000, 8)
	boxes := viz.NewKdBoxProducer(db.KdTree(), dom3, 500)
	app := viz.NewApp()
	app.AddPipeline(points)
	app.AddPipeline(boxes)
	if err := app.Start(); err != nil {
		return err
	}
	defer app.Stop()

	overview := viz.NewCamera(dom3, 2000)
	script := []struct {
		name string
		cam  viz.Camera
	}{
		{"overview", overview},
		{"zoom1", overview.Zoom(0.5).Pan(vec.Point{-1, -1, -1})},
		{"zoom2", overview.Zoom(0.25).Pan(vec.Point{-1.5, -1.5, -1.5})},
		{"zoom1-again", overview.Zoom(0.5).Pan(vec.Point{-1, -1, -1})},
		{"overview-again", overview},
	}
	if lodDetail {
		fmt.Printf("%-15s %10s %10s %10s %12s\n", "camera", "points", "gridLayer", "kdBoxes", "cacheHits")
	}
	for _, step := range script {
		app.SetCamera(step.cam)
		g, err := app.WaitFrame(60 * time.Second)
		if err != nil {
			return err
		}
		if lodDetail {
			fmt.Printf("%-15s %10d %10d %10d %12d\n",
				step.name, len(g.Points), g.Level, len(g.Boxes), points.CacheHits())
		}
	}
	st := app.Stats()
	fmt.Printf("frames=%d productions=%d busyHandoffs=%d computes=%d cacheHits=%d\n",
		st.Frames, st.Productions, st.NilHandoffs, points.Computes(), points.CacheHits())
	if lodDetail {
		fmt.Println("expect: >= n points in view at every zoom; revisited cameras served from cache")
	} else {
		fmt.Println("expect: cacheHits >= 2 (zoom1-again, overview-again) — \"cache reduces time delay to zero\"")
	}
	return nil
}
