// Command photoz reproduces the §4.1 photometric redshift pipeline
// end to end (Figures 7–8): a spectroscopic reference set, the kNN
// polynomial estimator, the miscalibrated template-fitting baseline,
// and the error comparison between them — including ASCII scatter
// plots of estimated vs true redshift.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/photoz"
	"repro/internal/sky"
	"repro/internal/vec"
)

func main() {
	log.SetFlags(0)
	dir, err := os.MkdirTemp("", "spatialdb-photoz-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := core.Open(core.Config{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// A catalog with 10% spectroscopic coverage standing in for the
	// paper's 1M-of-270M reference set.
	params := sky.DefaultParams(60_000, 42)
	params.SpectroFrac = 0.10
	if err := db.IngestSynthetic(params); err != nil {
		log.Fatal(err)
	}
	if err := db.BuildPhotoZ(16, 1); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("catalog: %d objects, photo-z estimator ready\n\n", db.NumRows())

	// Template baseline with the calibration offsets the paper blames
	// for Figure 7's scatter.
	calib := [5]float64{0.2, -0.15, 0.1, -0.12, 0.15}
	tmpl, err := photoz.NewTemplateFitter(0, 0.8, 401, calib)
	if err != nil {
		log.Fatal(err)
	}

	cat, err := db.Catalog()
	if err != nil {
		log.Fatal(err)
	}
	const evalN = 1500
	knnPairs, err := photoz.EvaluateGalaxies(cat, db.EstimateRedshift, evalN)
	if err != nil {
		log.Fatal(err)
	}
	tplPairs, err := photoz.EvaluateGalaxies(cat, func(p vec.Point) (float64, error) {
		return tmpl.Estimate(p), nil
	}, evalN)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Figure 7 — template fitting (miscalibrated):")
	fmt.Println(scatter(tplPairs))
	fmt.Println("Figure 8 — kNN polynomial fit:")
	fmt.Println(scatter(knnPairs))

	km, tm := photoz.ComputeMetrics(knnPairs), photoz.ComputeMetrics(tplPairs)
	fmt.Printf("template fitting : RMS=%.4f MAE=%.4f bias=%+.4f (n=%d)\n", tm.RMS, tm.MAE, tm.Bias, tm.N)
	fmt.Printf("kNN polynomial   : RMS=%.4f MAE=%.4f bias=%+.4f (n=%d)\n", km.RMS, km.MAE, km.Bias, km.N)
	fmt.Printf("average error reduced by %.0f%% (paper: \"more than 50%%\")\n",
		100*(1-km.MAE/tm.MAE))

	// One call of the procedure remote astronomers would issue against
	// the archive.
	z, err := db.EstimateRedshift(sky.GalaxyColors(0.25, 18.5))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nEstimateRedshift(z=0.25 colors) = %.3f\n", z)
}

// scatter renders true (x) vs estimated (y) redshift as an ASCII
// density plot over [0, 0.6]².
func scatter(pairs []photoz.Pair) string {
	const w, h = 60, 18
	const zmax = 0.6
	counts := make([]int, w*h)
	for _, p := range pairs {
		x := int(p.True / zmax * float64(w))
		y := int(p.Est / zmax * float64(h))
		if x >= 0 && x < w && y >= 0 && y < h {
			counts[y*w+x]++
		}
	}
	ramp := []rune{' ', '.', ':', '*', '#', '@'}
	maxC := 1
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	var sb strings.Builder
	for y := h - 1; y >= 0; y-- {
		sb.WriteString("  |")
		for x := 0; x < w; x++ {
			c := counts[y*w+x]
			level := 0
			if c > 0 {
				level = 1 + c*(len(ramp)-2)/maxC
				if level >= len(ramp) {
					level = len(ramp) - 1
				}
			}
			sb.WriteRune(ramp[level])
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("  +" + strings.Repeat("-", w) + "  (x: true z, y: estimated z, 0..0.6)\n")
	return sb.String()
}
