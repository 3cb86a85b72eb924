// Package photoz implements the paper's photometric redshift
// estimation application (§4.1, Figures 7–8).
//
// Two estimators are provided, matching the paper's comparison:
//
//   - Template fitting, the offline baseline: a grid of synthetic
//     galaxy templates (color as a function of redshift) is matched
//     against each object's observed colors. The paper highlights
//     that this method is hard to calibrate — systematic
//     observational offsets between the template system and the
//     survey photometry translate directly into redshift bias and
//     scatter (Figure 7). The reproduction injects per-band
//     calibration offsets into the template grid exactly as that
//     failure mode prescribes.
//
//   - kNN polynomial fitting, the paper's contribution: for each
//     unknown object, its k nearest neighbours in the 5-D magnitude
//     space are fetched from the spectroscopic reference set via the
//     kd-tree index (§3.3) and a local low-order polynomial
//     z = P(colors) is least-squares fitted and evaluated at the
//     query colors. Because the fit is anchored to observed
//     (color, redshift) pairs from the same photometric system, it
//     is insensitive to calibration error; the paper reports the
//     average error dropping by more than 50% (Figure 8).
package photoz

import (
	"fmt"
	"math"

	"repro/internal/kdtree"
	"repro/internal/knn"
	"repro/internal/linalg"
	"repro/internal/pagestore"
	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vec"
)

// ExtractReference returns the spectroscopic rows (HasZ) of the
// catalog in table order — the paper's 1M-galaxy reference set drawn
// from the 270M-object archive.
func ExtractReference(tb *table.Table) ([]table.Record, error) {
	var refs []table.Record
	err := tb.ScanClassed().Scan(func(_ table.RowID, r *table.Record) bool {
		if r.HasZ {
			refs = append(refs, *r)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if len(refs) == 0 {
		return nil, fmt.Errorf("photoz: catalog has no spectroscopic rows")
	}
	return refs, nil
}

// Estimator is the kNN + local polynomial fit redshift estimator.
// It is safe for concurrent use.
type Estimator struct {
	// Tree indexes the reference rows, and Table holds them clustered on
	// its leaves: the one stored copy of the reference. Rows appended
	// after the build sit past Tree.NumRows, in the table's unindexed
	// tail.
	Tree  *kdtree.Tree
	Table *table.Table
	// K is the neighbourhood size.
	K int
	// Degree is the local polynomial degree (0, 1 or 2; the paper
	// uses a "local low order polynomial fit").
	Degree int
}

// NewEstimator builds an estimator over the reference rows. Their
// kd-tree index is built on the spot (an offline step, as in the
// paper), and the rows are written clustered on its leaves to the
// table treeName in store: the one stored copy of the reference.
func NewEstimator(store *pagestore.Store, refs []table.Record, treeName string, k, degree int) (*Estimator, error) {
	if k < 1 {
		return nil, fmt.Errorf("photoz: k must be >= 1, got %d", k)
	}
	if degree < 0 || degree > 2 {
		return nil, fmt.Errorf("photoz: degree %d out of [0,2]", degree)
	}
	tree, clustered, err := kdtree.BuildRecords(store, refs, treeName, kdtree.BuildParams{Domain: sky.Domain()})
	if err != nil {
		return nil, err
	}
	return &Estimator{Tree: tree, Table: clustered, K: k, Degree: degree}, nil
}

// Estimate returns the photometric redshift of an object with the
// given magnitudes, following the paper's pseudo code: fetch
// neighbours with the §3.3 search, fit polynomial over (colors →
// redshift), evaluate at the query.
func (e *Estimator) Estimate(mags vec.Point) (float64, error) {
	nbs, _, err := knn.NewSearcher(e.Tree, e.Table).Search(mags, e.K)
	if err != nil {
		return 0, err
	}
	recs := make([]table.Record, len(nbs))
	for i := range nbs {
		recs[i] = nbs[i].Rec
	}
	z, _ := Fit(mags, recs, e.Degree)
	return z, nil
}

// Fit is the §4.1 method's second step: a local polynomial z = P(mags)
// least-squares fitted over the neighbours (nearest first: the float64
// depends on their order; never none) and evaluated at the query.
// fellBack reports a failed or non-finite fit — a numerically
// degenerate neighbourhood, e.g. all k neighbours at one point —
// answered by the neighbour mean instead.
func Fit(mags vec.Point, nbs []table.Record, degree int) (z float64, fellBack bool) {
	xs := make([][]float64, len(nbs))
	ys := make([]float64, len(nbs))
	for i := range nbs {
		nb := &nbs[i]
		// Center features on the query point: improves conditioning and
		// makes the constant coefficient the prediction.
		f := make([]float64, len(mags))
		for d := range f {
			f[d] = float64(nb.Mags[d]) - mags[d]
		}
		xs[i] = f
		ys[i] = float64(nb.Redshift)
	}
	coeffs, deg, err := linalg.PolyFit(xs, ys, degree)
	if err == nil {
		z = linalg.PolyEval(coeffs, make([]float64, len(mags)), deg)
	}
	if err != nil || math.IsNaN(z) || math.IsInf(z, 0) {
		var mean float64
		for _, y := range ys {
			mean += y
		}
		return mean / float64(len(ys)), true
	}
	return clampZ(z), false
}

// TemplateFitter is the baseline: grid search over synthetic galaxy
// templates.
type TemplateFitter struct {
	// zGrid is the redshift grid of the templates.
	zGrid []float64
	// colors holds each template's calibration-shifted color vector
	// (u−g, g−r, r−i, i−z): magnitude-zero-point free.
	colors [][4]float64
}

// NewTemplateFitter builds a template grid over [zMin, zMax] with
// the given number of steps. calib are the per-band calibration
// offsets (magnitudes) separating the template photometric system
// from the survey's — the systematic error the paper blames for
// Figure 7's scatter. Pass all zeros for a perfectly calibrated
// (oracle) template set.
func NewTemplateFitter(zMin, zMax float64, steps int, calib [5]float64) (*TemplateFitter, error) {
	if steps < 2 || zMax <= zMin {
		return nil, fmt.Errorf("photoz: bad template grid [%g,%g]x%d", zMin, zMax, steps)
	}
	t := &TemplateFitter{}
	for i := 0; i < steps; i++ {
		z := zMin + (zMax-zMin)*float64(i)/float64(steps-1)
		m := sky.GalaxyColors(z, 18) // template spectrum at reference magnitude
		for b := 0; b < 5; b++ {
			m[b] += calib[b]
		}
		t.zGrid = append(t.zGrid, z)
		t.colors = append(t.colors, magsToColors(m))
	}
	return t, nil
}

// Estimate returns the template redshift whose colors are closest to
// the object's observed colors (χ² minimization over the grid).
func (t *TemplateFitter) Estimate(mags vec.Point) float64 {
	obs := magsToColors(mags)
	best, bestD := 0, math.Inf(1)
	for i, tc := range t.colors {
		var d float64
		for c := 0; c < 4; c++ {
			diff := obs[c] - tc[c]
			d += diff * diff
		}
		if d < bestD {
			best, bestD = i, d
		}
	}
	return t.zGrid[best]
}

// magsToColors converts 5 magnitudes to the 4 adjacent colors,
// removing the overall brightness zero point.
func magsToColors(m vec.Point) [4]float64 {
	return [4]float64{m[0] - m[1], m[1] - m[2], m[2] - m[3], m[3] - m[4]}
}

func clampZ(z float64) float64 {
	if z < 0 {
		return 0
	}
	if z > 10 {
		return 10
	}
	return z
}

// Pair is one (true, estimated) redshift — a point of the Figure 7/8
// scatter plots.
type Pair struct {
	True, Est float64
}

// Metrics summarizes estimation quality.
type Metrics struct {
	N    int
	RMS  float64 // root mean squared error
	MAE  float64 // mean absolute error
	Bias float64 // mean (est − true)
}

// ComputeMetrics reduces a scatter to its summary statistics.
func ComputeMetrics(pairs []Pair) Metrics {
	m := Metrics{N: len(pairs)}
	if m.N == 0 {
		return m
	}
	var ss, sa, sb float64
	for _, p := range pairs {
		d := p.Est - p.True
		ss += d * d
		sa += math.Abs(d)
		sb += d
	}
	m.RMS = math.Sqrt(ss / float64(m.N))
	m.MAE = sa / float64(m.N)
	m.Bias = sb / float64(m.N)
	return m
}

// EvaluateGalaxies runs an estimator function over every non-
// spectroscopic galaxy in the catalog (the paper's "unknown set"),
// up to limit objects (0 = all), returning the truth/estimate
// scatter.
func EvaluateGalaxies(tb *table.Table, estimate func(vec.Point) (float64, error), limit int) ([]Pair, error) {
	var pairs []Pair
	var evalErr error
	err := tb.ScanClassed().Scan(func(id table.RowID, r *table.Record) bool {
		if r.Class != table.Galaxy || r.HasZ {
			return true
		}
		z, err := estimate(r.Point())
		if err != nil {
			evalErr = err
			return false
		}
		pairs = append(pairs, Pair{True: float64(r.Redshift), Est: z})
		return limit <= 0 || len(pairs) < limit
	})
	if err != nil {
		return nil, err
	}
	return pairs, evalErr
}
