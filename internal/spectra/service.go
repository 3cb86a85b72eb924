package spectra

import (
	"fmt"

	"repro/internal/kdtree"
	"repro/internal/knn"
	"repro/internal/linalg"
	"repro/internal/pagestore"
	"repro/internal/table"
	"repro/internal/vec"
)

// FeatureDim is the number of retained principal components; the
// paper chose 5, noting (after Connolly et al.) that the first few
// components capture the physically meaningful variation. It also
// matches the width of the magnitude table's vector columns, so
// feature vectors reuse the same storage and index machinery.
const FeatureDim = 5

// Service answers spectral similarity queries: spectra in, most
// similar archive members out. Internally it is exactly the paper's
// stack — a 5-D feature table indexed by the §3.2 kd-tree and
// searched with the §3.3 kNN procedure.
type Service struct {
	pca      *linalg.PCA
	searcher *knn.Searcher
	params   []Params // metadata per archive spectrum, by ObjID
}

// Match is one similarity result.
type Match struct {
	// ID is the archive index of the matched spectrum.
	ID int
	// Dist2 is the squared feature-space distance.
	Dist2 float64
	// Params is the matched spectrum's generation metadata.
	Params Params
}

// BuildService trains the Karhunen–Loève basis on (a sample of) the
// archive, projects every archive spectrum to FeatureDim components,
// stores the features as a table on the page store, and indexes them
// with a kd-tree. trainLimit caps the PCA training sample (0 = up to
// 256 spectra).
func BuildService(store *pagestore.Store, archive *Dataset, trainLimit int, namePrefix string) (*Service, error) {
	n := len(archive.Spectra)
	if n < 3 {
		return nil, fmt.Errorf("spectra: archive too small (%d)", n)
	}
	if trainLimit <= 0 {
		trainLimit = 256
	}
	if trainLimit > n {
		trainLimit = n
	}
	// Deterministic training sample: every ceil(n/trainLimit)-th
	// spectrum.
	stride := n / trainLimit
	if stride < 1 {
		stride = 1
	}
	var train [][]float64
	for i := 0; i < n && len(train) < trainLimit; i += stride {
		train = append(train, archive.Spectra[i])
	}
	pca, err := linalg.FitPCASnapshot(train, FeatureDim, false)
	if err != nil {
		return nil, fmt.Errorf("spectra: KL basis: %w", err)
	}

	// Feature table: the 5 components stored in the Mags columns so
	// the standard spatial machinery applies untouched.
	feat, err := table.Create(store, namePrefix+".feat")
	if err != nil {
		return nil, err
	}
	a := feat.NewAppender()
	domain := vec.EmptyBox(FeatureDim)
	recs := make([]table.Record, n)
	for i, s := range archive.Spectra {
		f := pca.Transform(s)
		p := ToPoint(f)
		domain.ExtendPoint(p)
		recs[i].ObjID = int64(i)
		recs[i].SetPoint(p)
		recs[i].Redshift = float32(archive.Params[i].Z)
		recs[i].HasZ = true
	}
	for i := range recs {
		if err := a.Append(&recs[i]); err != nil {
			a.Close()
			return nil, err
		}
	}
	a.Close()
	// Pad the domain so queries slightly outside still route.
	for i := range domain.Min {
		pad := (domain.Max[i] - domain.Min[i]) * 0.05
		if pad == 0 {
			pad = 1
		}
		domain.Min[i] -= pad
		domain.Max[i] += pad
	}
	tree, clustered, err := kdtree.Build(feat, namePrefix+".feat.kd", kdtree.BuildParams{Domain: domain})
	if err != nil {
		return nil, err
	}
	return &Service{
		pca:      pca,
		searcher: knn.NewSearcher(tree, clustered),
		params:   archive.Params,
	}, nil
}

// Features projects a spectrum onto the service's KL basis.
func (s *Service) Features(spectrum []float64) vec.Point {
	return ToPoint(s.pca.Transform(spectrum))
}

// MostSimilar returns the k archive spectra most similar to the
// query spectrum. When the query is itself an archive member, the
// first match is the query (distance ~0), mirroring the paper's
// figures which show the query on top.
func (s *Service) MostSimilar(spectrum []float64, k int) ([]Match, error) {
	nbs, _, err := s.searcher.Search(s.Features(spectrum), k)
	if err != nil {
		return nil, err
	}
	out := make([]Match, len(nbs))
	for i, nb := range nbs {
		id := int(nb.Rec.ObjID)
		out[i] = Match{ID: id, Dist2: nb.Dist2, Params: s.params[id]}
	}
	return out, nil
}

// ExplainedVariance exposes the KL basis quality for experiment
// output.
func (s *Service) ExplainedVariance() []float64 { return s.pca.ExplainedVariance() }

// ModelGrid synthesizes a Bruzual–Charlot-style noise-free model
// grid: spectra for every (class, redshift, age) combination on the
// given grids. Comparing observed spectra against it and reading the
// best match's parameters is the paper's "reverse engineering" of
// physical parameters.
func ModelGrid(classes []Class, zs, ages []float64) *Dataset {
	d := &Dataset{}
	for _, c := range classes {
		for _, z := range zs {
			for _, age := range ages {
				p := Params{Class: c, Z: z, Age: age}
				d.Params = append(d.Params, p)
				d.Spectra = append(d.Spectra, Synthesize(p, nil))
			}
		}
	}
	return d
}

// RecoverParams matches an observed spectrum against the service's
// archive and returns the best match's parameters — used with a
// model-grid service to estimate the physical parameters of an
// observed object.
func (s *Service) RecoverParams(spectrum []float64) (Params, error) {
	m, err := s.MostSimilar(spectrum, 1)
	if err != nil {
		return Params{}, err
	}
	if len(m) == 0 {
		return Params{}, fmt.Errorf("spectra: empty archive")
	}
	return m[0].Params, nil
}
