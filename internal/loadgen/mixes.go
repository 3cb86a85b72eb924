package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
)

// Mix is one workload class: a name and a request factory. Make runs
// on the dispatch loop's goroutine, so it may use the shared rng.
type Mix struct {
	Name        string
	Description string
	Make        func(base string, rng *rand.Rand) (*http.Request, error)
}

// randMags samples a plausible 5-band magnitude vector: a base
// brightness in the catalog's populated range with small per-band
// color offsets, so kNN and photo-z probes land in dense regions
// rather than empty space.
func randMags(rng *rand.Rand) [5]float64 {
	base := 14 + rng.Float64()*8
	var m [5]float64
	for i := range m {
		m[i] = base + rng.NormFloat64()*0.6
	}
	return m
}

func queryReq(base, stmt string) (*http.Request, error) {
	return http.NewRequest("GET", base+"/query?q="+url.QueryEscape(stmt), nil)
}

// hotStatements is T7's fixed statement pool: the bounded-LIMIT
// shapes the result cache admits, frozen so repeats actually repeat.
// Real SkyServer traffic is heavily skewed toward a small set of
// canned queries (the web form's defaults and textbook examples);
// a Zipfian draw over this pool models that skew.
var hotStatements = []string{
	"SELECT objid, g, r WHERE g - r > 0.40 AND r < 17.5 LIMIT 100",
	"SELECT objid, g, r WHERE g - r > 0.55 AND r < 18.0 LIMIT 100",
	"SELECT * ORDER BY dist(16.0, 15.8, 15.6, 15.5, 15.4) LIMIT 10",
	"SELECT objid, u, g, r, i, z WHERE r < 20.0 LIMIT 200",
	"SELECT objid, g, r WHERE g - r > 0.30 AND r < 16.5 LIMIT 100",
	"SELECT * ORDER BY dist(18.5, 18.1, 17.9, 17.8, 17.7) LIMIT 10",
	"SELECT objid, redshift, class WHERE r < 17.0 LIMIT 150",
	"SELECT objid, g, r WHERE g - r > 0.45 AND r < 19.0 LIMIT 100",
	"SELECT objid, ra, dec WHERE u - g > 0.8 LIMIT 50",
	"SELECT * ORDER BY dist(15.0, 14.9, 14.8, 14.7, 14.6) LIMIT 10",
	"SELECT objid, g, r, i WHERE r - i > 0.25 AND r < 18.5 LIMIT 100",
	"SELECT objid WHERE g < 16.0 LIMIT 100",
}

// hotCDF is the cumulative Zipf(s=1.1) weight over hotStatements:
// rank r (0-based) has weight 1/(r+1)^1.1, so the head statement
// draws ~35% of requests and the tail still recurs.
var hotCDF = func() []float64 {
	cdf := make([]float64, len(hotStatements))
	sum := 0.0
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), 1.1)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}()

// zipfPick draws a rank by inverse CDF.
func zipfPick(rng *rand.Rand, cdf []float64) int {
	u := rng.Float64()
	for r, c := range cdf {
		if u <= c {
			return r
		}
	}
	return len(cdf) - 1
}

// StandardMixes is the T1–T8 workload matrix from the QoS experiment:
// point lookups, range scans, top-k orderings, projection-heavy
// selects, the mixed traffic a real SkyServer front end produces, the
// LIMIT-free selective color cut that exercises zone-map pruning, the
// Zipfian hot-statement mix that exercises the result cache, and the
// mixed read/write ingest mix that exercises the WAL-backed insert
// path while reads serve concurrently.
func StandardMixes() []Mix {
	t1 := Mix{
		Name:        "T1-point",
		Description: "single-point k=1 nearest-neighbour lookup (POST /knn)",
		Make: func(base string, rng *rand.Rand) (*http.Request, error) {
			m := randMags(rng)
			body := fmt.Sprintf(`{"points": [[%g,%g,%g,%g,%g]], "k": 1}`, m[0], m[1], m[2], m[3], m[4])
			return http.NewRequest("POST", base+"/knn", strings.NewReader(body))
		},
	}
	t2 := Mix{
		Name:        "T2-range",
		Description: "color-cut range query with a row cap (GET /query)",
		Make: func(base string, rng *rand.Rand) (*http.Request, error) {
			cut := 0.2 + rng.Float64()*0.6
			rmax := 16 + rng.Float64()*4
			return queryReq(base, fmt.Sprintf("SELECT objid, g, r WHERE g - r > %.3f AND r < %.2f LIMIT 100", cut, rmax))
		},
	}
	t3 := Mix{
		Name:        "T3-topk",
		Description: "nearest-first top-k ordering served as kNN (GET /query)",
		Make: func(base string, rng *rand.Rand) (*http.Request, error) {
			m := randMags(rng)
			return queryReq(base, fmt.Sprintf("SELECT * ORDER BY dist(%.3f, %.3f, %.3f, %.3f, %.3f) LIMIT 10", m[0], m[1], m[2], m[3], m[4]))
		},
	}
	t4 := Mix{
		Name:        "T4-projection",
		Description: "wide-projection SELECT over a broad cut (GET /query)",
		Make: func(base string, rng *rand.Rand) (*http.Request, error) {
			rmax := 19 + rng.Float64()*3
			return queryReq(base, fmt.Sprintf("SELECT objid, u, g, r, i, z, ra, dec, redshift, class WHERE r < %.2f LIMIT 200", rmax))
		},
	}
	t5 := Mix{
		Name:        "T5-mixed",
		Description: "weighted interactive mix: 40% point, 25% range, 20% top-k, 15% projection",
		Make: func(base string, rng *rand.Rand) (*http.Request, error) {
			switch p := rng.Float64(); {
			case p < 0.40:
				return t1.Make(base, rng)
			case p < 0.65:
				return t2.Make(base, rng)
			case p < 0.85:
				return t3.Make(base, rng)
			default:
				return t4.Make(base, rng)
			}
		},
	}
	t6 := Mix{
		Name:        "T6-selcut",
		Description: "LIMIT-free selective color cut: zone-map pruning bounds pages read per op (GET /query)",
		Make: func(base string, rng *rand.Rand) (*http.Request, error) {
			// No LIMIT: the scan must visit every page the zone maps
			// cannot exclude, so pages-read-per-op measures pruning
			// itself rather than early termination.
			cut := 0.2 + rng.Float64()*0.4
			rmax := 15.5 + rng.Float64()*1.5
			return queryReq(base, fmt.Sprintf("SELECT objid, g, r WHERE g - r > %.3f AND r < %.2f", cut, rmax))
		},
	}
	t7 := Mix{
		Name:        "T7-hot",
		Description: "Zipfian repeats over a fixed hot-statement pool: result-cache hit ratio and hit/miss latency split (GET /query)",
		Make: func(base string, rng *rand.Rand) (*http.Request, error) {
			return queryReq(base, hotStatements[zipfPick(rng, hotCDF)])
		},
	}
	t8 := Mix{
		Name:        "T8-ingest",
		Description: "mixed read/write: 20% durable insert batches (POST /insert), 80% T5 interactive reads",
		Make: func(base string, rng *rand.Rand) (*http.Request, error) {
			if rng.Float64() < 0.20 {
				return insertReq(base, rng)
			}
			return t5.Make(base, rng)
		},
	}
	t9 := Mix{
		Name:        "T9-scatter",
		Description: "scatter-gather mix: 30% range cut, 25% top-k order, 25% point kNN, 10% photo-z, 10% sky box",
		Make: func(base string, rng *rand.Rand) (*http.Request, error) {
			// Every statement shape the coordinator merges differently:
			// scan merge, order merge, kNN rerank, photo-z (a kNN plus a
			// fit), and the eager /sky fan-out.
			switch p := rng.Float64(); {
			case p < 0.30:
				return t2.Make(base, rng)
			case p < 0.55:
				return t3.Make(base, rng)
			case p < 0.80:
				return t1.Make(base, rng)
			case p < 0.90:
				m := randMags(rng)
				return http.NewRequest("GET", fmt.Sprintf("%s/photoz?mags=%.3f,%.3f,%.3f,%.3f,%.3f",
					base, m[0], m[1], m[2], m[3], m[4]), nil)
			default:
				raLo := rng.Float64() * 350
				decLo := -90 + rng.Float64()*170
				return http.NewRequest("GET", fmt.Sprintf("%s/sky?ra=%.3f,%.3f&dec=%.3f,%.3f&limit=500",
					base, raLo, raLo+10, decLo, decLo+10), nil)
			}
		},
	}
	return []Mix{t1, t2, t3, t4, t5, t6, t7, t8, t9}
}

// insertBatch is T8's rows per /insert request: small enough that one
// write prices comparably to one read under the per-row admission
// cost, large enough that the WAL group commit amortizes the fsync.
const insertBatch = 32

// insertReq builds one JSON insert batch of synthetic rows in the
// catalog's populated magnitude range. ObjIDs draw from the rng's
// 63-bit space, so collisions with generated catalogs (sequential
// small IDs) are effectively impossible.
func insertReq(base string, rng *rand.Rand) (*http.Request, error) {
	var b strings.Builder
	b.WriteString(`{"rows":[`)
	for i := 0; i < insertBatch; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		m := randMags(rng)
		fmt.Fprintf(&b, `{"objId":%d,"mags":[%.4f,%.4f,%.4f,%.4f,%.4f],"ra":%.5f,"dec":%.5f,"class":"star"}`,
			rng.Int63(), m[0], m[1], m[2], m[3], m[4],
			rng.Float64()*360, -90+rng.Float64()*180)
	}
	b.WriteString("]}")
	req, err := http.NewRequest("POST", base+"/insert", strings.NewReader(b.String()))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

// MixByName finds a mix by its short name ("T1-point") or prefix
// ("t1"), case-insensitively.
func MixByName(name string) (Mix, bool) {
	for _, m := range StandardMixes() {
		if strings.EqualFold(m.Name, name) ||
			strings.EqualFold(strings.SplitN(m.Name, "-", 2)[0], name) {
			return m, true
		}
	}
	return Mix{}, false
}
