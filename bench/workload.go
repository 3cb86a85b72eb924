package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"repro/internal/table"
)

// The five workloads. Names are frozen: BENCHMARK.json, baseline.json
// and every later issue's claim refer to them.
var workloadNames = []string{"interactive", "scan", "hot", "ingest", "scatter"}

// endpoint says how a response is read and checked.
type endpoint uint8

const (
	epQuery  endpoint = iota // GET /query?format=ndjson: rows, then a summary line
	epKnn                    // POST /knn, one point
	epPhotoz                 // GET /photoz, one point
	epSky                    // GET /sky
	epInsert                 // POST /insert, JSON rows
)

// op is one pre-generated request. The sequence of ops is a pure
// function of (workload, seed, catalog), so both sides of a later
// comparison send byte-identical requests.
type op struct {
	shape string
	ep    endpoint
	path  string // URL path and query
	body  string // POST body, "" for GET

	// What the oracle needs to recompute the answer.
	stmt  string         // epQuery: statement text
	point [5]float64     // epKnn, epPhotoz
	k     int            // epKnn
	box   [4]float64     // epSky: raLo, raHi, decLo, decHi
	limit int            // epSky
	rows  []table.Record // epInsert
}

func queryOp(shape, stmt string) op {
	return op{shape: shape, ep: epQuery, stmt: stmt,
		path: "/query?format=ndjson&q=" + url.QueryEscape(stmt)}
}

func knnOp(shape string, p [5]float64, k int) op {
	return op{shape: shape, ep: epKnn, point: p, k: k, path: "/knn",
		body: fmt.Sprintf(`{"points":[[%s]],"k":%d}`, joinFloats(p[:]), k)}
}

func photozOp(shape string, p [5]float64) op {
	return op{shape: shape, ep: epPhotoz, point: p, path: "/photoz?mags=" + joinFloats(p[:])}
}

func joinFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// round4 keeps request constants short while leaving enough digits
// that two ops practically never share one.
func round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

// gen draws ops for one run. It sees a prefix of the catalog as a
// sample: probe points land where the data is dense and scan
// constants are calibrated to a target selectivity.
type gen struct {
	rng    *rand.Rand
	sample []table.Record
	nextID int64 // objid of the next inserted row

	// Per colour pair, the sample's colour index: in sample order and
	// sorted. Filled on first use by calibratedCut.
	colour, sortedColour [][]float64
}

// calibrationRows caps the catalog prefix used as the sample: large
// enough that a 0.2% cut still matches ~30 sample rows, small enough
// that calibrating a thousand cuts costs under a second.
const calibrationRows = 16384

func newGen(seed int64, salt string, recs []table.Record) *gen {
	h := int64(0)
	for _, c := range salt {
		h = h*131 + int64(c)
	}
	return &gen{
		rng:    rand.New(rand.NewSource(seed*1_000_003 + h)),
		sample: recs[:min(len(recs), calibrationRows)],
		nextID: 1 << 40, // far above the catalog's sequential ids
	}
}

// probe returns a point near a random catalog object: the
// similar-object search the paper's users run.
func (g *gen) probe() [5]float64 {
	rec := &g.sample[g.rng.Intn(len(g.sample))]
	var p [5]float64
	for i := range p {
		p[i] = round4(float64(rec.Mags[i]) + g.rng.NormFloat64()*0.05)
	}
	return p
}

// limitCut is a colour cut whose LIMIT, not its selectivity, bounds
// the work.
func (g *gen) limitCut() string {
	return fmt.Sprintf("g - r > %.4f AND r < %.4f", 0.2+g.rng.Float64()*0.6, 16+g.rng.Float64()*4)
}

// interactiveBlock is the interactive mix in blocks of 50 ops: exact
// shares, seeded order, so the count of the expensive shapes in a run
// does not depend on the seed. cut_order is by far the slowest shape;
// at 8% of the ops p95 sits inside its latency distribution and not on
// the cliff between it and the next slowest shape.
var interactiveBlock = block(
	shapeCount{"knn", 15}, shapeCount{"cut", 9}, shapeCount{"topk_dist", 10}, shapeCount{"proj", 5},
	shapeCount{"photoz", 5}, shapeCount{"sky", 2}, shapeCount{"cut_order", 4},
)

type shapeCount struct {
	shape string
	n     int
}

// block expands shape counts into a block of shape names.
func block(counts ...shapeCount) []string {
	var out []string
	for _, c := range counts {
		for i := 0; i < c.n; i++ {
			out = append(out, c.shape)
		}
	}
	return out
}

// shuffled returns a seeded permutation of block.
func (g *gen) shuffled(block []string) []string {
	out := append([]string(nil), block...)
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// interactiveOps draws n ops of the interactive mix.
func (g *gen) interactiveOps(n int) []op {
	ops := make([]op, 0, n)
	for len(ops) < n {
		for _, shape := range g.shuffled(interactiveBlock) {
			if len(ops) < n {
				ops = append(ops, g.interactiveOp(shape))
			}
		}
	}
	return ops
}

func (g *gen) interactiveOp(shape string) op {
	switch shape {
	case "knn":
		return knnOp(shape, g.probe(), 1+g.rng.Intn(10))
	case "cut":
		return queryOp(shape, "SELECT objid, g, r WHERE "+g.limitCut()+" LIMIT 100")
	case "topk_dist":
		return queryOp(shape, topkDist(g.probe()))
	case "proj":
		return queryOp(shape, fmt.Sprintf("SELECT objid, u, g, r, i, z, ra, dec, redshift, class WHERE r < %.4f LIMIT 200", 19+g.rng.Float64()*3))
	case "photoz":
		return photozOp(shape, g.probe())
	case "sky":
		raLo, decLo := round4(g.rng.Float64()*350), round4(-90+g.rng.Float64()*170)
		box := [4]float64{raLo, raLo + 10, decLo, decLo + 10}
		return op{shape: shape, ep: epSky, box: box, limit: 500,
			path: fmt.Sprintf("/sky?ra=%g,%g&dec=%g,%g&limit=500", box[0], box[1], box[2], box[3])}
	default: // cut_order: every match is read and ranked, 500 come back
		cut := fmt.Sprintf("g - r > %.4f AND r < %.4f", 0.3+g.rng.Float64()*0.3, 15+g.rng.Float64())
		return queryOp(shape, "SELECT objid, g, r WHERE "+cut+" ORDER BY r LIMIT 500")
	}
}

func topkDist(p [5]float64) string {
	return fmt.Sprintf("SELECT * ORDER BY dist(%s) LIMIT 10", joinFloats(p[:]))
}

// insertRows is the batch size of one POST /insert: the WAL group
// commit amortises its fsync over it.
const insertRows = 32

func (g *gen) insertOp() op {
	recs := make([]table.Record, insertRows)
	var b strings.Builder
	b.WriteString(`{"rows":[`)
	for i := range recs {
		p := g.probe()
		rec := &recs[i]
		rec.ObjID = g.nextID
		g.nextID++
		for d := range p {
			rec.Mags[d] = float32(p[d])
		}
		rec.Ra = float32(g.rng.Float64() * 360)
		rec.Dec = float32(-90 + g.rng.Float64()*180)
		rec.Class = table.Star
		if i > 0 {
			b.WriteByte(',')
		}
		// Shortest float32 round-trip rendering: the server stores
		// exactly the record the oracle keeps.
		fmt.Fprintf(&b, `{"objId":%d,"mags":[%s],"ra":%s,"dec":%s,"class":"star"}`,
			rec.ObjID, joinFloat32s(rec.Mags[:]), f32(rec.Ra), f32(rec.Dec))
	}
	b.WriteString("]}")
	return op{shape: "insert", ep: epInsert, path: "/insert", body: b.String(), rows: recs}
}

func f32(v float32) string { return strconv.FormatFloat(float64(v), 'g', -1, 32) }

func joinFloat32s(v []float32) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = f32(x)
	}
	return strings.Join(parts, ",")
}

// colourPairs are the colour indices the scan cuts use.
var colourPairs = [][2]int{{1, 2}, {0, 1}, {2, 3}} // g-r, u-g, r-i

var bandName = [5]string{"u", "g", "r", "i", "z"}

// calibratedCut returns "<a> - <b> > c AND r < m" whose selectivity
// on the sample is sel: c keeps a fraction f1 of the sample, and m is
// placed inside the survivors' r distribution so the conjunction
// keeps sel/f1 of them.
func (g *gen) calibratedCut(sel float64) string {
	if g.colour == nil {
		for _, pair := range colourPairs {
			colour := make([]float64, len(g.sample))
			for i := range g.sample {
				m := &g.sample[i].Mags
				colour[i] = float64(m[pair[0]]) - float64(m[pair[1]])
			}
			g.colour = append(g.colour, colour)
			g.sortedColour = append(g.sortedColour, sortedCopy(colour))
		}
	}
	which := g.rng.Intn(len(colourPairs))
	pair, colour, sorted := colourPairs[which], g.colour[which], g.sortedColour[which]
	f1 := math.Pow(sel, 0.3+0.4*g.rng.Float64())
	c := round4(sorted[min(int((1-f1)*float64(len(sorted))), len(sorted)-1)])
	var rs []float64
	for i := range g.sample {
		if colour[i] > c {
			rs = append(rs, float64(g.sample[i].Mags[2]))
		}
	}
	sort.Float64s(rs)
	want := min(max(int(sel*float64(len(g.sample))), 1), len(rs)-1)
	m := round4((rs[want-1] + rs[want]) / 2)
	return fmt.Sprintf("%s - %s > %.4f AND r < %.4f", bandName[pair[0]], bandName[pair[1]], c, m)
}

// between draws a target selectivity from the inner part of a band,
// so sampling error rarely pushes the measured value outside it.
func (g *gen) between(lo, hi float64) float64 {
	return lo + (0.15+0.7*g.rng.Float64())*(hi-lo)
}

// scanBlock is the selectivity ladder across the paper's Fig. 5
// crossover, in blocks of 20 ops. cut_half at 10% puts p95 inside its
// distribution, not on the cliff between it and cut_wide.
var scanBlock = block(
	shapeCount{"cut_narrow", 7}, shapeCount{"cut_mid", 5}, shapeCount{"cut_wide", 2},
	shapeCount{"cut_half", 2}, shapeCount{"deep_topk", 3}, shapeCount{"union_cut", 1},
)

func (g *gen) scanOp(shape string) op {
	switch shape {
	case "cut_narrow":
		return queryOp(shape, "SELECT objid, g, r WHERE "+g.calibratedCut(g.between(0.002, 0.01)))
	case "cut_mid":
		return queryOp(shape, "SELECT objid, u, g, r WHERE "+g.calibratedCut(g.between(0.03, 0.08)))
	case "cut_wide":
		return queryOp(shape, "SELECT objid, g, r WHERE "+g.calibratedCut(g.between(0.20, 0.30)))
	case "cut_half":
		return queryOp(shape, "SELECT objid, u, g, r, i, z, ra, dec WHERE "+g.calibratedCut(g.between(0.45, 0.60)))
	case "deep_topk":
		return queryOp(shape, "SELECT objid, g, r WHERE "+g.calibratedCut(g.between(0.20, 0.30))+" ORDER BY g - r DESC LIMIT 50")
	default: // union_cut: two clauses of about 2% each
		return queryOp(shape, "SELECT objid, g, r WHERE ("+g.calibratedCut(g.between(0.01, 0.03))+") OR ("+g.calibratedCut(g.between(0.01, 0.03))+")")
	}
}

// hotPoolSize and hotZipfS fix the hot workload's statement pool. The
// pool is sized against hotCacheBytes so that the result tier holds
// the head of the distribution but not the tail.
const (
	hotPoolSize = 2048
	hotZipfS    = 1.1
)

// hotPool builds the fixed pool of cacheable statements: bounded
// cuts (60%), single-point kNN (20%), one-point photo-z (15%), and
// provably empty cuts (5%) that exercise the negative cache. Shape,
// LIMIT and k are functions of the rank, so every seed gives the
// hottest ranks the same shapes; the seed draws the constants.
func (g *gen) hotPool() []op {
	pool := make([]op, hotPoolSize)
	for rank := range pool {
		switch slot := (rank + 8) % 20; {
		case slot == 0:
			// Every magnitude is at least 10: zone maps prove this empty.
			pool[rank] = queryOp("hot_empty", fmt.Sprintf("SELECT objid, g, r WHERE r < %.4f LIMIT 100", 2+g.rng.Float64()*6))
		case slot < 5:
			pool[rank] = knnOp("hot_knn", g.probe(), 1+rank%10)
		case slot < 8:
			pool[rank] = photozOp("hot_photoz", g.probe())
		default:
			pool[rank] = queryOp("hot_cut", fmt.Sprintf("SELECT objid, g, r WHERE %s LIMIT %d", g.limitCut(), 20+rank*37%81))
		}
	}
	return pool
}

// zipfCDF is the cumulative weight of rank r under Zipf(s).
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}

// Sequence lengths. Clients cycle through the sequence, so a length
// only has to outlast a run where a repeat would change behaviour:
// interactive and ingest statements must stay unique (a repeat would
// hit the result cache, a repeated insert would duplicate objids),
// while scan bypasses the cache and hot repeats by design.
const (
	uniqueSeqOps = 1 << 16
	ingestSeqOps = 1 << 15 // every fifth op carries 32 rows: keep it shorter
	scanSeqOps   = 1000    // 50 blocks of 20
	hotSeqOps    = 1 << 16
)

// makeOps generates the op sequence of a workload. scatter replays
// interactive's sequence: only the serving topology differs.
func makeOps(workload string, seed int64, recs []table.Record, n int) []op {
	switch workload {
	case "interactive", "scatter":
		return newGen(seed, "interactive", recs).interactiveOps(min(n, uniqueSeqOps))
	case "ingest":
		// Every fifth op is an insert batch; the rest is the
		// interactive mix.
		g := newGen(seed, "ingest", recs)
		ops := make([]op, min(n, ingestSeqOps))
		reads := g.interactiveOps(len(ops))
		for i := range ops {
			if i%5 == 2 {
				ops[i] = g.insertOp()
			} else {
				ops[i] = reads[i]
			}
		}
		return ops
	case "scan":
		g := newGen(seed, "scan", recs)
		ops := make([]op, 0, min(n, scanSeqOps))
		for len(ops) < cap(ops) {
			for _, shape := range g.shuffled(scanBlock) {
				if len(ops) < cap(ops) {
					ops = append(ops, g.scanOp(shape))
				}
			}
		}
		return ops
	case "hot":
		g := newGen(seed, "hot", recs)
		pool := g.hotPool()
		cdf := zipfCDF(len(pool), hotZipfS)
		ops := make([]op, min(n, hotSeqOps))
		for i := range ops {
			ops[i] = pool[sort.SearchFloat64s(cdf, g.rng.Float64())]
		}
		return ops
	}
	panic("unknown workload " + workload)
}
