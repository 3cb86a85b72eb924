package shard

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/colorsql"
	"repro/internal/core"
	"repro/internal/pagestore"
	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vec"
	"repro/internal/vizhttp"
)

// The reference oracle. A model — a plain slice of every acknowledged
// row, in arrival order — answers each query by a linear filter and a
// sort, and every configuration the stores can be served in must give
// that answer: the single store over a RAM pool and a 16-page pool,
// with the result cache off and on, with a kd-tree and without one,
// under auto and the forced full scan, and a 3-shard coordinator over
// the same rows. Between checks the seed interleaves the events that
// move rows between layers — inserts, minor and full compaction, a kd
// rebuild, a persist and a cold reopen, and a spectroscopic row far
// outside the generation domain followed by a full compaction — and
// holds cursors open across some of them, and across every reopen.
// It is the one equivalence check: a new read path or configuration
// joins its lists, not a test of its own.

// oracleSeed is one fixed run of the oracle. The named seeds carry the
// regression shapes the hand-built equivalence tests used to pin.
type oracleSeed struct {
	name string
	seed int64
	// base edits the generated catalog before any store is built.
	base func(recs []table.Record) []table.Record
	// batch edits each insert batch before it is acknowledged.
	batch func(o *oracle, recs []table.Record) []table.Record
	// stmts run twice in every state.
	stmts []string
	// boxes are sky cuts run in every state beside the generated ones.
	boxes []table.SkyBoxPred
	// selfProbes asks, in every state, for each inserted row's nearest
	// neighbour at its own magnitudes.
	selfProbes bool
	// largeK sizes the kNN and ORDER BY dist probes at half the rows.
	largeK bool
}

var oracleSeeds = []oracleSeed{
	{
		// A 320-row group at r = 17 exactly, one row of it twice under
		// one ObjID (the copies differ in u alone): an ordered LIMIT cuts
		// inside the group, with more ties left over than it keeps.
		name: "ties", seed: 31,
		base: func(recs []table.Record) []table.Record {
			for i := 100; i < 420; i++ {
				recs[i].Mags[2] = 17
			}
			twin := recs[100]
			twin.Mags[0] += 0.5
			return append(recs, twin)
		},
		stmts: []string{
			"SELECT objid, r WHERE r >= 17 ORDER BY r LIMIT 150",
			"SELECT objid, r WHERE r <= 17 ORDER BY r DESC LIMIT 150",
			"SELECT * WHERE r >= 17 ORDER BY r LIMIT 321",
			"SELECT r WHERE u > 12 ORDER BY r DESC",
		},
	},
	{
		// Two more physical rows under existing ObjIDs — one beside its
		// original, one mirrored across magnitude space onto another
		// shard — and a third copy in every insert batch: rows are never
		// merged, whatever the WHERE.
		name: "duplicate-objids", seed: 23,
		base: func(recs []table.Record) []table.Record {
			near, far := recs[10], recs[20]
			near.Mags[2] += 0.01
			for d := range far.Mags {
				far.Mags[d] = 40 - far.Mags[d]
			}
			return append(recs, near, far)
		},
		batch: func(o *oracle, recs []table.Record) []table.Record {
			third := o.model[10]
			third.Mags[2] += 0.01 * float32(len(o.model)%7+2)
			third.Redshift, third.HasZ = 0, false
			return append(recs, third)
		},
		stmts: []string{
			"SELECT * WHERE r < 90 OR g < 90",
			"SELECT objid, r WHERE r < 90 ORDER BY r",
		},
	},
	{
		// Inserted rows a hair from catalog rows, each probed at k = 1
		// at its own magnitudes: in the memtable, in a compacted run the
		// kd-tree does not cover, and after a reopen.
		name: "tail-probes", seed: 30, selfProbes: true,
		batch: func(o *oracle, recs []table.Record) []table.Record {
			for i := range recs {
				src := &o.model[o.rng.Intn(len(o.model))]
				for d := range recs[i].Mags {
					recs[i].Mags[d] = src.Mags[d] + float32(o.rng.NormFloat64()*0.02)
				}
			}
			return recs
		},
	},
	{
		// Rows on the sky's edges and past them, and boxes along the
		// edges, outside the sky and through a row.
		name: "sky-corners", seed: 3,
		base: func(recs []table.Record) []table.Record {
			for i, e := range skyEdges {
				recs[i*100].Ra, recs[i*100].Dec = e[0], e[1]
			}
			return recs
		},
		batch: func(o *oracle, recs []table.Record) []table.Record {
			for i := 0; i < len(recs); i += 2 {
				e := skyEdges[o.rng.Intn(len(skyEdges))]
				recs[i].Ra, recs[i].Dec = e[0], e[1]
			}
			return recs
		},
		boxes: []table.SkyBoxPred{
			{RaMin: -1000, RaMax: 1000, DecMin: -1000, DecMax: 1000},
			{RaMin: 0, RaMax: 0, DecMin: -90, DecMax: 90},
			{RaMin: 360, RaMax: 360, DecMin: -90, DecMax: 90},
			{RaMin: 0, RaMax: 360, DecMin: -90, DecMax: -90},
			{RaMin: 0, RaMax: 360, DecMin: 90, DecMax: 90},
			{RaMin: 359, RaMax: 360, DecMin: -90, DecMax: -89},
			{RaMin: 400, RaMax: 500, DecMin: 0, DecMax: 10},
			{RaMin: 0, RaMax: 10, DecMin: -100, DecMax: -95},
		},
	},
	{
		// A cut no catalog row satisfies under a LIMIT, repeated — from
		// the result cache where it is on — until an insert makes it
		// non-empty.
		name: "empty-limit-cut", seed: 36,
		batch: func(o *oracle, recs []table.Record) []table.Record {
			recs[0].Mags = [table.Dim]float32{10.5, 10.4, 10.3, 10.2, 10.1}
			return recs
		},
		stmts: []string{
			"SELECT objid, g, r WHERE r < 10.5 LIMIT 100",
			"SELECT objid, g, r WHERE u < 10.45 OR r < 10.5 LIMIT 100",
		},
	},
	{
		// k at half the rows, so the memtable fold and the tail pass run
		// at a k far beyond any interactive probe's.
		name: "large-k", seed: 29, largeK: true,
	},
}

// skyEdges are positions on the sky's edges and past them (a position
// need only be finite).
var skyEdges = [][2]float32{{0, 0}, {360, 1}, {-3, 2}, {365, -2}, {5, -90}, {6, 90}, {7, -95}, {8, 95}, {359.99997, 89.99999}}

const (
	oracleRows     = 1000
	oracleBatch    = 100
	oraclePhotoZK  = 24
	oracleGridBase = 256
)

// oracleConfig is one way of serving the rows.
type oracleConfig struct {
	name    string
	b       vizhttp.Backend
	dbs     []*core.SpatialDB // the stores behind b
	plans   []core.Plan
	single  bool // one store: answers come in its table order
	cached  bool
	starved bool   // a 16-page pool: every state must evict
	reopen  func() // persist, close, cold open

	order   map[string]int      // SELECT * row → its place in this state's full scan
	paged   int                 // rows in the store's pages, the rest in its memtable
	samples map[string][]string // /points view → rows returned, rendered
}

type oracle struct {
	t       *testing.T
	sd      oracleSeed
	rng     *rand.Rand
	model   []table.Record // every acknowledged row, in arrival order
	paged   int            // model[:paged] have been compacted into pages
	nextID  int64
	configs []*oracleConfig
	// stopCluster stops the shard servers and checks the shards' pins.
	stopCluster func()

	baseRows int           // model[:baseRows] were in the stores when built
	rt       *RoutingTable // the cluster's
	// photoZ holds a fresh store's estimates at photoZProbes, over the
	// reference rows of photoZRows paged rows.
	photoZ     []float64
	photoZRows int

	members map[string]bool // this state's model rows, rendered SELECT *
}

// photoZProbes are fixed so the reference answer is rebuilt only when
// the reference rows change.
var photoZProbes = []vec.Point{
	{17.0, 16.8, 16.6, 16.5, 16.4},
	{19.4, 19.1, 18.9, 18.8, 18.6},
	{21.0, 20.2, 19.7, 19.5, 19.4},
}

// TestOracle checks every answer of every configuration against the
// model, through vizhttp.Backend.
func TestOracle(t *testing.T) {
	for _, sd := range oracleSeeds {
		t.Run(sd.name, func(t *testing.T) { runOracle(t, sd) })
	}
}

func runOracle(t *testing.T, sd oracleSeed) {
	o := &oracle{t: t, sd: sd, rng: rand.New(rand.NewSource(sd.seed)), nextID: 800_000_000}
	p := sky.DefaultParams(oracleRows, sd.seed)
	p.SpectroFrac = 0.15
	recs, err := sky.Generate(p)
	o.must(err)
	if sd.base != nil {
		recs = sd.base(recs)
	}
	o.model, o.paged, o.baseRows = recs, len(recs), len(recs)
	o.build(t.TempDir())

	o.check("built")
	// The seed places the full compaction anywhere after the minor one and
	// the reopen anywhere, so every seed meets rows in the memtable, in a
	// compacted tail and in a rebuilt tree. A kd rebuild follows the minor
	// compaction: it folds that tail into leaves and moves their
	// boundaries between the two inserts.
	events := slices.Insert([]string{"insert", "compact", "insert"}, 2+o.rng.Intn(2), "full")
	events = slices.Insert(events, 2, "rebuild")
	events = slices.Insert(events, o.rng.Intn(len(events)+1), "reopen")
	events = slices.Insert(events, o.rng.Intn(len(events)+1), "far")
	for _, ev := range events {
		// A cursor opened before the event and drained after it answers
		// from the rows acknowledged when it opened. Every reopen holds
		// one: its store closes, or its shards stop, under the cursor.
		var held []*heldCursor
		if ev == "reopen" || o.rng.Intn(2) == 0 {
			held = o.holdCursors()
		}
		o.apply(ev)
		for _, h := range held {
			h.rest, h.rep, h.err = core.Collect(h.cur)
		}
		for _, h := range held {
			h.finish(o, ev)
		}
		o.check(ev)
	}
	o.stopCluster()
}

// build writes the stores every configuration serves: a single store
// with a kd-tree and one without (four copies each), and a cluster.
func (o *oracle) build(root string) {
	for _, kd := range []bool{true, false} {
		src := filepath.Join(root, fmt.Sprintf("kd=%v", kd))
		db, err := core.Open(core.Config{Dir: src})
		o.must(err)
		o.must(db.IngestRecords(o.model))
		if kd {
			o.must(db.BuildKdIndex(0))
		}
		o.must(db.BuildGridIndex(oracleGridBase, o.sd.seed))
		o.must(db.BuildPhotoZ(oraclePhotoZK, 1))
		o.must(db.Persist())
		o.must(db.Close())
		for _, pool := range []int{0, 16} {
			for _, cache := range []int64{0, 2 << 20} {
				cfg := core.Config{Dir: filepath.Join(root, fmt.Sprintf("kd=%v-pool=%d-cache=%d", kd, pool, cache)), PoolPages: pool, ResultCacheBytes: cache}
				o.must(os.CopyFS(cfg.Dir, os.DirFS(src)))
				o.configs = append(o.configs, o.singleConfig(cfg))
			}
		}
	}

	dir := filepath.Join(root, "cluster")
	var err error
	o.rt, err = BuildCluster(dir, o.model, BuildParams{
		Shards: fixtureShards, Seed: o.sd.seed, Indexes: true,
		GridBase: oracleGridBase, PhotoZK: oraclePhotoZK,
	})
	o.must(err)
	c := &oracleConfig{name: "coordinator", plans: []core.Plan{core.PlanAuto}}
	var cl *cluster
	start := func() {
		cl = startClusterAt(o.t, dir, Config{HedgeAfter: -1}, core.Config{})
		c.b, c.dbs = cl.coord, cl.dbs
	}
	// stop waits out every request in flight, after which no shard
	// page may stay pinned.
	o.stopCluster = func() {
		cl.closeServers()
		for i, db := range cl.dbs {
			if n := db.Engine().Store().PinnedPages(); n != 0 {
				o.t.Fatalf("shard %d: %d pages pinned once its server stopped", i, n)
			}
		}
	}
	c.reopen = func() {
		// A held cursor's sub-requests are cut, not waited for.
		for _, srv := range cl.servers {
			srv.CloseClientConnections()
		}
		o.stopCluster()
		for _, db := range cl.dbs {
			o.must(db.Persist())
		}
		cl.close()
		start()
	}
	start()
	o.configs = append(o.configs, c)
}

// singleConfig serves one store under both plans a caller can request.
func (o *oracle) singleConfig(cfg core.Config) *oracleConfig {
	c := &oracleConfig{
		name:    filepath.Base(cfg.Dir),
		plans:   []core.Plan{core.PlanAuto, core.PlanFullScan},
		single:  true,
		cached:  cfg.ResultCacheBytes > 0,
		starved: cfg.PoolPages > 0,
	}
	open := func() {
		db, err := core.OpenExisting(cfg)
		o.must(err)
		o.t.Cleanup(func() { db.Close() })
		c.b, c.dbs = vizhttp.CoreBackend(db), []*core.SpatialDB{db}
	}
	c.reopen = func() {
		db := c.dbs[0]
		o.must(db.Persist())
		o.must(db.Close())
		open()
	}
	open()
	return c
}

// apply runs one event on every configuration.
func (o *oracle) apply(ev string) {
	switch ev {
	case "insert":
		batch := o.insertBatch()
		for _, c := range o.configs {
			_, err := c.b.Insert(batch)
			o.must(err, c.name, "insert")
		}
		o.model = append(o.model, batch...)
	case "far":
		// A spectroscopic row far outside the generation domain, then a
		// full compaction: every rebuild widens its domain to cover it.
		far := table.Record{ObjID: o.nextID, Mags: [table.Dim]float32{45, 18, 5, 17, 16}, Ra: 12, Dec: 34, Redshift: 0.45, HasZ: true, Class: table.Galaxy}
		o.nextID++
		for _, c := range o.configs {
			_, err := c.b.Insert([]table.Record{far})
			o.must(err, c.name, "insert far")
		}
		o.model = append(o.model, far)
		o.apply("full")
	case "compact", "full":
		for _, c := range o.configs {
			for _, db := range c.dbs {
				compact := db.Compact
				if ev == "full" {
					compact = db.CompactFull
				}
				o.must(compact(), c.name, ev)
				if n := db.MemRows(); n != 0 {
					o.t.Fatalf("%s: %s left %d rows in the memtable", c.name, ev, n)
				}
			}
		}
		o.paged = len(o.model)
	case "rebuild":
		// Every store that has a kd-tree builds it afresh over its pages.
		for _, c := range o.configs {
			for _, db := range c.dbs {
				if db.KdTree() == nil {
					continue
				}
				o.must(db.BuildKdIndex(0), c.name, ev)
				cat, err := db.Catalog()
				o.must(err, c.name, ev)
				if tree := db.KdTree(); tree.NumRows != cat.NumRows() {
					o.t.Fatalf("%s: the rebuilt tree indexes %d of %d paged rows", c.name, tree.NumRows, cat.NumRows())
				}
			}
		}
	case "reopen":
		for _, c := range o.configs {
			c.reopen()
		}
	}
}

// insertBatch draws fresh rows from the catalog's own distribution,
// positioned anywhere on the sky. The insert wire carries a redshift
// only when it was measured.
func (o *oracle) insertBatch() []table.Record {
	p := sky.DefaultParams(oracleBatch, o.nextID)
	p.SpectroFrac = 0.15
	recs, err := sky.Generate(p)
	o.must(err)
	for i := range recs {
		recs[i].ObjID = o.nextID
		o.nextID++
		recs[i].Ra = float32(o.rng.Float64() * 360)
		recs[i].Dec = float32(o.rng.Float64()*180 - 90)
		if !recs[i].HasZ {
			recs[i].Redshift = 0
		}
	}
	if o.sd.batch != nil {
		recs = o.sd.batch(o, recs)
	}
	return recs
}

// whereClause draws one convex clause in a shape of the colorsql fuzz
// corpus (statementSeeds), its constants placed inside the populated
// magnitude range so that clauses select something and overlap.
func whereClause(rng *rand.Rand) string {
	mag := func() float64 { return 15 + rng.Float64()*7 }
	band := func() string { return []string{"u", "g", "r", "i", "z"}[rng.Intn(table.Dim)] }
	switch rng.Intn(6) {
	case 0:
		return fmt.Sprintf("%s < %.2f", band(), mag())
	case 1:
		return fmt.Sprintf("g - r > %.2f AND r < %.2f", rng.Float64(), mag())
	case 2:
		lo := rng.Float64()
		return fmt.Sprintf("g - r > %.2f AND g - r < %.2f AND u - g < %.2f", lo, lo+0.5, 1+rng.Float64())
	case 3:
		return fmt.Sprintf("%s > %.2f", band(), mag())
	case 4:
		return fmt.Sprintf("2*g - 0.5*r <= %.2f", 1.5*mag())
	default:
		return fmt.Sprintf("g/2 + r/2 < %.2f", mag())
	}
}

// where draws a WHERE of one to four clauses.
func (o *oracle) where() string {
	clauses := make([]string, 1+o.rng.Intn(4))
	for i := range clauses {
		clauses[i] = "(" + whereClause(o.rng) + ")"
	}
	return strings.Join(clauses, " OR ")
}

var (
	oracleProjections = []string{"*", "*", "objid, u, g, r, i, z, ra, dec, redshift, class", "objid, g, r", "u, z, class, redshift", "objid, ra, dec"}
	oracleOrderKeys   = []string{"r", "g - r", "2*u - g", "u + z"}
)

// stateInputs is what one state asks every configuration.
type stateInputs struct {
	unordered []colorsql.Statement // no ORDER BY
	ordered   []colorsql.Statement // ORDER BY <linear> [DESC] [LIMIT k]
	dist      []colorsql.Statement // ORDER BY dist(p) LIMIT k
	probes    []vec.Point
	cuts      []vec.Point // probes on the routing splits, asked at k ≤ 10
	k         int
	boxes     []table.SkyBoxPred
	views     []vec.Box
}

func (o *oracle) inputs() stateInputs {
	var in stateInputs
	for i := 0; i < 3; i++ {
		proj := oracleProjections[o.rng.Intn(len(oracleProjections))]
		in.unordered = append(in.unordered, mustParse(o.t, fmt.Sprintf("SELECT %s WHERE %s", proj, o.where())))
	}
	in.unordered = append(in.unordered, mustParse(o.t, "SELECT objid WHERE "+o.where()+" LIMIT 0"))
	for i := 0; i < 2; i++ {
		src := "SELECT " + oracleProjections[o.rng.Intn(len(oracleProjections))]
		if i > 0 {
			src += " WHERE " + o.where()
		}
		src += " ORDER BY " + oracleOrderKeys[o.rng.Intn(len(oracleOrderKeys))]
		if o.rng.Intn(2) == 0 {
			src += " DESC"
		}
		in.ordered = append(in.ordered, mustParse(o.t, fmt.Sprintf("%s LIMIT %d", src, 1+o.rng.Intn(300))))
	}

	in.k = 1 + o.rng.Intn(30)
	if o.sd.largeK {
		in.k = len(o.model)/2 + o.rng.Intn(50)
	}
	// A probe on row 10, which the duplicate-objids seed copies under
	// its ObjID, and probes near random rows; ORDER BY dist on the first
	// two, the second under a WHERE.
	in.probes = []vec.Point{o.model[10].Point()}
	for i := 0; i < 2; i++ {
		p := o.model[o.rng.Intn(len(o.model))].Point()
		for d := range p {
			p[d] += o.rng.NormFloat64() * 0.3
		}
		in.probes = append(in.probes, p)
	}
	// A probe on every routing split's cut plane, where a shard boundary
	// runs through the ball.
	for _, sp := range o.rt.Splits {
		p := o.model[o.rng.Intn(len(o.model))].Point()
		p[sp.Axis] = sp.Cut
		in.cuts = append(in.cuts, p)
	}
	for i, where := range []string{"", " WHERE " + o.where()} {
		p := in.probes[i]
		in.dist = append(in.dist, mustParse(o.t, fmt.Sprintf("SELECT *%s ORDER BY dist(%v, %v, %v, %v, %v) LIMIT %d", where, p[0], p[1], p[2], p[3], p[4], in.k)))
	}
	for _, src := range o.sd.stmts {
		// Twice: the repeat comes from the result cache where it is on.
		if stmt := mustParse(o.t, src); stmt.Order != nil {
			in.ordered = append(in.ordered, stmt, stmt)
		} else {
			in.unordered = append(in.unordered, stmt, stmt)
		}
	}

	// The whole sky, a box through random space, and boxes through a
	// row: zero-width, and with their lower or upper corner on it.
	ra, dec := o.rng.Float64()*340, o.rng.Float64()*150-90
	r := &o.model[o.rng.Intn(len(o.model))]
	rra, rdec, w := float64(r.Ra), float64(r.Dec), 1+o.rng.Float64()*20
	in.boxes = append(slices.Clone(o.sd.boxes),
		table.SkyBoxPred{RaMin: 0, RaMax: 360, DecMin: -90, DecMax: 90},
		table.SkyBoxPred{RaMin: ra, RaMax: ra + 20, DecMin: dec, DecMax: dec + 25},
		table.SkyBoxPred{RaMin: rra, RaMax: rra, DecMin: rdec, DecMax: rdec},
		table.SkyBoxPred{RaMin: rra, RaMax: rra + w, DecMin: rdec, DecMax: rdec + w},
		table.SkyBoxPred{RaMin: rra - w, RaMax: rra, DecMin: rdec - w, DecMax: rdec})
	in.views = []vec.Box{
		vec.NewBox(vec.Point{14, 14, 14}, vec.Point{24, 24, 24}),
		vec.NewBox(vec.Point{16, 15, 15}, vec.Point{19, 18, 17.5}),
	}
	return in
}

// check asks every configuration everything and compares each answer
// with the model's, computed once per question.
func (o *oracle) check(state string) {
	in := o.inputs()
	star := colorsql.StarColumns()
	model := render(star, o.model)
	o.members = make(map[string]bool, len(model))
	for _, row := range model {
		o.members[row] = true
	}
	slices.Sort(model)
	for _, c := range o.configs {
		if c.single {
			c.paged = len(o.model) - c.dbs[0].MemRows()
			o.tableOrder(c, model)
		}
	}
	if state == "rebuild" || state == "full" || state == "far" {
		o.freshOrder()
	}
	for _, stmt := range in.unordered {
		o.unordered(state, stmt)
	}
	for _, stmt := range in.ordered {
		o.ordered(state, stmt)
	}
	for _, stmt := range in.dist {
		o.dist(state, stmt)
	}
	o.knn(state, in.probes, in.k)
	o.knn(state, in.cuts, min(in.k, 10))
	o.reference(state, in.probes[:2], in.k)
	if o.sd.selfProbes && len(o.model) > o.baseRows {
		// Every inserted row is its own nearest neighbour, through /knn
		// and through ORDER BY dist.
		var probes []vec.Point
		for _, r := range o.model[o.baseRows:] {
			probes = append(probes, r.Point())
		}
		o.knn(state, probes, 1)
		for _, p := range []vec.Point{probes[0], probes[len(probes)/2], probes[len(probes)-1]} {
			o.dist(state, mustParse(o.t, fmt.Sprintf("SELECT * ORDER BY dist(%v, %v, %v, %v, %v) LIMIT 1", p[0], p[1], p[2], p[3], p[4])))
		}
	}
	for _, box := range in.boxes {
		o.sky(state, box)
	}
	o.points(state, in.views)
	for _, c := range o.configs {
		label := state + " " + c.name
		o.checkPhotoZ(c, label)
		if !c.cached {
			o.checkDeterministic(c, label, in, in.unordered[0], in.ordered[1])
		}
		if ev := c.dbs[0].Engine().Store().Stats().Evictions; c.starved && ev == 0 {
			o.t.Fatalf("%s: the starved pool evicted nothing; it exercises no pressure", label)
		}
	}
}

// must fails the test on err, after what failed.
func (o *oracle) must(err error, what ...any) {
	o.t.Helper()
	if err != nil {
		o.t.Fatalf("%s: %v", strings.TrimSpace(fmt.Sprintln(what...)), err)
	}
}

// filter is the model's answer to a WHERE, in arrival order.
func (o *oracle) filter(stmt colorsql.Statement) []table.Record {
	if !stmt.HasWhere {
		return slices.Clone(o.model)
	}
	var out []table.Record
	for i := range o.model {
		if stmt.Where.Contains(o.model[i].Point()) {
			out = append(out, o.model[i])
		}
	}
	return out
}

// render keys each row by the bits of its projected columns, in
// projection order: two rows render alike exactly when every wire
// serialises them to the same bytes (core.AppendRowJSON is a function
// of these values), at a fraction of the formatting cost.
func render(cols []colorsql.Column, recs []table.Record) []string {
	out := make([]string, len(recs))
	var buf []byte
	for i := range recs {
		r := &recs[i]
		buf = buf[:0]
		for _, c := range cols {
			switch c.Kind {
			case colorsql.ColObjID:
				buf = binary.LittleEndian.AppendUint64(buf, uint64(r.ObjID))
			case colorsql.ColMag:
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(r.Mags[c.Axis]))
			case colorsql.ColRa:
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(r.Ra))
			case colorsql.ColDec:
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(r.Dec))
			case colorsql.ColRedshift:
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(r.Redshift))
			case colorsql.ColClass:
				buf = append(buf, byte(r.Class))
			}
		}
		out[i] = string(buf)
	}
	return out
}

func sortedCopy(rows []string) []string {
	rows = slices.Clone(rows)
	slices.Sort(rows)
	return rows
}

// subMultiset reports whether every row of got is in want, as often.
func subMultiset(got, want []string) bool {
	left := make(map[string]int, len(want))
	for _, w := range want {
		left[w]++
	}
	for _, g := range got {
		if left[g] == 0 {
			return false
		}
		left[g]--
	}
	return true
}

// exec runs one statement on one configuration and checks what every
// answer must satisfy (checkCounters, checkPages).
func (o *oracle) exec(c *oracleConfig, label string, stmt colorsql.Statement, plan core.Plan) ([]table.Record, core.Report) {
	o.t.Helper()
	label = fmt.Sprintf("%s: %s, plan %v", label, stmt.String(), plan)
	before := pageStats(c.dbs)
	cur, err := c.b.ExecStatement(context.Background(), stmt, plan)
	o.must(err, label)
	recs, rep, err := core.Collect(cur)
	o.must(err, label)
	o.checkPages(c, label, before, rep)
	// A kNN statement (Statement.IsKNN) is served by the search, not a scan.
	scan := !stmt.IsKNN()
	o.checkCounters(c, label, rep, len(recs), scan)
	if c.single && scan && stmt.HasWhere && stmt.Limit != 0 && !ranAs(plan, rep.Plan, c.dbs[0].KdTree() != nil) {
		o.t.Fatalf("%s: ran as %v", label, rep.Plan)
	}
	if cur, ok := c.b.ExecStatementCached(stmt, plan); c.cached && stmt.Limit > 0 {
		// A bounded statement just answered is in the result cache, and
		// the probe ahead of admission serves the same rows.
		if !ok {
			o.t.Fatalf("%s: the cache probe misses the answer just given", label)
		}
		cached, crep, err := core.Collect(cur)
		if err != nil || !crep.FromCache || !slices.Equal(render(stmt.OutputColumns(), cached), render(stmt.OutputColumns(), recs)) {
			o.t.Fatalf("%s: the cache probe served %d rows (fromCache %v, %v), execution %d", label, len(cached), crep.FromCache, err, len(recs))
		}
	}
	return recs, rep
}

// ranAs reports whether a WHERE asked for plan may have run as got: a
// forced full scan as itself, auto as the index scan — without a tree
// the index scan is zone pruning alone, and says so.
func ranAs(plan, got core.Plan, tree bool) bool {
	switch {
	case plan == core.PlanFullScan:
		return got == plan
	case tree:
		return got == core.PlanKdTree
	default:
		return got == core.PlanPrunedScan
	}
}

// checkCounters: the answer's report counts its rows, a scan's page
// fetches are its page touches, and nothing stays pinned.
func (o *oracle) checkCounters(c *oracleConfig, label string, rep core.Report, rows int, scan bool) {
	o.t.Helper()
	if rep.RowsReturned != int64(rows) {
		o.t.Fatalf("%s: report counts %d rows, returned %d", label, rep.RowsReturned, rows)
	}
	if scan && rep.PagesScanned != rep.DiskReads+rep.CacheHits {
		o.t.Fatalf("%s: pagesScanned %d, diskReads %d + cacheHits %d", label, rep.PagesScanned, rep.DiskReads, rep.CacheHits)
	}
	if c.single {
		if n := c.dbs[0].Engine().Store().PinnedPages(); n != 0 {
			o.t.Fatalf("%s: %d pages pinned after close", label, n)
		}
	}
}

// tableOrder records where each row sits in the store's own full scan
// of SELECT *, which must itself hold the model's rows.
func (o *oracle) tableOrder(c *oracleConfig, model []string) {
	stmt := mustParse(o.t, "SELECT *")
	recs, _ := o.exec(c, c.name, stmt, core.PlanFullScan)
	rows := render(stmt.OutputColumns(), recs)
	if !slices.Equal(sortedCopy(rows), model) {
		o.t.Fatalf("%s: SELECT * returned %d rows, the model holds %d; or they differ", c.name, len(rows), len(model))
	}
	c.order = make(map[string]int, len(rows))
	for i, row := range rows {
		c.order[row] = i
	}
	if len(c.order) != len(rows) {
		o.t.Fatalf("%s: two rows render alike; the order check cannot tell them apart", c.name)
	}
}

// freshOrder: right after a kd rebuild or a full compaction every row
// is paged, and a single store's table order is that of a store built
// fresh over the model's rows — clustered on its own kd-tree where the
// store has one, in arrival order where it has none.
func (o *oracle) freshOrder() {
	want := map[bool][]string{}
	for _, kd := range []bool{true, false} {
		db, err := core.Open(core.Config{Dir: o.t.TempDir()})
		o.must(err)
		o.must(db.IngestRecords(o.model))
		if kd {
			o.must(db.BuildKdIndex(0))
		}
		cur, err := db.ExecStatement(context.Background(), mustParse(o.t, "SELECT *"), core.PlanFullScan)
		o.must(err)
		recs, _, err := core.Collect(cur)
		o.must(err)
		o.must(db.Close())
		want[kd] = render(colorsql.StarColumns(), recs)
	}
	for _, c := range o.configs {
		if !c.single {
			continue
		}
		got := make([]string, len(c.order))
		for row, i := range c.order {
			got[i] = row
		}
		if kd := c.dbs[0].KdTree() != nil; !slices.Equal(got, want[kd]) {
			o.t.Fatalf("%s: the table order is not a fresh build's (kd %v) over the same rows", c.name, kd)
		}
	}
}

// unordered: every plan returns the model's rows as a multiset — on a
// single store in its table order — and a LIMIT returns a part of
// them: on a single store the head of the unlimited answer, read from
// no page past the one holding its last row.
func (o *oracle) unordered(state string, stmt colorsql.Statement) {
	cols := stmt.OutputColumns()
	want := render(cols, o.filter(stmt))
	wantSorted := sortedCopy(want)
	bounded := stmt
	if stmt.Limit < 0 {
		bounded.Limit = 1 + o.rng.Intn(len(want)+5)
	}
	n := bounded.Limit
	for _, c := range o.configs {
		label := state + " " + c.name
		for _, plan := range c.plans {
			var got []string
			if stmt.Limit < 0 {
				recs, rep := o.exec(c, label, stmt, plan)
				got = render(cols, recs)
				// Every page of the table is scanned or proven to hold no
				// row of the answer.
				if pages := int64(c.paged+table.RecordsPerPage-1) / table.RecordsPerPage; c.single && rep.PagesScanned+rep.PagesSkipped != pages {
					o.t.Fatalf("%s: %s, plan %v: scanned %d + skipped %d pages of %d", label, stmt.String(), plan, rep.PagesScanned, rep.PagesSkipped, pages)
				}
				if !slices.Equal(sortedCopy(got), wantSorted) {
					o.t.Fatalf("%s: %s, plan %v: %d rows, the model %d; or they differ", label, stmt.String(), plan, len(got), len(want))
				}
				if i := o.disorder(c, got); stmt.Star && i > 0 {
					o.t.Fatalf("%s: %s, plan %v: rows %d and %d are not in table order", label, stmt.String(), plan, i-1, i)
				}
			}

			recs, rep := o.exec(c, label, bounded, plan)
			head := render(cols, recs)
			if len(head) != min(n, len(want)) || !subMultiset(head, want) {
				o.t.Fatalf("%s: %s, plan %v: %d rows, want %d of the model's %d", label, bounded.String(), plan, len(head), min(n, len(want)), len(want))
			}
			if !c.single || got == nil {
				continue
			}
			if !slices.Equal(head, got[:len(head)]) {
				o.t.Fatalf("%s: %s, plan %v: not the head of the unlimited answer", label, bounded.String(), plan)
			}
			if !stmt.Star || len(head) == 0 || rep.FromCache {
				continue
			}
			last := min(c.order[head[len(head)-1]], c.paged-1)
			if n > len(got) {
				last = c.paged - 1 // ran to the end looking for more
			}
			if touched, bound := rep.DiskReads+rep.CacheHits, int64(last/table.RecordsPerPage+1); last >= 0 && touched > bound {
				o.t.Fatalf("%s: %s, plan %v: touched %d pages, its last row sits on page %d", label, bounded.String(), plan, touched, bound-1)
			}
		}
	}
}

// ordered: the answer is the head of the model sorted on (key, ObjID,
// arrival), byte for byte — a run of rows tied on key and ObjID as a
// multiset — and it accounts for the same pages as its WHERE without
// ORDER BY or LIMIT: each one scanned or skipped by the k-th key.
func (o *oracle) ordered(state string, stmt colorsql.Statement) {
	ranked := o.filter(stmt)
	keyOf := func(r *table.Record) float64 {
		k := stmt.Order.Key(r.Point())
		if stmt.Order.Desc {
			k = -k
		}
		return k
	}
	slices.SortStableFunc(ranked, func(a, b table.Record) int {
		return cmp.Or(cmp.Compare(keyOf(&a), keyOf(&b)), cmp.Compare(a.ObjID, b.ObjID))
	})
	want := render(stmt.OutputColumns(), ranked)
	// end[i] is where the run of rows tied with row i on key and ObjID ends.
	end := make([]int, len(ranked))
	for i := len(ranked) - 1; i >= 0; i-- {
		end[i] = i + 1
		if i+1 < len(ranked) && keyOf(&ranked[i]) == keyOf(&ranked[i+1]) && ranked[i].ObjID == ranked[i+1].ObjID {
			end[i] = end[i+1]
		}
	}
	k := len(want)
	if stmt.Limit >= 0 {
		k = min(stmt.Limit, k)
	}
	unordered := stmt
	unordered.Order, unordered.Limit = nil, -1
	for _, c := range o.configs {
		label := state + " " + c.name
		for _, plan := range c.plans {
			recs, rep := o.exec(c, label, stmt, plan)
			got := render(stmt.OutputColumns(), recs)
			if len(got) != k {
				o.t.Fatalf("%s: %s, plan %v: %d rows, want %d", label, stmt.String(), plan, len(got), k)
			}
			for s := 0; s < k; s = end[s] {
				if e := min(end[s], k); !subMultiset(got[s:e], want[s:end[s]]) {
					o.t.Fatalf("%s: %s, plan %v: rows %d–%d are not the model's", label, stmt.String(), plan, s, e-1)
				}
			}
			if c.single {
				// Closed before its first row, it leaves no page pinned.
				cur, err := c.b.ExecStatement(context.Background(), stmt, plan)
				o.must(err, label, stmt.String())
				cur.Close()
				o.checkCounters(c, label+" closed at once", cur.Stats(), 0, true)
			}
			if rep.FromCache || stmt.Limit < 0 {
				continue
			}
			_, all := o.exec(c, label, unordered, plan)
			if rep.PagesScanned+rep.PagesSkipped != all.PagesScanned+all.PagesSkipped {
				o.t.Fatalf("%s: %s, plan %v: scanned %d + skipped %d pages, its WHERE alone %d + %d", label, stmt.String(), plan, rep.PagesScanned, rep.PagesSkipped, all.PagesScanned, all.PagesSkipped)
			}
			// A heap that never fills publishes no bound: it reads what
			// its WHERE alone reads.
			if k < stmt.Limit && (rep.PagesScanned != all.PagesScanned || rep.RowsExamined != all.RowsExamined) {
				o.t.Fatalf("%s: %s, plan %v: scanned %d pages, examined %d rows; its WHERE alone %d, %d", label, stmt.String(), plan, rep.PagesScanned, rep.RowsExamined, all.PagesScanned, all.RowsExamined)
			}
		}
	}
}

// dist2 is the squared colour-space distance, summed as the search
// sums it.
func dist2(p vec.Point, r *table.Record) float64 {
	var s float64
	for i := range p {
		d := p[i] - float64(r.Mags[i])
		s += d * d
	}
	return s
}

// bruteForce is the k smallest distances from p to the candidates.
func bruteForce(p vec.Point, k int, candidates []table.Record) []float64 {
	ds := make([]float64, len(candidates))
	for i := range candidates {
		ds[i] = dist2(p, &candidates[i])
	}
	slices.Sort(ds)
	return ds[:min(k, len(ds))]
}

// nearestErr checks that got is model rows at brute force's distances,
// in sequence; it is safe off the test goroutine.
func (o *oracle) nearestErr(p vec.Point, want []float64, got []table.Record) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d neighbours of %v, brute force %d", len(got), p, len(want))
	}
	for i, row := range render(colorsql.StarColumns(), got) {
		if !o.members[row] {
			return fmt.Errorf("neighbour %d of %v is no row of the model: %+v", i, p, got[i])
		}
		if d := dist2(p, &got[i]); d != want[i] {
			return fmt.Errorf("neighbour %d of %v at dist² %v, brute force %v", i, p, d, want[i])
		}
	}
	return nil
}

// dist: ORDER BY dist(p) LIMIT k, with or without a WHERE, is brute
// force over the rows the WHERE keeps. Under a WHERE it is a scan
// bounded by the k-th distance, and accounts for the same pages as its
// WHERE alone: each one scanned or skipped.
func (o *oracle) dist(state string, stmt colorsql.Statement) {
	p := vec.Point(stmt.Order.Dist)
	want := bruteForce(p, stmt.Limit, o.filter(stmt))
	unordered := stmt
	unordered.Order, unordered.Limit = nil, -1
	for _, c := range o.configs {
		label := state + " " + c.name
		for _, plan := range c.plans {
			recs, rep := o.exec(c, label, stmt, plan)
			o.must(o.nearestErr(p, want, recs), fmt.Sprintf("%s: %s, plan %v", label, stmt.String(), plan))
			if !stmt.HasWhere || rep.FromCache {
				continue
			}
			_, all := o.exec(c, label, unordered, plan)
			if rep.PagesScanned+rep.PagesSkipped != all.PagesScanned+all.PagesSkipped {
				o.t.Fatalf("%s: %s, plan %v: scanned %d + skipped %d pages, its WHERE alone %d + %d", label, stmt.String(), plan, rep.PagesScanned, rep.PagesSkipped, all.PagesScanned, all.PagesSkipped)
			}
		}
	}
}

// knn: /knn is brute force over every row, for a lone probe (the
// cacheable shape) and for a batch, and its page counters are its
// stores' page touches. With no kd-tree each probe is its ordered
// LIMIT, a scan whose scanned pages are those touches.
func (o *oracle) knn(state string, probes []vec.Point, k int) {
	want := make([][]float64, len(probes))
	for i, p := range probes {
		want[i] = bruteForce(p, k, o.model)
	}
	for _, c := range o.configs {
		label := state + " " + c.name + ": /knn"
		for _, at := range [][2]int{{0, 1}, {1, len(probes)}} {
			before := pageStats(c.dbs)
			got, reps, err := c.b.NearestNeighborsBatch(context.Background(), probes[at[0]:at[1]], k)
			o.must(err, label)
			for i := range got {
				o.must(o.nearestErr(probes[at[0]+i], want[at[0]+i], got[i]), label)
				o.checkCounters(c, label, reps[i], len(got[i]), c.single && c.dbs[0].KdTree() == nil)
			}
			o.checkPages(c, label, before, reps...)
		}
		if c.cached {
			// The lone probe is the cacheable shape.
			got, reps, ok := c.b.NearestNeighborsBatchCached(probes[:1], k)
			if !ok || !reps[0].FromCache {
				o.t.Fatalf("%s: the cache probe misses the answer just given", label)
			}
			o.must(o.nearestErr(probes[0], want[0], got[0]), label, "(cached)")
		}
	}
}

// referenceRows is the photo-z reference set: every paged
// spectroscopic row (a memtable row joins at its compaction).
func (o *oracle) referenceRows() []table.Record {
	var refs []table.Record
	for _, r := range o.model[:o.paged] {
		if r.HasZ {
			refs = append(refs, r)
		}
	}
	return refs
}

// reference: SELECT * FROM reference ORDER BY dist(p) LIMIT k is brute
// force over the reference rows — on a single store and through the
// coordinator, whose shards each hold their own.
func (o *oracle) reference(state string, probes []vec.Point, k int) {
	refs := o.referenceRows()
	for _, p := range probes {
		stmt := mustParse(o.t, fmt.Sprintf("SELECT * FROM reference ORDER BY dist(%v, %v, %v, %v, %v) LIMIT %d", p[0], p[1], p[2], p[3], p[4], k))
		want := bruteForce(p, k, refs)
		for _, c := range o.configs {
			recs, _ := o.exec(c, state+" "+c.name, stmt, core.PlanAuto)
			o.must(o.nearestErr(p, want, recs), state, c.name, stmt.String())
		}
	}
}

// photoZWant is a fresh store's answer, fitted over the reference rows
// a photo-z estimate sees — one answer for every configuration.
func (o *oracle) photoZWant() []float64 {
	if o.photoZ != nil && o.photoZRows == o.paged {
		return o.photoZ
	}
	db, err := core.Open(core.Config{Dir: o.t.TempDir()})
	o.must(err)
	defer db.Close()
	o.must(db.IngestRecords(o.referenceRows()))
	o.must(db.BuildPhotoZ(oraclePhotoZK, 1))
	zs, _, err := db.EstimateRedshiftBatch(context.Background(), photoZProbes)
	o.must(err)
	o.photoZ, o.photoZRows = zs, o.paged
	return zs
}

// checkPhotoZ: /photoz is a fresh store's answer, its page counters
// are its stores' page touches, and an answer not served from the
// cache examined rows in the reference tree's leaves.
func (o *oracle) checkPhotoZ(c *oracleConfig, label string) {
	label += ": /photoz"
	before := pageStats(c.dbs)
	got, rep, err := c.b.EstimateRedshiftBatch(context.Background(), photoZProbes)
	o.must(err, label)
	o.checkPages(c, label, before, rep)
	if !rep.FromCache && (rep.RowsExamined == 0 || rep.LeavesExamined == 0) {
		o.t.Fatalf("%s: examined %d rows in %d leaves", label, rep.RowsExamined, rep.LeavesExamined)
	}
	want := o.photoZWant()
	if !slices.Equal(got, want) || rep.RowsReturned != int64(len(got)) {
		o.t.Fatalf("%s = %v (%d reported), a fresh build %v", label, got, rep.RowsReturned, want)
	}
	if got, rep, ok := c.b.EstimateRedshiftBatchCached(photoZProbes); c.cached && (!ok || !rep.FromCache || !slices.Equal(got, want)) {
		o.t.Fatalf("%s: the cache probe = %v (hit %v), a fresh build %v", label, got, ok, want)
	}
}

var skyCols = table.ColObjID | table.ColRa | table.ColDec | table.ColClass | table.ColRedshift

// skyRenderCols are the columns a sky cut under skyCols returns.
var skyRenderCols = slices.DeleteFunc(colorsql.StarColumns(), func(c colorsql.Column) bool { return c.Kind == colorsql.ColMag })

// sky: a box returns the model's rows inside it as a set — on a single
// store in table order — and a cursor closed before its first row or
// after two returns a part of them (what a LIMIT keeps). Its page
// counters are its stores' page touches, the cell index's build by the
// first cut of a catalog included.
func (o *oracle) sky(state string, box table.SkyBoxPred) {
	cols := skyRenderCols
	in := slices.DeleteFunc(slices.Clone(o.model), func(r table.Record) bool { return !box.Contains(float64(r.Ra), float64(r.Dec)) })
	want := render(cols, in)
	wantSorted := sortedCopy(want)
	for _, c := range o.configs {
		label := fmt.Sprintf("%s %s: sky %+v", state, c.name, box)
		asks := []table.ColumnSet{skyCols}
		if c.single {
			asks = append(asks, table.ColAll) // every column, to place each row in table order
		}
		for _, ask := range asks {
			before := pageStats(c.dbs)
			cur, err := c.b.QuerySkyBox(context.Background(), box, ask)
			o.must(err, label)
			recs, rep, err := core.Collect(cur)
			o.must(err, label)
			o.checkCounters(c, label, rep, len(recs), true)
			o.checkPages(c, label, before, rep)
			if got := render(cols, recs); !slices.Equal(sortedCopy(got), wantSorted) {
				o.t.Fatalf("%s: %d rows, the model %d; or they differ", label, len(got), len(want))
			}
			if i := o.disorder(c, render(colorsql.StarColumns(), recs)); ask == table.ColAll && i > 0 {
				o.t.Fatalf("%s: rows %d and %d are not in table order", label, i-1, i)
			}
		}
		for _, stop := range []int{0, 2} {
			before := pageStats(c.dbs)
			cur, err := c.b.QuerySkyBox(context.Background(), box, skyCols)
			o.must(err, label)
			var head []table.Record
			for len(head) < stop && cur.Next() {
				head = append(head, *cur.Record())
			}
			cur.Close()
			o.must(cur.Err(), label, "stopped early")
			if len(head) != min(stop, len(want)) || !subMultiset(render(cols, head), want) {
				o.t.Fatalf("%s: stopped after %d rows, not a part of the model's %d", label, len(head), len(want))
			}
			o.checkCounters(c, label+" stopped early", cur.Stats(), len(head), true)
			o.checkPages(c, label+" stopped early", before, cur.Stats())
		}
	}
}

// disorder is the first row of a single store's answer that does not
// follow the one before it in the store's table order, or 0.
func (o *oracle) disorder(c *oracleConfig, rows []string) int {
	for i := 1; c.single && i < len(rows); i++ {
		if c.order[rows[i-1]] >= c.order[rows[i]] {
			return i
		}
	}
	return 0
}

// sampleCols are the columns a /points sample carries.
var sampleCols = slices.DeleteFunc(colorsql.StarColumns(), func(c colorsql.Column) bool {
	return c.Kind == colorsql.ColObjID || c.Kind == colorsql.ColRa || c.Kind == colorsql.ColDec
})

// points: a sample holds model rows inside the view only, as far as
// the columns a sample carries tell, and the configurations of one
// store layout (kd=…) sample the same rows, byte for byte, in the same
// order. Its page counters are its stores' page touches — through a
// coordinator, the sum of its shards'.
func (o *oracle) points(state string, views []vec.Box) {
	model := render(sampleCols, o.model)
	first := map[string]*oracleConfig{}
	for _, c := range o.configs {
		layout := strings.SplitN(c.name, "-", 2)[0]
		if first[layout] == nil {
			first[layout] = c
		}
		c.samples = map[string][]string{}
		for _, view := range views {
			label := fmt.Sprintf("%s %s: /points %v", state, c.name, view)
			before := pageStats(c.dbs)
			recs, rep, err := c.b.SampleRegion(view, 200)
			o.must(err, label)
			o.checkPages(c, label, before, rep)
			if rep.RowsExamined < int64(len(recs)) {
				o.t.Fatalf("%s: reports %d rows examined for %d rows", label, rep.RowsExamined, len(recs))
			}
			outside := slices.ContainsFunc(recs, func(r table.Record) bool { return !view.Contains(r.Point()[:3]) })
			key, rows := fmt.Sprint(view), render(sampleCols, recs)
			c.samples[key] = rows
			if len(rows) == 0 || rep.RowsReturned != int64(len(rows)) || outside || !subMultiset(rows, model) {
				o.t.Fatalf("%s: %d rows (%d reported), a row outside %v, all the model's %v", label, len(rows), rep.RowsReturned, outside, subMultiset(rows, model))
			}
			if want := first[layout].samples[key]; !slices.Equal(rows, want) {
				o.t.Fatalf("%s: %d rows, not the %d %s sampled", label, len(rows), len(want), first[layout].name)
			}
		}
	}
}

// checkPages: the page counters of an answer computed since before —
// summed over its reports, a batch's probes — are its stores' page
// touches since then; through a coordinator, the sum of its shards'.
// An answer served from the result cache read nothing and is not
// checked.
func (o *oracle) checkPages(c *oracleConfig, label string, before pagestore.Stats, reps ...core.Report) {
	o.t.Helper()
	d := pageStats(c.dbs).Sub(before)
	var sum core.Report
	for _, rep := range reps {
		if rep.FromCache {
			return
		}
		sum.Add(rep)
	}
	if sum.DiskReads != d.DiskReads || sum.CacheHits != d.Hits {
		o.t.Fatalf("%s: reports %d disk reads, %d cache hits; its stores read %d pages, found %d", label, sum.DiskReads, sum.CacheHits, d.DiskReads, d.Hits)
	}
}

// pageStats sums the page counters of a configuration's stores.
func pageStats(dbs []*core.SpatialDB) pagestore.Stats {
	var sum pagestore.Stats
	for _, db := range dbs {
		sum = sum.Add(db.Engine().Store().Stats())
	}
	return sum
}

// checkDeterministic: a statement runs on one goroutine, so neither
// its answer nor its counters depend on the core count or on other
// callers (pages touched may be read from disk or found in the pool):
// run alone at GOMAXPROCS 1, then by three callers at once at
// GOMAXPROCS 4 beside a /knn batch, a /photoz batch and a /points
// sample, which answer as they do alone.
func (o *oracle) checkDeterministic(c *oracleConfig, label string, in stateInputs, stmts ...colorsql.Statement) {
	type answer struct {
		rows []string
		rep  core.Report
	}
	run := func(stmt colorsql.Statement) (answer, error) {
		cur, err := c.b.ExecStatement(context.Background(), stmt, core.PlanAuto)
		if err != nil {
			return answer{}, err
		}
		recs, rep, err := core.Collect(cur)
		rep.CacheHits, rep.DiskReads = rep.CacheHits+rep.DiskReads, 0
		return answer{render(stmt.OutputColumns(), recs), rep}, err
	}
	want := make([][]float64, len(in.probes))
	for i, p := range in.probes {
		want[i] = bruteForce(p, in.k, o.model)
	}
	photoZ := o.photoZWant()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, stmt := range stmts {
		runtime.GOMAXPROCS(1)
		solo, err := run(stmt)
		runtime.GOMAXPROCS(4)
		var wg sync.WaitGroup
		errs := make(chan error, 7)
		errs <- err
		spawn := func(f func() error) {
			wg.Add(1)
			go func() { defer wg.Done(); errs <- f() }()
		}
		for i := 0; i < 3; i++ {
			spawn(func() error {
				got, err := run(stmt)
				if err == nil && (!slices.Equal(got.rows, solo.rows) || got.rep != solo.rep) {
					err = fmt.Errorf("a concurrent caller got %d rows, %+v; alone %d rows, %+v", len(got.rows), got.rep, len(solo.rows), solo.rep)
				}
				return err
			})
		}
		spawn(func() error {
			got, _, err := c.b.NearestNeighborsBatch(context.Background(), in.probes, in.k)
			for i := 0; err == nil && i < len(got); i++ {
				err = o.nearestErr(in.probes[i], want[i], got[i])
			}
			return err
		})
		spawn(func() error {
			got, _, err := c.b.EstimateRedshiftBatch(context.Background(), photoZProbes)
			if err == nil && !slices.Equal(got, photoZ) {
				err = fmt.Errorf("a concurrent /photoz = %v, a fresh build %v", got, photoZ)
			}
			return err
		})
		spawn(func() error {
			recs, _, err := c.b.SampleRegion(in.views[0], 200)
			if want := c.samples[fmt.Sprint(in.views[0])]; err == nil && !slices.Equal(render(sampleCols, recs), want) {
				err = fmt.Errorf("a concurrent /points sampled %d rows, alone %d", len(recs), len(want))
			}
			return err
		})
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				o.t.Fatalf("%s: %s: %v", label, stmt.String(), err)
			}
		}
	}
}

// heldCursor is a cursor opened before an event, with the model's
// answer at that moment.
type heldCursor struct {
	c     *oracleConfig
	what  string
	cols  []colorsql.Column
	cur   core.Cursor
	first []table.Record
	want  []string

	// The rest of the cursor, drained after the event.
	rest []table.Record
	rep  core.Report
	err  error
}

// holdCursors opens, on every configuration, a statement over a random
// WHERE — and on a single store a sky box across a third of the sky —
// and reads each one's first row.
func (o *oracle) holdCursors() []*heldCursor {
	stmt := mustParse(o.t, "SELECT * WHERE "+o.where())
	ra := o.rng.Float64() * 240
	box := table.SkyBoxPred{RaMin: ra, RaMax: ra + 120, DecMin: -60, DecMax: 60}
	wantRows := sortedCopy(render(stmt.OutputColumns(), o.filter(stmt)))
	inBox := slices.DeleteFunc(slices.Clone(o.model), func(r table.Record) bool { return !box.Contains(float64(r.Ra), float64(r.Dec)) })
	wantSky := sortedCopy(render(skyRenderCols, inBox))
	var held []*heldCursor
	hold := func(h *heldCursor, err error) {
		o.must(err, h.c.name, h.what)
		if h.cur.Next() {
			h.first = append(h.first, *h.cur.Record())
		}
		held = append(held, h)
	}
	for _, c := range o.configs {
		cur, err := c.b.ExecStatement(context.Background(), stmt, c.plans[o.rng.Intn(len(c.plans))])
		hold(&heldCursor{c: c, what: stmt.String(), cols: stmt.OutputColumns(), cur: cur, want: wantRows}, err)
		if c.single {
			cur, err = c.b.QuerySkyBox(context.Background(), box, skyCols)
			hold(&heldCursor{c: c, what: fmt.Sprintf("sky %+v", box), cols: skyRenderCols, cur: cur, want: wantSky}, err)
		}
	}
	return held
}

// finish checks the drained cursor. Across a reopen it may instead
// fail, with an error naming the closed store or the stopped shard; it
// never ends short without one.
func (h *heldCursor) finish(o *oracle, ev string) {
	label := fmt.Sprintf("%s: cursor held across %s: %s", h.c.name, ev, h.what)
	if h.err != nil && ev == "reopen" {
		if msg := h.err.Error(); !strings.Contains(msg, "pagestore: store closed") && (h.c.single || !strings.HasPrefix(msg, "shard ")) {
			o.t.Fatalf("%s: %d rows, then %v; want the closed store or the stopped shard named", label, len(h.first)+len(h.rest), h.err)
		}
		return
	}
	o.must(h.err, label)
	got := render(h.cols, append(h.first, h.rest...))
	if !slices.Equal(sortedCopy(got), h.want) {
		o.t.Fatalf("%s: %d rows, the model had %d when it opened; or they differ", label, len(got), len(h.want))
	}
	o.checkCounters(h.c, label, h.rep, len(got), true)
}
