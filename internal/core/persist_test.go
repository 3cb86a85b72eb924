package core

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/colorsql"
	"repro/internal/engine"
	"repro/internal/knn"
	"repro/internal/pagestore"
	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vec"
)

// buildFullDB ingests a synthetic catalog, builds every index, and
// returns the (still open) database.
func buildFullDB(t testing.TB, dir string, rows int) *SpatialDB {
	t.Helper()
	db, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	params := sky.DefaultParams(rows, 42)
	params.SpectroFrac = 0.15
	if err := db.IngestSynthetic(params); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildKdIndex(0); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildGridIndex(256, 7); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildPhotoZ(16, 1); err != nil {
		t.Fatal(err)
	}
	return db
}

// queryAnswers captures the result of every query path, for
// byte-identical comparison between the in-memory build and the
// reopened database.
type queryAnswers struct {
	poly    map[Plan][]table.Record
	stmts   [][]table.Record
	knn     []table.Record
	photoz  []float64
	sampled int
}

// stmtQueries exercises the streaming statement pipeline across its
// shapes — top-k ORDER BY, pushed-down LIMIT, DNF union dedup,
// WHERE-less projection — with deterministic answers, so a reopened
// store can be required to return byte-identical rows.
var stmtQueries = []string{
	"SELECT * WHERE g - r > 0.2 AND r < 20 ORDER BY r LIMIT 50",
	"SELECT objid, g, r WHERE g - r > 0.2 AND r < 20 LIMIT 40",
	"SELECT * WHERE r < 15 OR r > 22",
	"SELECT g, r ORDER BY g - r DESC LIMIT 25",
	// LIMIT-free selective cut: the auto plan serves this through the
	// index scan, whose rows must match everywhere.
	"SELECT objid, g, r WHERE g - r > 0.2 AND r < 18",
}

// serialReference is the brute-force answer to q: the catalog's rows
// that q contains, in table order, each tested whole. It shares nothing
// with planner.Stream but the page decoder — no kd walk, no ranges, no
// zones, no strips. Table order is every plan's order: the index scan
// emits its ranges ascending and then the unindexed tail, and the full
// scan reads the pages in order.
func serialReference(db *SpatialDB, q vec.Polyhedron) ([]table.Record, error) {
	out := []table.Record{}
	err := db.catalog.Scan(func(_ table.RowID, r *table.Record) bool {
		if q.Contains(r.Point()) {
			out = append(out, *r)
		}
		return true
	})
	return out, err
}

func collectAnswers(t testing.TB, db *SpatialDB) queryAnswers {
	t.Helper()
	const where = "g - r > 0.2 AND r < 20"
	ans := queryAnswers{poly: make(map[Plan][]table.Record)}
	poly := colorsql.MustParse(where, colorsql.DefaultVars(), table.Dim).Single()
	want, err := serialReference(db, poly)
	if err != nil {
		t.Fatalf("serial reference: %v", err)
	}
	for _, plan := range []Plan{PlanFullScan, PlanAuto} {
		recs, _, err := db.QueryWhere(where, plan)
		if err != nil {
			t.Fatalf("plan %v: %v", plan, err)
		}
		// The streaming cursor must reproduce the serial reference's
		// rows byte-for-byte, in physical order.
		streamed, _, err := db.QueryPolyhedron(poly, plan)
		if err != nil {
			t.Fatalf("plan %v cursor: %v", plan, err)
		}
		if !reflect.DeepEqual(want, streamed) {
			t.Fatalf("plan %v: cursor rows diverge from the serial reference (%d vs %d rows)",
				plan, len(streamed), len(want))
		}
		sortRecords(recs)
		ans.poly[plan] = recs
	}
	for _, src := range stmtQueries {
		cur, err := db.QueryStatement(context.Background(), src, PlanAuto)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		recs, _, err := Collect(cur)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		ans.stmts = append(ans.stmts, recs)
	}
	q := vec.Point{19.2, 18.8, 18.4, 18.2, 18.1}
	nbs, _, err := db.NearestNeighbors(q, 12)
	if err != nil {
		t.Fatal(err)
	}
	ans.knn = nbs
	zs, _, err := db.EstimateRedshiftBatch(context.Background(), []vec.Point{q, {20.5, 20.0, 19.6, 19.4, 19.3}})
	if err != nil {
		t.Fatal(err)
	}
	ans.photoz = zs
	view := vec.NewBox(vec.Point{14, 14, 14}, vec.Point{24, 24, 24})
	recs, _, err := db.SampleRegion(view, 200)
	if err != nil {
		t.Fatal(err)
	}
	ans.sampled = len(recs)
	return ans
}

func sortRecords(recs []table.Record) {
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j].ObjID < recs[j-1].ObjID; j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
}

// TestColdOpenDoesZeroConstruction asserts the lifecycle claim via
// page/alloc stats: opening an existing database allocates nothing,
// writes nothing, and reads exactly the catalog and index-structure
// pages and the grid's layer 1 — no other table page, no scan, no
// rebuild.
func TestColdOpenDoesZeroConstruction(t *testing.T) {
	dir := t.TempDir()
	db := buildFullDB(t, dir, 6000)
	if err := db.Persist(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenExisting(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	stats := re.Engine().Store().Stats()
	if stats.Allocs != 0 || stats.DiskWrites != 0 {
		t.Errorf("cold open built something: allocs=%d writes=%d", stats.Allocs, stats.DiskWrites)
	}
	// The only reads allowed are the structure files — system.catalog,
	// the four index streams, and the per-table zone-map sidecars — and
	// the grid's layer 1, the planner's resident sample. Table files
	// must stay untouched otherwise.
	files := re.Engine().Store().ManifestFiles()
	var structurePages int64
	for name, pages := range files {
		// Generational artifacts carry an @N suffix after the base name.
		base := name
		if i := strings.LastIndex(base, "@"); i >= 0 {
			base = base[:i]
		}
		if strings.HasSuffix(base, ".idx") || strings.HasSuffix(base, ".zones") || base == "system.catalog" {
			structurePages += int64(pages)
		}
	}
	structurePages += int64((re.Grid().FirstLayer().Len() + table.RecordsPerPage - 1) / table.RecordsPerPage)
	if stats.DiskReads != structurePages {
		t.Errorf("cold open read %d pages, want exactly the %d structure pages (catalog + index files)",
			stats.DiskReads, structurePages)
	}
	if stats.DiskReads == 0 {
		t.Error("cold open read nothing — structures cannot have been loaded")
	}
}

// TestOpenExistingNotBuilt covers the "clear errors" requirements:
// unbuilt directory, catalog-only database, and per-index not-built
// errors; a WHERE still answers without a tree.
func TestOpenExistingNotBuilt(t *testing.T) {
	if _, err := OpenExisting(Config{Dir: t.TempDir()}); err == nil || !strings.Contains(err.Error(), "not built") {
		t.Fatalf("open of empty dir: err = %v, want not-built error", err)
	}

	// A catalog persisted without indexes opens fine but reports each
	// index as not built when a query needs it.
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.IngestSynthetic(sky.DefaultParams(2000, 1)); err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenExisting(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	poly := vec.BoxPolyhedron(vec.NewBox(vec.Point{14, 14, 14, 14, 14}, vec.Point{22, 22, 22, 22, 22}))
	if _, _, err := re.SampleRegion(vec.NewBox(vec.Point{14, 14, 14}, vec.Point{24, 24, 24}), 10); err == nil || !strings.Contains(err.Error(), "grid index not built") {
		t.Errorf("sample: err = %v", err)
	}
	if _, err := re.EstimateRedshift(vec.Point{19, 19, 19, 19, 19}); err == nil || !strings.Contains(err.Error(), "BuildPhotoZ") {
		t.Errorf("photoz: err = %v", err)
	}
	// The catalog is there: auto runs the index scan as zone pruning
	// alone, and returns the full scan's rows.
	full, _, err := re.QueryPolyhedron(poly, PlanFullScan)
	if err != nil || len(full) == 0 {
		t.Fatalf("fullscan after catalog-only reopen: %d rows, %v", len(full), err)
	}
	auto, rep, err := re.QueryPolyhedron(poly, PlanAuto)
	if err != nil {
		t.Fatalf("auto after catalog-only reopen: %v", err)
	}
	if rep.Plan != PlanPrunedScan || !reflect.DeepEqual(auto, full) {
		t.Errorf("auto without a tree ran as %v with %d rows; want %v with the full scan's %d", rep.Plan, len(auto), PlanPrunedScan, len(full))
	}
}

// TestPersistWritesNoVoronoiCopy pins the serving store's footprint: a
// store with every index built and persisted holds no Voronoi file, and
// its cold open registers no Voronoi-clustered table — the §3.4 index
// is built on demand by its science callers, never stored here. The
// catalog is stored once, clustered on the kd-tree's leaves: one table
// file under its name, no kd-clustered copy beside it, and no
// arrival-order photo-z reference beside the clustered one.
func TestPersistWritesNoVoronoiCopy(t *testing.T) {
	dir := t.TempDir()
	db := buildFullDB(t, dir, 3000)
	if err := db.Persist(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	vor, err := filepath.Glob(filepath.Join(dir, "*.vor.*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(vor) > 0 {
		t.Errorf("persisted store holds Voronoi files %v", vor)
	}
	checkOneCatalogCopy(t, dir)
	re, err := OpenExisting(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, name := range re.Engine().TableNames() {
		if by := re.Engine().ClusteredBy(name); by == "voronoi-cell" {
			t.Errorf("cold open registered %s clustered by %s", name, by)
		}
	}
	if by := re.Engine().ClusteredBy(catalogTableName); by != engine.ClusteredKdLeaf {
		t.Errorf("catalog clustered by %q, want %q", by, engine.ClusteredKdLeaf)
	}
}

// checkOneCatalogCopy fails unless the store directory holds exactly
// one catalog table file and neither a kd-clustered catalog copy nor an
// arrival-order photo-z reference.
func checkOneCatalogCopy(t *testing.T, dir string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	var catalogs []string
	for _, f := range files {
		name := filepath.Base(f)
		if base, _, _ := strings.Cut(name, "@"); base == catalogTableName {
			catalogs = append(catalogs, name)
		}
		if strings.HasPrefix(name, "magnitude.kd.tbl") || strings.HasPrefix(name, "reference.tbl") {
			t.Errorf("%s holds %s beside the one catalog copy", dir, name)
		}
	}
	if len(catalogs) != 1 {
		t.Errorf("%s holds catalog table files %v, want one", dir, catalogs)
	}
}

// TestCorruptIndexRejected flips one byte inside a persisted index
// stream: OpenExisting must fail with a checksum error rather than
// serve a silently corrupt index.
func TestCorruptIndexRejected(t *testing.T) {
	dir := t.TempDir()
	db := buildFullDB(t, dir, 3000)
	if err := db.Persist(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, db.Engine().ArtifactFile(kdIndexFile))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[pagestore.PageSize+200] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenExisting(Config{Dir: dir})
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("open with corrupt index: err = %v, want checksum error", err)
	}
}

// TestCorruptTablePageFailsKNN overwrites the header of one page of
// the catalog, clustered on the kd-tree's leaves: the region-growing
// leaf scans must validate
// the page like every other read path, so knn.Searcher.Search and
// NearestNeighbors fail with an error naming the table instead of
// returning neighbours decoded from it.
func TestCorruptTablePageFailsKNN(t *testing.T) {
	dir := t.TempDir()
	db := buildFullDB(t, dir, 3000)
	var first table.Record
	if err := db.catalog.Get(0, &first); err != nil {
		t.Fatal(err)
	}
	file := db.catalog.Name()
	if err := db.Persist(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(filepath.Join(dir, file), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("JUNK"), 0); err != nil { // page 0's magic
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenExisting(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// The query point is row 0 itself, so its seed leaf lies on page 0.
	p := first.Point()
	if nbs, _, err := knn.NewSearcher(re.kd, re.catalog).Search(p, 5); err == nil || !strings.Contains(err.Error(), file) {
		t.Errorf("knn.Searcher.Search over a corrupt page: %d neighbours, err = %v; want an error naming %s", len(nbs), err, file)
	}
	if recs, _, err := re.NearestNeighbors(p, 5); err == nil || !strings.Contains(err.Error(), file) {
		t.Errorf("NearestNeighbors over a corrupt page: %d records, err = %v; want an error naming %s", len(recs), err, file)
	}
}

// TestPersistTwice: an index build is durable at the next commit, and
// only then. A store persisted with its kd-tree builds the grid and the
// photo-z reference twice — the second build of each a rebuild at a
// new generation — then takes an insert and a minor compaction, whose
// commit makes the builds durable: a reopen keeps them and answers as
// the store did. A crash image taken before that commit reopens at the
// kd-only commit, and its next commit sweeps the builds' files.
func TestPersistTwice(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	params := sky.DefaultParams(3000, 3)
	params.SpectroFrac = 0.15
	if err := db.IngestSynthetic(params); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildKdIndex(0); err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(); err != nil {
		t.Fatal(err)
	}
	var files []string
	for i := 0; i < 2; i++ {
		if err := db.BuildGridIndex(256, 7); err != nil {
			t.Fatalf("build %d of the grid: %v", i+1, err)
		}
		if err := db.BuildPhotoZ(16, 1); err != nil {
			t.Fatalf("build %d of the photo-z reference: %v", i+1, err)
		}
		for _, name := range []string{gridTableName, refKdTableName} {
			tb, err := db.Engine().Table(name)
			if err != nil {
				t.Fatal(err)
			}
			if slices.Contains(files, tb.Name()) {
				t.Fatalf("build %d of %s reuses %s", i+1, name, tb.Name())
			}
			files = append(files, tb.Name())
		}
	}
	img := copyDir(t, dir)
	insertAcked(t, db, gapMarker, 5)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	want := collectAnswers(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenExisting(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.KdTree() == nil || re.Grid() == nil || !re.PhotoZBuilt() {
		t.Fatalf("a minor compaction's commit lost a build: kd %v, grid %v, photo-z %v", re.KdTree() != nil, re.Grid() != nil, re.PhotoZBuilt())
	}
	if got := collectAnswers(t, re); !reflect.DeepEqual(got, want) {
		t.Error("the reopened store answers unlike the store that built it")
	}

	crashed, err := OpenExisting(Config{Dir: img})
	if err != nil {
		t.Fatal(err)
	}
	defer crashed.Close()
	if crashed.KdTree() == nil || crashed.Grid() != nil || crashed.PhotoZBuilt() {
		t.Fatalf("a crash before the commit reopens with kd %v, grid %v, photo-z %v; want the kd-only commit", crashed.KdTree() != nil, crashed.Grid() != nil, crashed.PhotoZBuilt())
	}
	if err := crashed.Persist(); err != nil {
		t.Fatal(err)
	}
	checkCommittedDir(t, img, catalogNamed(t, crashed))
}
