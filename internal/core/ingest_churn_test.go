package core

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/colorsql"
	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vec"
)

// churnRecord builds a record that satisfies the churn statement's
// predicate (g - r > 0.3 AND r < 20), so every inserted row is
// expected in the result set.
func churnRecord(id int64) table.Record {
	return table.Record{
		ObjID: id,
		Mags:  [table.Dim]float32{18.4, 18.0, 17.5, 17.3, 17.1},
		Ra:    float32(id % 360),
		Dec:   float32(id%120) - 60,
	}
}

// drainProjected runs the statement to completion and returns each
// row's projected columns serialized — the byte-identity currency for
// snapshot and compaction comparisons (index-internal columns such as
// grid ranks may legitimately change across a rebuild).
func drainProjected(t *testing.T, db *SpatialDB, src string, plan Plan) []string {
	t.Helper()
	stmt, err := colorsql.ParseStatement(src, colorsql.DefaultVars(), table.Dim)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := db.ExecStatement(context.Background(), stmt, plan)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	cols := stmt.OutputColumns()
	var rows []string
	for cur.Next() {
		rows = append(rows, string(AppendRowJSON(nil, cols, cur.Record())))
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestInsertWhileServingChurn runs concurrent inserters, readers and
// compactions against one database. Every drained cursor must observe
// a consistent snapshot: all pre-existing rows exactly once, plus a
// subset of the concurrently inserted rows, never a duplicate and
// never a torn merge. Run under -race this is the write-path
// concurrency net.
func TestInsertWhileServingChurn(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	p := sky.DefaultParams(2000, 42)
	p.SpectroFrac = 0.15
	if err := db.IngestSynthetic(p); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildKdIndex(0); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildGridIndex(256, 7); err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(); err != nil {
		t.Fatal(err)
	}

	const stmtSrc = "SELECT objid, g, r WHERE g - r > 0.3 AND r < 20"
	const marker = int64(3_000_000_000)
	// The pre-existing result set, by ObjID: every snapshot drained
	// during the churn must contain exactly these plus inserted rows.
	baseIDs := make(map[int64]bool)
	{
		stmt, err := colorsql.ParseStatement(stmtSrc, colorsql.DefaultVars(), table.Dim)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := db.ExecStatement(context.Background(), stmt, PlanAuto)
		if err != nil {
			t.Fatal(err)
		}
		for cur.Next() {
			baseIDs[cur.Record().ObjID] = true
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		cur.Close()
	}

	stop := make(chan struct{})
	var nextID atomic.Int64
	nextID.Store(marker)
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	fail := func(format string, args ...any) {
		select {
		case errc <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Writer: small batches, as fast as the WAL admits.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			id := nextID.Add(3) - 3
			recs := []table.Record{churnRecord(id), churnRecord(id + 1), churnRecord(id + 2)}
			if _, err := db.Insert(recs); err != nil {
				fail("insert: %v", err)
				return
			}
		}
	}()

	// Compactor: minor compactions racing the readers and the writer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			if err := db.Compact(); err != nil {
				fail("compact: %v", err)
				return
			}
		}
	}()

	// Readers: drain full cursors, validate the snapshot each time.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stmt, err := colorsql.ParseStatement(stmtSrc, colorsql.DefaultVars(), table.Dim)
			if err != nil {
				fail("parse: %v", err)
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				cur, err := db.ExecStatement(context.Background(), stmt, PlanAuto)
				if err != nil {
					fail("exec: %v", err)
					return
				}
				// The snapshot is taken at cursor construction, so the IDs
				// handed out by the time ExecStatement returns bound the
				// inserted rows it may see (some may not be committed yet;
				// none beyond the bound can appear). Loaded before the
				// call, the bound would race an insert numbered and
				// acknowledged between the load and the snapshot.
				bound := nextID.Load()
				seen := make(map[int64]bool)
				for cur.Next() {
					id := cur.Record().ObjID
					if seen[id] {
						fail("duplicate row %d in one snapshot", id)
						cur.Close()
						return
					}
					seen[id] = true
					if id >= marker {
						if id >= bound {
							fail("row %d visible before its insert could have been acknowledged", id)
							cur.Close()
							return
						}
					} else if !baseIDs[id] {
						fail("unexpected pre-existing row %d", id)
						cur.Close()
						return
					}
				}
				if err := cur.Err(); err != nil {
					fail("drain: %v", err)
					cur.Close()
					return
				}
				cur.Close()
				for id := range baseIDs {
					if !seen[id] {
						fail("pre-existing row %d missing from snapshot", id)
						return
					}
				}
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// Quiesced: a final compaction drains the memtable, and with every
	// cursor closed nothing may remain pinned in the buffer pool.
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.MemRows() != 0 {
		t.Fatalf("memtable holds %d rows after final compaction", db.MemRows())
	}
	if got := db.Engine().Store().PinnedPages(); got != 0 {
		t.Fatalf("PinnedPages = %d after all cursors closed", got)
	}
}

// TestCompactionPreservesOpenCursor: a cursor opened before a
// compaction must drain byte-identically to one drained before it —
// the snapshot pins the superseded generation's files until release.
func TestCompactionPreservesOpenCursor(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	p := sky.DefaultParams(1500, 42)
	p.SpectroFrac = 0.15
	if err := db.IngestSynthetic(p); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildKdIndex(0); err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if _, err := db.Insert([]table.Record{churnRecord(4_000_000_000 + i)}); err != nil {
			t.Fatal(err)
		}
	}

	const stmtSrc = "SELECT objid, u, g, r, i, z WHERE g - r > 0.3 AND r < 20"
	ref := drainProjected(t, db, stmtSrc, PlanAuto)
	refScan := drainProjected(t, db, stmtSrc, PlanFullScan)

	stmt, err := colorsql.ParseStatement(stmtSrc, colorsql.DefaultVars(), table.Dim)
	if err != nil {
		t.Fatal(err)
	}
	// The sky cut's cursor holds its catalog's cell index in the same
	// snapshot: the full compaction swaps in a new catalog and index, and
	// the open cursor must drain the old pair.
	skyBox := table.SkyBoxPred{RaMin: 0, RaMax: 200, DecMin: -40, DecMax: 60}
	drainSky := func(cur Cursor) []table.Record {
		defer cur.Close()
		var rows []table.Record
		for cur.Next() {
			rows = append(rows, *cur.Record())
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		return rows
	}
	openSky := func() Cursor {
		cur, err := db.QuerySkyBox(context.Background(), skyBox, table.ColAll)
		if err != nil {
			t.Fatal(err)
		}
		return cur
	}
	refSky := drainSky(openSky())
	preSky := openSky()

	pre, err := db.ExecStatement(context.Background(), stmt, PlanAuto)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		pre.Close()
		t.Fatal(err)
	}
	if err := db.CompactFull(); err != nil {
		pre.Close()
		t.Fatal(err)
	}
	if got := drainSky(preSky); !reflect.DeepEqual(refSky, got) {
		t.Fatalf("pre-compaction sky cursor diverged: %d rows vs %d reference rows", len(got), len(refSky))
	}
	cols := stmt.OutputColumns()
	var got []string
	for pre.Next() {
		got = append(got, string(AppendRowJSON(nil, cols, pre.Record())))
	}
	if err := pre.Err(); err != nil {
		t.Fatal(err)
	}
	pre.Close()
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("pre-compaction cursor diverged: %d rows vs %d reference rows", len(got), len(ref))
	}

	// The catalog is the one physical order, so the index scan and the
	// full scan emit a statement's rows alike — before compaction, with
	// the ten rows in the memtable after every paged row, and after the
	// full rebuild has filed them into their kd leaves, where a fresh
	// cursor returns the same rows in their new places.
	if !reflect.DeepEqual(ref, refScan) {
		t.Fatalf("pre-compaction full scan (%d rows) and index scan (%d rows) emit different sequences", len(refScan), len(ref))
	}
	post := drainProjected(t, db, stmtSrc, PlanFullScan)
	auto := drainProjected(t, db, stmtSrc, PlanAuto)
	if !reflect.DeepEqual(post, auto) {
		t.Fatalf("post-compaction full scan (%d rows) and index scan (%d rows) emit different sequences", len(post), len(auto))
	}
	sorted := func(rows []string) []string {
		out := append([]string{}, rows...)
		sort.Strings(out)
		return out
	}
	if !reflect.DeepEqual(sorted(ref), sorted(post)) {
		t.Fatalf("post-compaction answer set diverged: %d rows vs %d reference rows", len(post), len(ref))
	}
	if got := db.Engine().Store().PinnedPages(); got != 0 {
		t.Fatalf("PinnedPages = %d after all cursors closed", got)
	}
}

// TestFullCompactionMatchesFreshBuild is the acceptance check for
// incremental index maintenance: inserting rows into a served
// database and fully compacting must answer every plan path
// byte-identically to a database built fresh over the same rows in
// the same order.
func TestFullCompactionMatchesFreshBuild(t *testing.T) {
	p := sky.DefaultParams(2000, 42)
	p.SpectroFrac = 0.2
	base, err := sky.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var extra []table.Record
	for i := int64(0); i < 150; i++ {
		r := churnRecord(5_000_000_000 + i)
		r.Mags = [table.Dim]float32{
			16 + float32(i%40)*0.2, 16.2 + float32(i%30)*0.2, 16.1 + float32(i%20)*0.2,
			16.3 + float32(i%10)*0.2, 16.4 + float32(i%50)*0.1,
		}
		if i%5 == 0 {
			r.Redshift, r.HasZ = float32(i%13)*0.05, true
		}
		r.Class = table.Class(i % 3)
		extra = append(extra, r)
	}

	build := func(dir string, recs []table.Record) *SpatialDB {
		db, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		if err := db.IngestRecords(recs); err != nil {
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

	dbA := build(t.TempDir(), base)
	if err := dbA.Persist(); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(extra); off += 40 {
		end := min(off+40, len(extra))
		if _, err := dbA.Insert(extra[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := dbA.CompactFull(); err != nil {
		t.Fatal(err)
	}
	if dbA.MemRows() != 0 {
		t.Fatalf("memtable holds %d rows after full compaction", dbA.MemRows())
	}

	dbB := build(t.TempDir(), append(append([]table.Record{}, base...), extra...))

	if a, b := dbA.NumRows(), dbB.NumRows(); a != b {
		t.Fatalf("row counts diverge: compacted %d, fresh %d", a, b)
	}

	statements := []string{
		"SELECT objid, u, g, r, i, z, ra, dec, redshift, class WHERE g - r > 0.3 AND r < 19",
		"SELECT objid, g, r WHERE g - r > 0.1 AND g - r < 0.9 AND r < 20",
		"SELECT objid",
	}
	plans := []Plan{PlanAuto, PlanFullScan}
	for _, src := range statements {
		for _, plan := range plans {
			a := drainProjected(t, dbA, src, plan)
			b := drainProjected(t, dbB, src, plan)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("plan %v, %q: compacted answer (%d rows) != fresh build (%d rows)", plan, src, len(a), len(b))
			}
		}
	}

	// kNN path.
	q := vec.Point{17.0, 17.1, 16.9, 17.2, 17.05}
	nbsA, _, err := dbA.NearestNeighbors(q, 12)
	if err != nil {
		t.Fatal(err)
	}
	nbsB, _, err := dbB.NearestNeighbors(q, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbsA) != len(nbsB) {
		t.Fatalf("kNN sizes diverge: %d vs %d", len(nbsA), len(nbsB))
	}
	for i := range nbsA {
		if nbsA[i].ObjID != nbsB[i].ObjID {
			t.Errorf("kNN[%d]: %d vs %d", i, nbsA[i].ObjID, nbsB[i].ObjID)
		}
	}

	// Photo-z path: the compacted reference set includes the inserted
	// spectroscopic rows.
	zA, err := dbA.EstimateRedshift(q)
	if err != nil {
		t.Fatal(err)
	}
	zB, err := dbB.EstimateRedshift(q)
	if err != nil {
		t.Fatal(err)
	}
	if zA != zB {
		t.Errorf("photo-z diverges: %v vs %v", zA, zB)
	}

	// Sky-box path.
	box := table.SkyBoxPred{RaMin: 0, RaMax: 180, DecMin: -30, DecMax: 30}
	skyRows := func(db *SpatialDB) []int64 {
		cur, err := db.QuerySkyBox(context.Background(), box, table.ColObjID|table.ColRa|table.ColDec)
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		var ids []int64
		for cur.Next() {
			ids = append(ids, cur.Record().ObjID)
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		return ids
	}
	if a, b := skyRows(dbA), skyRows(dbB); !reflect.DeepEqual(a, b) {
		t.Errorf("sky box diverges: %d vs %d rows", len(a), len(b))
	}
}

// TestCompactFullWidensDomain: a spectroscopic row inserted outside
// the generation domain (u = 45, r = 5) is compacted like any other.
// Every full compaction after it succeeds — the kd-tree, the grid and
// the photo-z reference each widen their domain to their rows — and
// each structure files the row in a cell that contains it.
func TestCompactFullWidensDomain(t *testing.T) {
	db, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	p := sky.DefaultParams(3000, 42)
	p.SpectroFrac = 0.2
	if err := db.IngestSynthetic(p); err != nil {
		t.Fatal(err)
	}
	for _, build := range []func() error{
		func() error { return db.BuildKdIndex(0) },
		func() error { return db.BuildGridIndex(256, 42) },
		func() error { return db.BuildPhotoZ(16, 1) },
	} {
		if err := build(); err != nil {
			t.Fatal(err)
		}
	}
	far := churnRecord(5_100_000_000)
	far.Mags = [table.Dim]float32{45, 18, 5, 17, 16}
	far.Redshift, far.HasZ = 0.45, true
	if _, err := db.Insert([]table.Record{far}); err != nil {
		t.Fatal(err)
	}
	at := far.Point()
	for round := 0; round < 2; round++ {
		if err := db.CompactFull(); err != nil {
			t.Fatalf("full compaction %d: %v", round, err)
		}
		tree := db.KdTree()
		if leaf := tree.LeafContaining(at); !tree.LeafBox(leaf).Contains(at) {
			t.Fatalf("round %d: the kd-tree files %v in leaf %d, cell %v", round, at, leaf, tree.LeafBox(leaf))
		}
		view := vec.NewBox(vec.Point{44, 17, 4}, vec.Point{46, 19, 6})
		recs, _, err := db.SampleRegion(view, 10)
		if err != nil || len(recs) != 1 || recs[0].ObjID != far.ObjID {
			t.Fatalf("round %d: grid sample of %v = %d rows (%v), want the far row", round, view, len(recs), err)
		}
		for _, src := range []string{
			"SELECT * ORDER BY dist(45, 18, 5, 17, 16) LIMIT 1",
			"SELECT * FROM reference ORDER BY dist(45, 18, 5, 17, 16) LIMIT 1",
			"SELECT * WHERE u > 40",
		} {
			stmt := colorsql.MustParseStatement(src, colorsql.DefaultVars(), table.Dim)
			cur, err := db.ExecStatement(context.Background(), stmt, PlanAuto)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := Collect(cur)
			if err != nil || len(got) != 1 || got[0].ObjID != far.ObjID {
				t.Fatalf("round %d: %s = %d rows (%v), want the far row", round, src, len(got), err)
			}
		}
	}
}

// TestBackgroundCompactorDrainsMemtable exercises the compactor
// lifecycle: started, it merges acknowledged batches into the paged
// tables without being asked; stopped, the memtable grows again.
func TestBackgroundCompactorDrainsMemtable(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	p := sky.DefaultParams(500, 42)
	if err := db.IngestSynthetic(p); err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(); err != nil {
		t.Fatal(err)
	}
	rowsBefore := db.NumRows()
	if _, err := db.Insert([]table.Record{churnRecord(6_000_000_000), churnRecord(6_000_000_001)}); err != nil {
		t.Fatal(err)
	}
	db.StartCompactor(2 * time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for db.MemRows() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("compactor did not drain the memtable (still %d rows)", db.MemRows())
		}
		time.Sleep(5 * time.Millisecond)
	}
	db.StopCompactor()
	if got := db.NumRows(); got != rowsBefore+2 {
		t.Fatalf("paged rows = %d, want %d", got, rowsBefore+2)
	}
	// Stopped: new inserts stay in the memtable.
	if _, err := db.Insert([]table.Record{churnRecord(6_000_000_002)}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if db.MemRows() != 1 {
		t.Fatalf("memtable = %d rows after StopCompactor, want 1", db.MemRows())
	}
}

// TestMinorCompactionLeavesGridCopy: a minor compaction appends nothing
// to the grid's clustered copy — sampling reads only the rows its cell
// directory covers, so rows written there would be dead weight — and a
// sample answers exactly as before. A full compaction then rebuilds the
// grid over every catalog row.
func TestMinorCompactionLeavesGridCopy(t *testing.T) {
	db := openDB(t, 3000)
	if err := db.BuildKdIndex(0); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildGridIndex(256, 7); err != nil {
		t.Fatal(err)
	}
	dom3 := vec.NewBox(db.Domain().Min[:3], db.Domain().Max[:3])
	sample := func() []table.Record {
		recs, _, err := db.SampleRegion(dom3, 300)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	gridRows := db.Grid().Table().NumRows()
	before := sample()

	var fresh []table.Record
	for i := int64(0); i < 200; i++ {
		fresh = append(fresh, churnRecord(6_000_000_000+i))
	}
	if _, err := db.Insert(fresh); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := db.Grid().Table().NumRows(); got != gridRows {
		t.Errorf("grid copy holds %d rows after a minor compaction, %d before", got, gridRows)
	}
	if after := sample(); !reflect.DeepEqual(before, after) {
		t.Errorf("sample changed across a minor compaction: %d rows vs %d", len(after), len(before))
	}
	if err := db.Grid().Validate(); err != nil {
		t.Fatal(err)
	}

	if err := db.CompactFull(); err != nil {
		t.Fatal(err)
	}
	if got, want := db.Grid().Table().NumRows(), db.NumRows(); got != want || got != gridRows+200 {
		t.Errorf("full compaction: grid copy holds %d rows, catalog %d, want %d", got, want, gridRows+200)
	}
}
