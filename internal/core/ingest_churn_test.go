package core

import (
	"context"
	"fmt"
	"reflect"
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
