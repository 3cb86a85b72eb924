package shard

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/table"
)

// TestRoutingTableRoundTrip: the persisted table validates, survives
// a save/load cycle unchanged, and its per-shard metadata is
// consistent with the fixture.
func TestRoutingTableRoundTrip(t *testing.T) {
	rt, err := LoadRoutingTable(clusterDir)
	if err != nil {
		t.Fatal(err)
	}
	if rt.NumShards() != fixtureShards {
		t.Fatalf("NumShards = %d, want %d", rt.NumShards(), fixtureShards)
	}
	if rt.TotalRows != int64(len(fixtureRecs)) {
		t.Fatalf("TotalRows = %d, want %d", rt.TotalRows, len(fixtureRecs))
	}
	tmp := t.TempDir()
	if err := rt.Save(tmp); err != nil {
		t.Fatal(err)
	}
	rt2, err := LoadRoutingTable(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if rt2.TotalRows != rt.TotalRows || rt2.NumShards() != rt.NumShards() ||
		len(rt2.Splits) != len(rt.Splits) || len(rt2.UnitShard) != len(rt.UnitShard) {
		t.Fatalf("round trip changed the table: %+v vs %+v", rt2, rt)
	}
	// No shard is empty and the balance is sane: with contiguous
	// grouping the largest shard should stay within a small factor of
	// the ideal share.
	ideal := rt.TotalRows / int64(rt.NumShards())
	for i := range rt.Shards {
		if rt.Shards[i].Rows == 0 {
			t.Fatalf("shard %d is empty", i)
		}
		if rt.Shards[i].Rows > 2*ideal {
			t.Errorf("shard %d holds %d rows, ideal %d — partition badly unbalanced", i, rt.Shards[i].Rows, ideal)
		}
	}
}

// TestRouteMagsMatchesPartition: for every fixture record, the split
// tree routes its magnitudes to the shard whose store actually holds
// it — router and partitioner agree row by row.
func TestRouteMagsMatchesPartition(t *testing.T) {
	rt, err := LoadRoutingTable(clusterDir)
	if err != nil {
		t.Fatal(err)
	}
	owner := make(map[int64]int, len(fixtureRecs))
	for i := 0; i < rt.NumShards(); i++ {
		db, err := core.OpenExisting(core.Config{Dir: filepath.Join(clusterDir, ShardDir(i))})
		if err != nil {
			t.Fatal(err)
		}
		tb, err := db.Catalog()
		if err != nil {
			db.Close()
			t.Fatal(err)
		}
		if err := tb.Scan(func(_ table.RowID, rec *table.Record) bool {
			owner[rec.ObjID] = i
			return true
		}); err != nil {
			db.Close()
			t.Fatal(err)
		}
		db.Close()
	}
	if len(owner) != len(fixtureRecs) {
		t.Fatalf("shards hold %d distinct rows, want %d", len(owner), len(fixtureRecs))
	}
	m := make([]float64, 5)
	for i := range fixtureRecs {
		rec := &fixtureRecs[i]
		for d := 0; d < 5; d++ {
			m[d] = float64(rec.Mags[d])
		}
		if got, want := rt.RouteMags(m), owner[rec.ObjID]; got != want {
			t.Fatalf("row %d: RouteMags says shard %d, store %d holds it", rec.ObjID, got, want)
		}
	}
}

// TestBuildClusterStoresNoVoronoi: a cluster built with every index
// leaves no Voronoi file in any shard store, and no shard's cold open
// registers a Voronoi-clustered table — the serving store keeps the
// kd-tree and grid only. Each shard stores its catalog once, clustered
// on its kd-tree's leaves: one catalog table file, no kd-clustered copy
// and no arrival-order photo-z reference beside it.
func TestBuildClusterStoresNoVoronoi(t *testing.T) {
	dir := t.TempDir()
	if _, err := BuildCluster(dir, fixtureRecs, BuildParams{Shards: fixtureShards, Seed: fixtureSeed, Indexes: true}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fixtureShards; i++ {
		shardDir := filepath.Join(dir, ShardDir(i))
		vor, err := filepath.Glob(filepath.Join(shardDir, "*.vor.*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(vor) > 0 {
			t.Errorf("shard %d holds Voronoi files %v", i, vor)
		}
		files, err := filepath.Glob(filepath.Join(shardDir, "*"))
		if err != nil {
			t.Fatal(err)
		}
		catalogs := 0
		for _, f := range files {
			name := filepath.Base(f)
			if base, _, _ := strings.Cut(name, "@"); base == "magnitude.tbl" {
				catalogs++
			}
			if strings.HasPrefix(name, "magnitude.kd.tbl") || strings.HasPrefix(name, "reference.tbl") {
				t.Errorf("shard %d holds %s beside the one catalog copy", i, name)
			}
		}
		if catalogs != 1 {
			t.Errorf("shard %d holds %d catalog table files, want one", i, catalogs)
		}
		db, err := core.OpenExisting(core.Config{Dir: shardDir})
		if err != nil {
			t.Fatal(err)
		}
		if db.KdTree() == nil || db.Grid() == nil {
			t.Errorf("shard %d: indexes not built", i)
		}
		for _, name := range db.Engine().TableNames() {
			if by := db.Engine().ClusteredBy(name); by == "voronoi-cell" {
				t.Errorf("shard %d: cold open registered %s clustered by %s", i, name, by)
			}
		}
		if by := db.Engine().ClusteredBy("magnitude.tbl"); by != engine.ClusteredKdLeaf {
			t.Errorf("shard %d: catalog clustered by %q, want %q", i, by, engine.ClusteredKdLeaf)
		}
		db.Close()
	}
}
