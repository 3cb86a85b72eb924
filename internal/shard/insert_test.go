package shard

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vizhttp"
)

// makeInsertRecords builds n synthetic rows spread across the
// magnitude domain with ObjIDs starting at base.
func makeInsertRecords(n int, base int64) []table.Record {
	recs := make([]table.Record, n)
	for i := range recs {
		rec := &recs[i]
		rec.ObjID = base + int64(i)
		for d := 0; d < 5; d++ {
			// Deterministic spread over [12, 28): different rows land in
			// different kd cells, so inserts exercise multi-shard routing.
			rec.Mags[d] = float32(12 + (float64((i*7+d*3)%160) / 10))
		}
		rec.Ra = float32(10 + i)
		rec.Dec = float32(-20 + i)
		rec.Class = table.Star
		if i%4 == 0 {
			rec.Redshift = 0.1 + float32(i)/100
			rec.HasZ = true
		}
	}
	return recs
}

// TestInsertRoutesByPartitionKey: a coordinator insert batch is split
// by the routing table, each group lands in its owning shard's
// memtable (through that shard's WAL), and the rows are immediately
// visible through the coordinator's own query path.
//
// The test builds its own small cluster: inserts mutate shard WALs,
// and the shared fixture must stay pristine for the equivalence
// tests.
func TestInsertRoutesByPartitionKey(t *testing.T) {
	dir := t.TempDir()
	p := sky.DefaultParams(600, 11)
	p.SpectroFrac = 0.2
	recs, err := sky.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := BuildCluster(dir, recs, BuildParams{Shards: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}

	var dbs []*core.SpatialDB
	var targets []string
	for i := 0; i < rt.NumShards(); i++ {
		db, err := core.OpenExisting(core.Config{Dir: filepath.Join(dir, ShardDir(i))})
		if err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, db)
		srv := httptest.NewServer(vizhttp.New(db, vizhttp.Config{}).Handler())
		t.Cleanup(srv.Close)
		targets = append(targets, srv.URL)
	}
	t.Cleanup(func() {
		for _, db := range dbs {
			db.Close()
		}
	})
	coord, err := NewCoordinator(rt, targets, Config{})
	if err != nil {
		t.Fatal(err)
	}

	const batch = 40
	newRecs := makeInsertRecords(batch, 900_000_001)
	seq, err := coord.Insert(newRecs)
	if err != nil {
		t.Fatal(err)
	}
	if seq == 0 {
		t.Fatal("insert acknowledged with WAL seq 0")
	}

	// Each group sits in exactly the shard RouteMags names.
	wantPerShard := make([]int, rt.NumShards())
	m := make([]float64, 5)
	for i := range newRecs {
		for d := 0; d < 5; d++ {
			m[d] = float64(newRecs[i].Mags[d])
		}
		wantPerShard[rt.RouteMags(m)]++
	}
	for i, db := range dbs {
		if got := db.MemRows(); got != wantPerShard[i] {
			t.Errorf("shard %d memtable holds %d rows, RouteMags grouped %d", i, got, wantPerShard[i])
		}
	}

	// Visibility through the coordinator's own scatter path.
	stmt := mustParse(t, "SELECT objid")
	cur, err := coord.ExecStatement(context.Background(), stmt, core.PlanAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	seen := make(map[int64]bool)
	for cur.Next() {
		seen[cur.Record().ObjID] = true
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range newRecs {
		if !seen[newRecs[i].ObjID] {
			t.Fatalf("inserted row %d not visible through the coordinator", newRecs[i].ObjID)
		}
	}
	if len(seen) != len(recs)+batch {
		t.Errorf("coordinator sees %d rows, want %d", len(seen), len(recs)+batch)
	}
}
