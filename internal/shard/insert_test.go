package shard

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vec"
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

// TestPhotoZAfterInsertMatchesSingleStore: spectroscopic rows inserted
// through the coordinator next to photo-z probes owned by different
// shards join each owner's reference at its next minor compaction, and
// from then on every coordinator estimate is float64-equal to a single
// store's over the same rows — whichever shards the neighbours sit on,
// and whatever order the fit's sums would take them in.
func TestPhotoZAfterInsertMatchesSingleStore(t *testing.T) {
	p := sky.DefaultParams(2400, 17)
	p.SpectroFrac = 0.1
	recs, err := sky.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rt, err := BuildCluster(dir, recs, BuildParams{Shards: fixtureShards, Seed: 17, Indexes: true})
	if err != nil {
		t.Fatal(err)
	}
	cl := startClusterAt(t, dir, Config{HedgeAfter: -1}, core.Config{})
	single, err := core.Open(core.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { single.Close() })
	for _, build := range []func() error{
		func() error { return single.IngestRecords(recs) },
		func() error { return single.BuildKdIndex(0) },
		func() error { return single.BuildPhotoZ(24, 1) },
	} {
		if err := build(); err != nil {
			t.Fatal(err)
		}
	}

	// One probe on a catalog row of each shard, and beside each probe
	// eight spectroscopic rows at a redshift no catalog row has.
	var probes []vec.Point
	var batch []table.Record
	for s := 0; s < rt.NumShards(); s++ {
		i := slices.IndexFunc(recs, func(r table.Record) bool { return rt.RouteMags(r.Point()) == s })
		probe := recs[i].Point()
		probes = append(probes, probe)
		for j := 0; j < 8; j++ {
			rec := recs[i]
			rec.ObjID = 700_000_000 + int64(len(batch))
			rec.Mags[j%table.Dim] += float32(j+1) * 0.002
			rec.Redshift, rec.HasZ = 2.5+float32(j)/100, true
			batch = append(batch, rec)
		}
	}
	// Probes on every eightieth catalog row besides, whose fits are
	// sensitive to the order the neighbours arrive in.
	for i := 0; i < len(recs); i += 80 {
		probe := recs[i].Point()
		probe[1] += 0.03
		probes = append(probes, probe)
	}
	owners := map[int]bool{}
	for _, rec := range batch {
		owners[rt.RouteMags(rec.Point())] = true
	}
	if len(owners) != rt.NumShards() {
		t.Fatalf("the inserted rows route to %d of %d shards", len(owners), rt.NumShards())
	}

	before, _, err := single.EstimateRedshiftBatch(context.Background(), probes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.coord.Insert(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := single.Insert(batch); err != nil {
		t.Fatal(err)
	}
	for _, db := range append(slices.Clone(cl.dbs), single) {
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	want, _, err := single.EstimateRedshiftBatch(context.Background(), probes)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(want, before) {
		t.Fatalf("the inserted rows move no estimate (%v): the test shows nothing", want)
	}
	for call := 0; call < 2*rt.NumShards(); call++ {
		got, rep, err := cl.coord.EstimateRedshiftBatch(context.Background(), probes)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) || rep.RowsReturned != int64(len(probes)) {
			t.Fatalf("call %d: the coordinator estimates %v (%d reported), the single store %v", call, got, rep.RowsReturned, want)
		}
	}
}
