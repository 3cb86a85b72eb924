package shard

import (
	"context"
	"math"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/colorsql"
	"repro/internal/core"
)

// TestScatterPrunesShards: a predicate confined to one corner of
// magnitude space skips shards the routing table proves disjoint, and
// the answer still matches the single store.
func TestScatterPrunesShards(t *testing.T) {
	cl := startCluster(t, Config{})
	single := openSingle(t)

	// Walk the fixture's statements until one actually prunes (the
	// kd split layout decides which cuts align with shard boundaries).
	pruned := false
	for _, src := range []string{
		"SELECT objid WHERE u < 14.0",
		"SELECT objid WHERE u > 26.0",
		"SELECT objid WHERE g < 14.0",
		"SELECT objid WHERE r < 13.5",
	} {
		stmt := mustParse(t, src)
		targets := cl.rt.TargetsFor(stmt.Where.Polys)
		if len(targets) == cl.rt.NumShards() {
			continue
		}
		pruned = true
		curS, err := single.ExecStatement(context.Background(), stmt, core.PlanAuto)
		if err != nil {
			t.Fatal(err)
		}
		want := renderRows(t, stmt, curS)
		curC, err := cl.coord.ExecStatement(context.Background(), stmt, core.PlanAuto)
		if err != nil {
			t.Fatal(err)
		}
		got := renderRows(t, stmt, curC)
		sort.Strings(want)
		sort.Strings(got)
		if len(got) != len(want) {
			t.Fatalf("%s: pruned scatter returned %d rows, single store %d", src, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: row %d differs: %s vs %s", src, i, got[i], want[i])
			}
		}
	}
	if !pruned {
		t.Error("no test predicate pruned any shard — routing-table pruning untested")
	}
}

// TestScatterSelectivityWeighsShards: the coordinator reports the
// catalog-wide estimated selectivity — each targeted shard's own
// estimate weighted by its rows in the routing table — not the estimate
// of whichever shard finished last. The shards carry grids, so each
// counts the colour cut on its own layer 1, and the estimates differ.
func TestScatterSelectivityWeighsShards(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cluster")
	if _, err := BuildCluster(dir, fixtureRecs, BuildParams{Shards: fixtureShards, Seed: fixtureSeed, Indexes: true}); err != nil {
		t.Fatal(err)
	}
	cl := startClusterAt(t, dir, Config{}, core.Config{})
	stmt := mustParse(t, "SELECT objid WHERE g - r > 0.5 AND g - r < 0.55")
	estimate := func(db interface {
		ExecStatement(context.Context, colorsql.Statement, core.Plan) (core.Cursor, error)
	}) float64 {
		t.Helper()
		cur, err := db.ExecStatement(context.Background(), stmt, core.PlanAuto)
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := core.Collect(cur)
		if err != nil {
			t.Fatal(err)
		}
		return rep.EstimatedSelectivity
	}
	var want float64
	ests := map[float64]bool{}
	targets := cl.rt.TargetsFor(stmt.Where.Polys)
	for _, i := range targets {
		sel := estimate(cl.dbs[i])
		ests[sel] = true
		want += sel * float64(cl.rt.Shards[i].Rows) / float64(cl.rt.TotalRows)
	}
	if len(targets) < 2 || len(ests) < 2 {
		t.Fatalf("fixture: the cut targets shards %v with estimates %v; the test needs two that differ", targets, ests)
	}
	if got := estimate(cl.coord); math.Abs(got-want) > 1e-12 {
		t.Errorf("coordinator estimated %v, the shards' row-weighted sum is %v (per shard %v)", got, want, ests)
	}
}
