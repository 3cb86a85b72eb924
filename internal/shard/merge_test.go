package shard

import (
	"context"
	"sort"
	"testing"

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
