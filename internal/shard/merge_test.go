package shard

import (
	"context"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/sky"
)

// TestScatterEquivalence is the merge-layer contract: for every plan
// path and statement shape, the coordinator's answer is identical to
// the single store's over the same catalog. Ordered statements must
// match row for row (byte-identical serialization); unordered ones as
// sets (shard concatenation order is not catalog scan order); a plain
// LIMIT without ORDER BY selects an arbitrary subset by definition,
// so only the count is comparable.
func TestScatterEquivalence(t *testing.T) {
	cl := startCluster(t, Config{})
	single := openSingle(t)
	ctx := context.Background()

	cases := []struct {
		name, src string
		ordered   bool
		countOnly bool
	}{
		{"where-and", "SELECT objid, g, r WHERE g - r > 0.4 AND r < 18.0", false, false},
		{"where-or-dedup", "SELECT * WHERE u - g > 0.8 OR g - r > 0.9", false, false},
		{"where-selective", "SELECT objid WHERE r < 14.5", false, false},
		{"wide-projection", "SELECT objid, u, g, r, i, z, ra, dec, redshift, class WHERE r < 16.0", false, false},
		{"full-scan", "SELECT objid", false, false},
		{"order-asc", "SELECT * ORDER BY r LIMIT 25", true, false},
		{"order-desc", "SELECT objid, r ORDER BY r DESC LIMIT 25", true, false},
		{"order-expr", "SELECT objid, g, r ORDER BY g - r LIMIT 30", true, false},
		{"knn-order", "SELECT * ORDER BY dist(16.0, 15.8, 15.6, 15.5, 15.4) LIMIT 10", true, false},
		{"limit-subset", "SELECT objid, g WHERE g - r > 0.2 AND r < 19.0 LIMIT 40", false, true},
		{"limit-zero", "SELECT objid LIMIT 0", false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stmt := mustParse(t, tc.src)
			curS, err := single.ExecStatement(ctx, stmt, core.PlanAuto)
			if err != nil {
				t.Fatal(err)
			}
			want := renderRows(t, stmt, curS)
			curC, err := cl.coord.ExecStatement(ctx, stmt, core.PlanAuto)
			if err != nil {
				t.Fatal(err)
			}
			got := renderRows(t, stmt, curC)

			if tc.countOnly {
				if len(got) != len(want) {
					t.Fatalf("row count %d, single store %d", len(got), len(want))
				}
				return
			}
			if !tc.ordered {
				sort.Strings(want)
				sort.Strings(got)
			}
			if len(got) != len(want) {
				t.Fatalf("row count %d, single store %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("row %d differs:\n coordinator %s\n single      %s", i, got[i], want[i])
				}
			}
		})
	}
}

// TestScatterDuplicateObjID pins the merge's rule where it is
// observable: a catalog holding two physical rows with one ObjID. Rows
// are never merged — whatever the WHERE, a multi-clause union
// included, the single store returns both copies and so must the
// coordinator, whichever shards they landed on.
func TestScatterDuplicateObjID(t *testing.T) {
	p := sky.DefaultParams(900, 23)
	recs, err := sky.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	// One copy next to its original, one far across magnitude space
	// (another routing unit, so very likely another shard).
	near, far := recs[10], recs[20]
	near.Mags[2] += 0.01
	for d := range far.Mags {
		far.Mags[d] = 40 - far.Mags[d]
	}
	recs = append(recs, near, far)

	root := t.TempDir()
	single, err := core.Open(core.Config{Dir: filepath.Join(root, "single")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { single.Close() })
	if err := single.IngestRecords(recs); err != nil {
		t.Fatal(err)
	}
	if err := single.BuildKdIndex(0); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "cluster")
	if _, err := BuildCluster(dir, recs, BuildParams{Shards: fixtureShards, Seed: 23}); err != nil {
		t.Fatal(err)
	}
	cl := startClusterAt(t, dir, Config{}, core.Config{})

	ctx := context.Background()
	for _, tc := range []struct {
		src  string
		rows int
	}{
		{"SELECT *", 902},
		{"SELECT * WHERE r < 90", 902},
		{"SELECT objid, r WHERE r < 90 ORDER BY r", 902},
		{"SELECT * WHERE r < 90 OR g < 90", 902},
	} {
		stmt := mustParse(t, tc.src)
		render := func(cur core.Cursor, err error) []string {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			rows := renderRows(t, stmt, cur)
			sort.Strings(rows)
			return rows
		}
		want := render(single.ExecStatement(ctx, stmt, core.PlanAuto))
		got := render(cl.coord.ExecStatement(ctx, stmt, core.PlanAuto))
		if len(want) != tc.rows {
			t.Errorf("%q: single store returned %d rows, want %d", tc.src, len(want), tc.rows)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%q: coordinator (%d rows) and single store (%d rows) disagree", tc.src, len(got), len(want))
		}
	}
}

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
