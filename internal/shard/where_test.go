package shard

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/colorsql"
	"repro/internal/core"
	"repro/internal/sky"
	"repro/internal/table"
)

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

// statementRunner is what a single store and a coordinator share.
type statementRunner interface {
	ExecStatement(context.Context, colorsql.Statement, core.Plan) (core.Cursor, error)
}

// TestWhereOneWalk is the property one-walk execution rests on: a WHERE
// of one to four clauses is answered by one pass over disjoint ranges,
// so its rows are the physical rows a slice filtered by Union.Contains
// holds — each once, never merged, duplicates of an ObjID included —
// under every plan, with the rows paged, in the memtable, in a
// minor-compacted tail or filed into the leaves of a rebuilt tree, on a
// single store and through a 3-shard coordinator. The single store
// emits them in ascending table order, the one physical order the full
// scan and the index scan share; a
// disjunct never shrinks an answer; and a LIMIT under a union is pushed
// into the scan (pages read bounded by where the n-th match sits) and,
// on the cluster, into the visits (one sub-request when the first
// target can fill it). An ordered LIMIT pushes its k-th key into the
// same walk: its answer is the head of the reference sorted on (key,
// ObjID, arrival), byte for byte, on a store with a tree, one with
// none and through the coordinator, wherever the LIMIT cuts a tie
// group.
func TestWhereOneWalk(t *testing.T) {
	recs, err := sky.Generate(sky.DefaultParams(2400, 31))
	if err != nil {
		t.Fatal(err)
	}
	// Two more physical rows under existing ObjIDs: one next to its
	// original, one mirrored across magnitude space (another shard).
	near, far := recs[10], recs[20]
	near.Mags[2] += 0.01
	for d := range far.Mags {
		far.Mags[d] = 40 - far.Mags[d]
	}
	// A tie group for the ordered arms: 320 rows share r = 17 exactly,
	// one of them twice under one ObjID (the copies differ in u alone).
	for i := 100; i < 420; i++ {
		recs[i].Mags[2] = 17
	}
	twin := recs[100]
	twin.Mags[0] += 0.5
	recs = append(recs, near, far, twin)

	root := t.TempDir()
	open := func(name string) *core.SpatialDB {
		db, err := core.Open(core.Config{Dir: filepath.Join(root, name)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	// single carries every index; bare has no tree at all.
	single, bare := open("single"), open("bare")
	locals := []*core.SpatialDB{single, bare}
	for _, build := range []func() error{
		func() error { return single.IngestRecords(recs) },
		func() error { return single.BuildKdIndex(0) },
		func() error { return bare.IngestRecords(recs) },
	} {
		if err := build(); err != nil {
			t.Fatal(err)
		}
	}
	dir := filepath.Join(root, "cluster")
	if _, err := BuildCluster(dir, recs, BuildParams{Shards: fixtureShards, Seed: 31}); err != nil {
		t.Fatal(err)
	}
	cl := startClusterAt(t, dir, Config{HedgeAfter: -1})

	ctx := context.Background()
	all := slices.Clone(recs) // the reference: every acknowledged row, in commit order
	star := colorsql.StarColumns()
	render := func(rec *table.Record) string { return string(core.AppendRowJSON(nil, star, rec)) }
	run := func(b statementRunner, stmt colorsql.Statement, plan core.Plan) ([]string, core.Report) {
		t.Helper()
		cur, err := b.ExecStatement(ctx, stmt, plan)
		if err != nil {
			t.Fatalf("%s: %v", stmt.String(), err)
		}
		rows := renderRows(t, stmt, cur)
		return rows, cur.Stats()
	}
	sorted := func(rows []string) []string {
		rows = slices.Clone(rows)
		slices.Sort(rows)
		return rows
	}

	states := []struct {
		name  string
		enter func() error
	}{
		{"paged", func() error { return nil }},
		{"memtable", func() error {
			fresh := makeInsertRecords(240, 800_000_001)
			third := near // a third copy of one ObjID, acknowledged but not yet paged
			third.Mags[2] += 0.01
			third.Redshift, third.HasZ = 0, false // the insert wire carries only measured redshifts
			fresh = append(fresh, third)
			all = append(all, fresh...)
			for _, db := range locals {
				if _, err := db.Insert(fresh); err != nil {
					return err
				}
			}
			_, err := cl.coord.Insert(fresh)
			return err
		}},
		{"tail", func() error {
			for _, db := range append(slices.Clone(locals), cl.dbs...) {
				if err := db.Compact(); err != nil {
					return err
				}
			}
			if n := single.MemRows(); n != 0 {
				return fmt.Errorf("%d rows left in the memtable", n)
			}
			return nil
		}},
		{"full", func() error {
			for _, db := range append(slices.Clone(locals), cl.dbs...) {
				if err := db.CompactFull(); err != nil {
					return err
				}
			}
			// A rebuild over the catalog's own clustered rows.
			return single.BuildKdIndex(0)
		}},
	}
	plans := []core.Plan{core.PlanAuto, core.PlanFullScan, core.PlanKdTree}
	rng := rand.New(rand.NewSource(28))
	for _, st := range states {
		if err := st.enter(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		paged := len(all) - single.MemRows()

		// Table order: where each row sits in the stream of a one-clause
		// WHERE every row is Inside of. The catalog is the one physical
		// copy, so the full scan and the index scan stream it alike.
		var order []string
		for _, plan := range plans[1:] {
			rows, _ := run(single, mustParse(t, "SELECT * WHERE u > -1000"), plan)
			if len(rows) != len(all) {
				t.Fatalf("%s, plan %v: the table holds %d rows, want %d", st.name, plan, len(rows), len(all))
			}
			if order != nil && !slices.Equal(rows, order) {
				t.Fatalf("%s: plan %v streams the table in another order than plan %v", st.name, plan, plans[1])
			}
			order = rows
		}
		position := make(map[string]int, len(order))
		for i, row := range order {
			position[row] = i
		}
		if len(position) != len(order) {
			t.Fatalf("%s: two physical rows render alike; the reference cannot tell them apart", st.name)
		}

		for iter := 0; iter < 10; iter++ {
			clauses := make([]string, 1+iter%4)
			for i := range clauses {
				clauses[i] = "(" + whereClause(rng) + ")"
			}
			src := "SELECT * WHERE " + strings.Join(clauses, " OR ")
			stmt := mustParse(t, src)
			label := st.name + ": " + src
			var want []string
			for i := range all {
				if stmt.Where.Contains(all[i].Point()) {
					want = append(want, render(&all[i]))
				}
			}
			wantSorted := sorted(want)

			for _, plan := range plans {
				got, rep := run(single, stmt, plan)
				if !slices.Equal(sorted(got), wantSorted) {
					t.Fatalf("%s, plan %v: %d rows, reference %d; or they differ", label, plan, len(got), len(want))
				}
				if rep.Plan != core.PlanFullScan && rep.Plan != core.PlanKdTree {
					t.Fatalf("%s, plan %v: ran as %v", label, plan, rep.Plan)
				}
				for i := 1; i < len(got); i++ {
					if position[got[i-1]] >= position[got[i]] {
						t.Fatalf("%s, plan %v: rows %d and %d are not in ascending table order", label, plan, i-1, i)
					}
				}

				for _, n := range []int{1, len(want) / 2, len(want), len(want) + 5} {
					if n == 0 {
						continue
					}
					bounded := stmt
					bounded.Limit = n
					head, rep := run(single, bounded, plan)
					if !slices.Equal(head, got[:min(n, len(got))]) {
						t.Fatalf("%s LIMIT %d, plan %v: %d rows, not the first %d of the unlimited answer", label, n, plan, len(head), min(n, len(got)))
					}
					if len(head) == 0 {
						continue
					}
					last := min(position[head[len(head)-1]], paged-1)
					if n > len(got) {
						last = paged - 1 // ran to the end looking for more
					}
					if touched, bound := rep.DiskReads+rep.CacheHits, int64(last/table.RecordsPerPage+1); touched > bound {
						t.Fatalf("%s LIMIT %d, plan %v: touched %d pages, the last row sits on page %d", label, n, plan, touched, bound-1)
					}
				}
			}

			if len(clauses) > 1 {
				first, _ := run(single, mustParse(t, "SELECT * WHERE "+clauses[0]), core.PlanAuto)
				for _, row := range first {
					if _, ok := slices.BinarySearch(wantSorted, row); !ok {
						t.Fatalf("%s: a row of its first clause alone is missing from the union", label)
					}
				}
			}

			got, _ := run(cl.coord, stmt, core.PlanAuto)
			if !slices.Equal(sorted(got), wantSorted) {
				t.Fatalf("%s, coordinator: %d rows, reference %d; or they differ", label, len(got), len(want))
			}
			targets, answers := shardAnswers(t, cl, stmt, -1)
			for n := 1; len(targets) > 0 && n <= len(want)+5; n += 1 + len(want)/3 {
				bounded := stmt
				bounded.Limit = n
				head, delta, _ := runLimit(t, cl, bounded)
				if len(head) != min(n, len(want)) {
					t.Fatalf("%s LIMIT %d, coordinator: %d rows, want %d", label, n, len(head), min(n, len(want)))
				}
				for _, row := range head {
					if _, ok := slices.BinarySearch(wantSorted, row); !ok {
						t.Fatalf("%s LIMIT %d, coordinator: a row the reference does not hold", label, n)
					}
				}
				// Each target is asked for the rows still missing, so the
				// visits stop at the first one that fills the LIMIT.
				missing := n
				for i, target := range targets {
					visit := int64(0)
					if missing > 0 {
						visit = 1
					}
					if delta[target] != visit {
						t.Fatalf("%s LIMIT %d, coordinator: target %d (shard %d, %d matches) got %d sub-requests, want %d; deltas %v",
							label, n, i, target, len(answers[i]), delta[target], visit, delta)
					}
					missing -= min(missing, len(answers[i]))
				}
			}
		}

		// One total order: key ties break on ObjID on both topologies,
		// so an ordered answer is the same bytes under every plan and
		// through the coordinator, whatever order the rows were met in,
		// however many the k-th key let the scan skip, and wherever the
		// LIMIT cuts a tie group. (The r = 17 group is 321 rows, so LIMIT
		// 150 cuts inside it with more than k ties left over; the inserted
		// rows sit on a 0.1 mag grid and tie in pairs.)
		for _, src := range []string{
			"SELECT objid, r WHERE u > 12 OR g > 12 ORDER BY r",
			"SELECT r WHERE u > 12 ORDER BY r DESC",
			"SELECT objid, g, r WHERE g - r > 0.3 AND r < 21 ORDER BY g - r DESC",
			"SELECT objid, r WHERE r >= 17 ORDER BY r",
			"SELECT objid, r WHERE r <= 17 ORDER BY r DESC",
			"SELECT objid, u ORDER BY 2*u - g",
		} {
			stmt := mustParse(t, src)
			ranked := slices.Clone(all)
			if stmt.HasWhere {
				ranked = slices.DeleteFunc(ranked, func(r table.Record) bool { return !stmt.Where.Contains(r.Point()) })
			}
			slices.SortStableFunc(ranked, func(a, b table.Record) int {
				ka, kb := stmt.Order.Key(a.Point()), stmt.Order.Key(b.Point())
				if stmt.Order.Desc {
					ka, kb = kb, ka
				}
				return cmp.Or(cmp.Compare(ka, kb), cmp.Compare(a.ObjID, b.ObjID))
			})
			if len(ranked) <= 150 {
				t.Fatalf("%s: %s matches %d rows, the LIMITs want more", st.name, src, len(ranked))
			}
			for _, limit := range []int{1, 150, len(ranked) + 5} {
				stmt.Limit = limit
				var want []string
				for i := range ranked[:min(limit, len(ranked))] {
					want = append(want, string(core.AppendRowJSON(nil, stmt.OutputColumns(), &ranked[i])))
				}
				label := fmt.Sprintf("%s: %s LIMIT %d", st.name, src, limit)
				for i, db := range locals {
					storePlans := plans
					if db == bare {
						storePlans = plans[:2] // no index scan to force
					}
					for _, plan := range storePlans {
						if got, _ := run(db, stmt, plan); !slices.Equal(got, want) {
							t.Fatalf("%s, store %d, plan %v: not the reference's order", label, i, plan)
						}
					}
				}
				if got, _ := run(cl.coord, stmt, core.PlanAuto); !slices.Equal(got, want) {
					t.Fatalf("%s, coordinator: not the single store's bytes", label)
				}
			}
		}
	}
}
