package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/colorsql"
	"repro/internal/knn"
	"repro/internal/planner"
	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vec"
)

// distSeq is the squared distance from p of each record, in order.
func distSeq(p vec.Point, recs []table.Record) []float64 {
	out := make([]float64, len(recs))
	for i := range recs {
		out[i] = magsDist2(p, &recs[i])
	}
	return out
}

// bruteDists is knn.BruteForce's distance sequence over the catalog,
// with the memtable rows' distances merged in: the exact answer.
func bruteDists(t *testing.T, db *SpatialDB, p vec.Point, k int, mem []table.Record) []float64 {
	t.Helper()
	cat, err := db.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	nbs, _, err := knn.BruteForce(cat, p, k)
	if err != nil {
		t.Fatal(err)
	}
	var out []float64
	for _, nb := range nbs {
		out = append(out, nb.Dist2)
	}
	out = append(out, distSeq(p, mem)...)
	slices.Sort(out)
	return out[:min(k, len(out))]
}

// TestKNNWithTreeRunsOnSearcher: on a kd store a kNN is the statement
// SELECT * ORDER BY dist(p) LIMIT k, walked best node first (the
// walk that replaced the §3.3 searcher in serving); see
// checkKNNIsItsStatement.
func TestKNNWithTreeRunsOnSearcher(t *testing.T) { checkKNNIsItsStatement(t, true) }

// TestKNNWithoutTreeIsOrderedLimit: on a tree-less store a kNN is the
// same statement over every page, priced as the WHERE-less statement;
// see checkKNNIsItsStatement.
func TestKNNWithoutTreeIsOrderedLimit(t *testing.T) { checkKNNIsItsStatement(t, false) }

// checkKNNIsItsStatement: a kNN is the statement SELECT * ORDER BY
// dist(p) LIMIT k, on a kd store (kd) or a tree-less one, with a
// memtable row beside the pages: the single probe and a one- and a
// two-point batch return the statement's rows and Report (the pool's
// disk/cache split aside), and the rows are brute force's distances, at
// k = N + 1 too. On the tree-less store the kNN is priced as the
// WHERE-less statement; the photo-z price is the reference's PlanKNN at
// every k.
func checkKNNIsItsStatement(t *testing.T, kd bool) {
	db := openDB(t, 1500)
	if kd {
		if err := db.BuildKdIndex(0); err != nil {
			t.Fatal(err)
		}
	}
	cat, _ := db.Catalog()
	var rec table.Record
	if err := cat.Get(42, &rec); err != nil {
		t.Fatal(err)
	}
	fresh := rec
	fresh.ObjID, fresh.Mags[0] = 9_000_000, fresh.Mags[0]+0.01
	if _, err := db.Insert([]table.Record{fresh}); err != nil {
		t.Fatal(err)
	}
	p, q := rec.Point(), sky.GalaxyColors(0.2, 18)
	for _, k := range []int{1, 5, 1501} {
		name := fmt.Sprintf("kd=%v k=%d", kd, k)
		statement := func(pt vec.Point) ([]table.Record, Report) {
			cur, err := db.ExecStatement(context.Background(), knnStatement(pt, k), PlanAuto)
			if err != nil {
				t.Fatal(err)
			}
			recs, rep, err := Collect(cur)
			if err != nil {
				t.Fatal(err)
			}
			return recs, rep
		}
		check := func(path string, pt vec.Point, recs []table.Record, rep Report) {
			t.Helper()
			want, wantRep := statement(pt)
			if !reflect.DeepEqual(recs, want) {
				t.Errorf("%s: %s: %d rows, not the statement's %d", name, path, len(recs), len(want))
			}
			if rep.PagesScanned != rep.DiskReads+rep.CacheHits {
				t.Errorf("%s: %s: pagesScanned %d, diskReads %d + cacheHits %d", name, path, rep.PagesScanned, rep.DiskReads, rep.CacheHits)
			}
			rep.DiskReads, rep.CacheHits, wantRep.DiskReads, wantRep.CacheHits = 0, 0, 0, 0
			if rep != wantRep {
				t.Errorf("%s: %s: report %+v, the statement's %+v", name, path, rep, wantRep)
			}
			if got, want := distSeq(pt, recs), bruteDists(t, db, pt, k, []table.Record{fresh}); !slices.Equal(got, want) {
				t.Errorf("%s: %s: distances %v, brute force over catalog and memtable %v", name, path, got, want)
			}
			if wantPlan := map[bool]Plan{true: PlanKdTree, false: PlanFullScan}[kd]; rep.Plan != wantPlan || (rep.LeavesExamined > 0) != kd {
				t.Errorf("%s: %s: plan %v over %d leaves (%s)", name, path, rep.Plan, rep.LeavesExamined, rep.PlanReason)
			}
		}
		recs, rep, err := db.NearestNeighbors(p, k)
		if err != nil {
			t.Fatal(err)
		}
		check("NearestNeighbors", p, recs, rep)
		if k > 1 && recs[1].ObjID != fresh.ObjID {
			t.Errorf("%s: the memtable row is not the second neighbour of its twin: %v", name, recs[1].ObjID)
		}
		one, reports, err := db.NearestNeighborsBatch(context.Background(), []vec.Point{p}, k)
		if err != nil {
			t.Fatal(err)
		}
		check("one-point batch", p, one[0], reports[0])
		two, reports, err := db.NearestNeighborsBatch(context.Background(), []vec.Point{q, p}, k)
		if err != nil {
			t.Fatal(err)
		}
		check("two-point batch[0]", q, two[0], reports[0])
		check("two-point batch[1]", p, two[1], reports[1])
	}
	if kd {
		return
	}
	const k = 5
	whereless := db.EstimateStatementCost(colorsql.Statement{Star: true, Order: &colorsql.OrderBy{Coeffs: []float64{1, 0, 0, 0, 0}}, Limit: k})
	if got := db.EstimateKNNCost(k, 1); got != whereless || got <= 0 {
		t.Errorf("kNN priced %v, the WHERE-less statement %v", got, whereless)
	}
	if got := db.EstimateStatementCost(knnStatement(q, k)); got != whereless {
		t.Errorf("kNN statement priced %v, the WHERE-less statement %v", got, whereless)
	}
	for _, k := range []int{1, 8, 200, 1500} {
		if err := db.BuildPhotoZ(k, 1); err != nil {
			t.Fatal(err)
		}
		pl := &planner.Planner{Catalog: db.photoZ.Table, Kd: db.photoZ.Tree}
		if got, want := db.EstimatePhotoZCost(3), 3*pl.PlanKNN(k).CostIndex; got != want {
			t.Errorf("photo-z k=%d priced %v, the reference's PlanKNN %v", k, got, want)
		}
	}
}
