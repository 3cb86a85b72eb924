package core

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/colorsql"
	"repro/internal/planner"
	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vec"
)

// zoneBestKey is the best key any row of the zone can take under the
// ordering — the corner of a linear key, mindist² (maxdist² under DESC)
// of a distance — in the arithmetic the ranking key uses, negated
// under DESC so that smaller ranks first.
func zoneBestKey(o *colorsql.OrderBy, z *table.PageZone) float64 {
	if o.Dist != nil {
		box := vec.Box{Min: z.Min[:], Max: z.Max[:]}
		if o.Desc {
			return -box.MaxDist2(o.Dist)
		}
		return box.Dist2(o.Dist)
	}
	sign := 1.0
	if o.Desc {
		sign = -1
	}
	s := sign * o.K
	for i, c := range o.Coeffs {
		if c *= sign; c < 0 {
			s += c * z.Max[i]
		} else {
			s += c * z.Min[i]
		}
	}
	return s
}

// TestOrderedLimitReadsOnlyWinningPages: an ordered LIMIT visits its
// candidate pages best key first and stops at the first that cannot
// beat the k-th key τ. The candidate pages are those of the plan's
// ranges that the WHERE's own zone test does not rule out (every page
// without a WHERE). On a tree-less store, whose rows are clustered on r
// so that its zones can prune a WHERE, every page is keyed up front: the
// scan reads exactly the candidate pages whose zone's best key is no
// worse than τ — the lower bound of any scan that skips a page only when
// no row on it can win. On a kd store the pages are found by walking the
// tree best node first: it expands exactly the leaves meeting the ranges
// whose tight bounds' best key is no worse than τ, and reads exactly the
// candidate pages of those leaves whose zone's best key is — never more
// than the tree-less scan. A near-total WHERE, whose candidates are
// every page, is bounded like any other: it runs the index scan, never
// a scan without zones. WHERE-less kNNs run at k up to 1 000.
func TestOrderedLimitReadsOnlyWinningPages(t *testing.T) {
	recs, err := sky.Generate(sky.DefaultParams(30000, 42))
	if err != nil {
		t.Fatal(err)
	}
	slices.SortStableFunc(recs, func(a, b table.Record) int { return cmp.Compare(a.Mags[2], b.Mags[2]) })
	const cut = "g - r > 0.45 AND r < 21"
	stmts := []string{
		"SELECT * WHERE " + cut + " ORDER BY g - r DESC LIMIT 50",
		"SELECT * WHERE " + cut + " ORDER BY r LIMIT 20",
		"SELECT * WHERE " + cut + " ORDER BY dist(19.5, 18.6, 18.1, 17.9, 17.8) LIMIT 10",
		"SELECT * WHERE " + cut + " ORDER BY dist(19.5, 18.6, 18.1, 17.9, 17.8) DESC LIMIT 5",
		"SELECT * ORDER BY g - r LIMIT 30",
		"SELECT * ORDER BY u - 2 * g + r DESC LIMIT 10",
		"SELECT * ORDER BY dist(19.5, 18.6, 18.1, 17.9, 17.8) LIMIT 1",
		"SELECT * ORDER BY dist(19.5, 18.6, 18.1, 17.9, 17.8) LIMIT 10",
		"SELECT * ORDER BY dist(18.2, 17.1, 16.6, 16.4, 16.3) LIMIT 1000",
	}
	// Near-total WHEREs: every row matches, so no zone rules a page out.
	nearTotal := []string{
		"SELECT * WHERE g - r > -5 ORDER BY dist(19.5, 18.6, 18.1, 17.9, 17.8) LIMIT 10",
		"SELECT * WHERE g - r > -5 ORDER BY r LIMIT 20",
		"SELECT * WHERE r < 40 ORDER BY g - r DESC LIMIT 50",
		"SELECT * WHERE r < 40 ORDER BY dist(19.5, 18.6, 18.1, 17.9, 17.8) DESC LIMIT 5",
	}
	stmts = append(stmts, nearTotal...)
	for _, kd := range []bool{true, false} {
		db := openDB(t, 0)
		if err := db.IngestRecords(recs); err != nil {
			t.Fatal(err)
		}
		name := "treeless"
		if kd {
			name = "kd"
			if err := db.BuildKdIndex(0); err != nil {
				t.Fatal(err)
			}
		}
		zones := db.catalog.ZoneMaps()
		for _, src := range stmts {
			stmt := mustStatement(t, src)
			// The pages the statement may read: the plan's ranges less the
			// pages the WHERE's zone test skips, or every page.
			var pages []int
			ranges := []planner.ScanTask{{Lo: 0, Hi: table.RowID(db.catalog.NumRows())}}
			if stmt.HasWhere {
				pl, err := db.Planner()
				if err != nil {
					t.Fatal(err)
				}
				choice, err := pl.Plan(stmt.Where.Polys)
				if err != nil {
					t.Fatal(err)
				}
				pred, err := table.CompilePagePred(stmt.Where.Polys)
				if err != nil {
					t.Fatal(err)
				}
				ranges = choice.Ranges
				for _, r := range choice.Ranges {
					for pg := int(r.Lo / table.RecordsPerPage); pg < int((r.Hi+table.RecordsPerPage-1)/table.RecordsPerPage); pg++ {
						if z, _ := zones.Page(pg); !r.Filter || pred.Classify(&z) != vec.Outside {
							pages = append(pages, pg)
						}
					}
				}
			} else {
				for pg := range db.catalog.NumPages() {
					pages = append(pages, pg)
				}
			}
			if slices.Contains(nearTotal, src) && len(pages) != db.catalog.NumPages() {
				t.Fatalf("%s: %s: %d of %d pages are candidates; the WHERE is not near-total", name, src, len(pages), db.catalog.NumPages())
			}

			got, rep := collectStatement(t, db, src, PlanAuto)
			want := PlanPrunedScan
			if kd {
				want = PlanKdTree
			}
			if stmt.HasWhere && rep.Plan != want {
				t.Fatalf("%s: %s ran as %v, want %v", name, src, rep.Plan, want)
			}
			if len(got) != stmt.Limit {
				t.Fatalf("%s: %s returned %d rows, want %d", name, src, len(got), stmt.Limit)
			}
			o := stmt.Order
			bound := table.NewKeyBound(o.Coeffs, o.K, o.Desc)
			if o.Dist != nil {
				bound = table.NewDistBound(o.Dist, o.Desc)
			}
			tau := bound.Key(&got[len(got)-1].Mags)
			winning := 0
			for _, pg := range pages {
				if z, _ := zones.Page(pg); zoneBestKey(o, &z) <= tau {
					winning++
				}
			}
			wantPages, leaves := winning, 0
			if kd {
				// The leaves the walk must expand, and of the pages they
				// touch, the candidates keying no worse than τ.
				touched := map[int]bool{}
				for _, ni := range db.kd.LeafNodes {
					n := &db.kd.Nodes[ni]
					meets := slices.ContainsFunc(ranges, func(r planner.ScanTask) bool { return r.Lo < n.RowHi && n.RowLo < r.Hi })
					if !meets || bound.BoxBest(n.Bounds) > tau {
						continue
					}
					leaves++
					for pg := int(n.RowLo / table.RecordsPerPage); pg <= int((n.RowHi-1)/table.RecordsPerPage); pg++ {
						touched[pg] = true
					}
				}
				wantPages = 0
				for _, pg := range pages {
					if z, _ := zones.Page(pg); touched[pg] && zoneBestKey(o, &z) <= tau {
						wantPages++
					}
				}
			}
			if rep.PagesScanned != int64(wantPages) || rep.LeavesExamined != int64(leaves) {
				t.Errorf("%s: %s scanned %d pages over %d leaves; want %d pages over %d leaves (%d of its %d candidate pages can hold a row keying ≤ the k-th key %v)",
					name, src, rep.PagesScanned, rep.LeavesExamined, wantPages, leaves, winning, len(pages), tau)
			}
			if winning*2 > len(pages) {
				t.Errorf("%s: %s: %d of %d candidate pages can win; the case does not exercise the bound", name, src, winning, len(pages))
			}
			full, _ := collectStatement(t, db, src, PlanFullScan)
			if !bytes.Equal(renderRows(stmt, got), renderRows(stmt, full)) {
				t.Errorf("%s: %s differs from its full scan", name, src)
			}
		}
	}
}

// renderRows is a statement's answer as the wire renders it.
func renderRows(stmt colorsql.Statement, recs []table.Record) []byte {
	enc := NewRowEncoder(stmt.OutputColumns())
	var out []byte
	for i := range recs {
		out = append(enc.AppendRow(out, &recs[i]), '\n')
	}
	return out
}

// TestOrderedLimitTiesRankByRowID: rows tied on key and ObjID rank by
// their place in the store's physical order, whatever order the scan
// visits their pages in. Two such rows sit on two pages that the
// bounded scan visits in reverse table order, and a third is a
// memtable row, which ranks after every paged row in commit order. The
// index scan must emit them exactly as the full scan does, which
// visits in table order: first page, second page, memtable.
func TestOrderedLimitTiesRankByRowID(t *testing.T) {
	const rpp = table.RecordsPerPage
	row := func(id int64, r, ra float32) table.Record {
		return table.Record{ObjID: id, Mags: [table.Dim]float32{20, 19, r, 17, 16}, Ra: ra, Dec: 1}
	}
	recs := make([]table.Record, 0, 4*rpp)
	// Page 0: a tied row, the rest at r = 25; best key 16.
	recs = append(recs, row(777, 16, 10))
	for i := 1; i < rpp; i++ {
		recs = append(recs, row(int64(1000+i), 25, 0))
	}
	// Page 1: the best row (r = 15) and the other tied row, the rest at
	// r = 30; best key 15, so the bounded scan reads it first.
	recs = append(recs, row(5, 15, 0), row(777, 16, 20))
	for i := 2; i < rpp; i++ {
		recs = append(recs, row(int64(2000+i), 30, 0))
	}
	// Page 2: nothing that can win. Page 3: nothing the WHERE keeps.
	for i := 0; i < rpp; i++ {
		recs = append(recs, row(int64(3000+i), 28, 0))
	}
	for i := 0; i < rpp; i++ {
		recs = append(recs, row(int64(4000+i), 35, 0))
	}
	db := openDB(t, 0)
	if err := db.IngestRecords(recs); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert([]table.Record{row(777, 16, 30)}); err != nil {
		t.Fatal(err)
	}

	// LIMIT 2 ends with τ = 16 after page 1, so page 0's best key ties τ:
	// it must still be read, for its tied row ranks first.
	for _, limit := range []int{2, 4} {
		for _, src := range []string{
			fmt.Sprintf("SELECT objid, r, ra WHERE r < 32 ORDER BY r LIMIT %d", limit),
			fmt.Sprintf("SELECT objid, r, ra ORDER BY r LIMIT %d", limit),
		} {
			stmt := mustStatement(t, src)
			auto, rep := collectStatement(t, db, src, PlanAuto)
			full, _ := collectStatement(t, db, src, PlanFullScan)
			if !bytes.Equal(renderRows(stmt, auto), renderRows(stmt, full)) {
				t.Errorf("%s:\nauto %s\nfull %s", src, renderRows(stmt, auto), renderRows(stmt, full))
			}
			var got []float32
			for _, r := range auto {
				got = append(got, r.Ra)
			}
			// objid 5 (ra 0), then the tied rows in RowID order.
			if want := []float32{0, 10, 20, 30}[:limit]; !slices.Equal(got, want) || auto[0].ObjID != 5 {
				t.Errorf("%s: rows %+v, want objid 5 then the tied rows by ra %v", src, auto, want[1:])
			}
			// The first page visited is page 1 and page 0 follows it; pages
			// 2 and 3 are skipped, by the k-th key or by the WHERE.
			if stmt.HasWhere && rep.Plan != PlanPrunedScan {
				t.Errorf("%s ran as %v, want the zone-pruned scan", src, rep.Plan)
			}
			if rep.PagesScanned != 2 || rep.PagesSkipped != 2 {
				t.Errorf("%s: scanned %d, skipped %d pages, want 2 and 2", src, rep.PagesScanned, rep.PagesSkipped)
			}
		}
	}
}
