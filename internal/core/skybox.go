package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/pagestore"
	"repro/internal/sky"
	"repro/internal/table"
)

// QuerySkyBox streams the catalog rows whose (ra, dec) fall inside
// the rectangular sky cut — the §5.2 sky-view selection. The catalog's
// sky cell index (sky.CellIndex) names the rows of its covered prefix
// that can lie inside the box: only their pages are read and only they
// are tested. The pages past it, the unindexed tail, are read and
// tested row by row. Every emitted row passed
// the exact test, so rows stream in physical order exactly as a full
// scan emits them, memtable rows after the paged rows, under snapshot
// isolation like every other cursor. The caller must Close the cursor.
func (db *SpatialDB) QuerySkyBox(ctx context.Context, box table.SkyBoxPred, cols table.ColumnSet) (Cursor, error) {
	if box.RaMin > box.RaMax || box.DecMin > box.DecMax {
		return nil, fmt.Errorf("core: empty sky box [%g,%g]x[%g,%g]", box.RaMin, box.RaMax, box.DecMin, box.DecMax)
	}
	sn, err := db.snapshot()
	if err != nil {
		return nil, err
	}
	scope := db.eng.Store().Scoped()
	catalog := sn.catalog.Scoped(scope).ScanClassed()
	ix, built, err := sn.sky.get(catalog)
	if err != nil {
		sn.release()
		return nil, err
	}
	cur := &skyCursor{
		box:   box,
		scope: scope,
	}
	rows := ix.Rows(&cur.box)
	cur.covered = rows.Covered() / table.RecordsPerPage
	if built {
		cur.built = cur.covered
	}
	cur.it = catalog.IterRangeSky(ctx, 0, table.RowID(sn.catalog.NumRows()), cols, &cur.box, rows, &cur.counters)
	var out Cursor = cur
	if len(sn.mem) > 0 {
		b := box
		out = &chainCursor{
			base: cur,
			mem: &memCursor{
				rows: sn.mem,
				cols: cols,
				filter: func(r *table.Record) bool {
					return b.Contains(float64(r.Ra), float64(r.Dec))
				},
			},
		}
	}
	return &snapCursor{Cursor: out, sn: sn}, nil
}

// skyIndex holds one catalog's sky cell index, built by the first sky
// cut that needs it rather than at open — a cold open reads no table
// page, and a store that serves no sky cut never pays for it. A fresh
// holder is installed with every catalog (setCatalog) and captured in
// each snapshot beside that catalog, so a cursor never pairs one
// catalog's index with another's rows. The build reads the catalog's
// covered pages through the pool's scan class, under the accounting
// scope of the cut that triggered it: that cut's Report counts them
// among its scanned pages, disk reads and cache hits.
type skyIndex struct {
	mu sync.Mutex
	ix *sky.CellIndex
}

// get returns the index over catalog, building it on first use, and
// whether this call built it. A failed build is not remembered; the
// next cut retries it.
func (s *skyIndex) get(catalog *table.Table) (*sky.CellIndex, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ix != nil {
		return s.ix, false, nil
	}
	ix, err := sky.BuildCellIndex(catalog)
	if err != nil {
		return nil, false, fmt.Errorf("core: %w", err)
	}
	s.ix = ix
	return ix, true, nil
}

// skyCursor adapts the sky table iterator to the Cursor interface with
// the usual per-cursor accounting scope.
type skyCursor struct {
	box      table.SkyBoxPred
	covered  int // leading pages the cell index covers
	built    int // pages this cut read to build the cell index
	it       *table.Iter
	scope    *pagestore.Scope
	counters table.ScanCounters
	rec      table.Record
	emitted  int64
	closed   bool
}

func (c *skyCursor) Next() bool {
	if c.closed {
		return false
	}
	if c.it.Next(&c.rec) {
		c.emitted++
		return true
	}
	return false
}

func (c *skyCursor) Record() *table.Record { return &c.rec }
func (c *skyCursor) Err() error            { return c.it.Err() }

func (c *skyCursor) Close() error {
	if !c.closed {
		c.closed = true
		c.it.Close()
	}
	return nil
}

func (c *skyCursor) Stats() Report {
	st := c.scope.Stats()
	return Report{
		Plan:         PlanPrunedScan,
		PlanReason:   fmt.Sprintf("sky box: ra/dec cell index over the first %d pages, row-tested tail", c.covered),
		RowsReturned: c.emitted,
		RowsExamined: c.counters.Examined.Load(),
		PagesSkipped: c.counters.PagesSkipped.Load(),
		PagesScanned: c.counters.PagesScanned.Load() + int64(c.built),
		DiskReads:    st.DiskReads,
		CacheHits:    st.Hits,
	}
}
