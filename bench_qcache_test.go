package repro

import (
	"context"
	"testing"

	"repro/internal/core"
)

// BenchmarkStatementCache contrasts the statement result cache's two
// paths over the persisted churn database: miss executes the full
// cursor pipeline (plan, scan, collect), hit serves the materialized
// answer with zero page I/O. The hit path must verify exactness —
// FromCache set, no reads — not just speed.
func BenchmarkStatementCache(b *testing.B) {
	churnOnce.Do(func() { churnDir, churnPages, churnErr = buildChurnDB() })
	if churnErr != nil {
		b.Fatal(churnErr)
	}
	const src = "SELECT objid, g, r WHERE g - r > 0.2 AND r < 20 LIMIT 100"
	drain := func(db *core.SpatialDB) core.Report {
		cur, err := db.QueryStatement(context.Background(), src, core.PlanAuto)
		if err != nil {
			b.Fatal(err)
		}
		for cur.Next() {
		}
		if err := cur.Err(); err != nil {
			b.Fatal(err)
		}
		rep := cur.Stats()
		cur.Close()
		return rep
	}

	b.Run("miss", func(b *testing.B) {
		// Cache disabled: every iteration is the uncached pipeline.
		db, err := core.OpenExisting(core.Config{Dir: churnDir})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		var rows int64
		for i := 0; i < b.N; i++ {
			rows = drain(db).RowsReturned
		}
		b.ReportMetric(float64(rows), "rows")
	})

	b.Run("hit", func(b *testing.B) {
		db, err := core.OpenExisting(core.Config{Dir: churnDir, ResultCacheBytes: 8 << 20})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		warm := drain(db) // fill
		if warm.FromCache {
			b.Fatal("first execution claims FromCache")
		}
		b.ResetTimer()
		var rep core.Report
		for i := 0; i < b.N; i++ {
			rep = drain(db)
		}
		b.StopTimer()
		if !rep.FromCache {
			b.Fatal("hit path not served from cache")
		}
		if rep.DiskReads != 0 || rep.CacheHits != 0 || rep.PagesScanned != 0 {
			b.Fatalf("cache hit did page I/O: %+v", rep)
		}
		b.ReportMetric(float64(rep.RowsReturned), "rows")
	})
}
