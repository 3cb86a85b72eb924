// Command spatialq runs Figure 2-style color queries against a
// database directory written by sdssgen. The default mode is
// serve-from-disk: the persisted catalog and index structures are
// cold-opened through the buffer pool (zero index construction) and
// the query runs immediately — the build-once / serve-many split of
// the paper, where indexes persist inside the database. -build
// constructs any missing index structures from the stored catalog
// and persists them for the next run.
//
// Full SELECT statements stream through the cursor pipeline: rows
// print as the scan produces them (first row long before a large
// result completes), LIMIT stops the scan at the page holding the
// last row, ORDER BY keeps a bounded top-k heap, and Ctrl-C cancels
// the scan mid-flight. -format ndjson emits one JSON object per row.
//
//	spatialq -dir /tmp/sdss -q "g - r > 0.4 AND g - r < 1.0 AND r < 19"
//	spatialq -dir /tmp/sdss -q "r < 22" -plan compare
//	spatialq -dir /tmp/sdss -q "SELECT objid,g,r WHERE g-r>0.4 ORDER BY r LIMIT 20"
//	spatialq -dir /tmp/sdss -q "SELECT * ORDER BY dist(19.5,18.9,18.2,17.9,17.7) LIMIT 5" -format ndjson
//	spatialq -dir /tmp/sdss -q "INSERT INTO catalog VALUES (9000000001, 19.1, 18.5, 18.2, 18.0, 17.9)"
//	spatialq -dir /tmp/sdss -knn "19.5,18.9,18.2,17.9,17.7" -k 10
//	spatialq -dir /tmp/sdss -build        # build+persist missing indexes
//	spatialq -dir /tmp/sdss -q "SELECT objid WHERE r<16 LIMIT 10" -result-cache-mb 8 -repeat 2
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"repro/internal/colorsql"
	"repro/internal/core"
	"repro/internal/table"
	"repro/internal/vec"
)

func main() {
	log.SetFlags(0)
	dir := flag.String("dir", "", "database directory from sdssgen (required)")
	query := flag.String("q", "", "WHERE clause or full SELECT statement over u,g,r,i,z (dered_* aliases accepted)")
	format := flag.String("format", "table", "statement output: table | ndjson")
	knnPt := flag.String("knn", "", "comma-separated 5-D point for nearest neighbour search")
	k := flag.Int("k", 10, "neighbours for -knn")
	plan := flag.String("plan", "auto", "auto | fullscan | compare (the full scan, then auto)")
	build := flag.Bool("build", false, "build and persist missing index structures instead of failing on them")
	limit := flag.Int("limit", 10, "result rows to print")
	seed := flag.Int64("seed", 42, "seed for -build index construction")
	resultCacheMB := flag.Int64("result-cache-mb", 0, "statement result cache budget in MiB (0 = plan cache only)")
	repeat := flag.Int("repeat", 1, "execute the SELECT statement N times (with -result-cache-mb, later runs serve from the result cache)")
	flag.Parse()
	if *dir == "" {
		log.Fatal("spatialq: -dir is required")
	}
	if !*build && (*query == "") == (*knnPt == "") {
		log.Fatal("spatialq: exactly one of -q or -knn is required")
	}
	plans := parsePlans(*plan)

	db, err := core.OpenExisting(core.Config{Dir: *dir, ResultCacheBytes: *resultCacheMB << 20})
	if err != nil {
		log.Fatalf("spatialq: %v\n(generate the database first: sdssgen -dir %s)", err, *dir)
	}
	defer db.Close()
	fmt.Printf("opened %s: %d rows", *dir, db.NumRows())
	if t := db.KdTree(); t != nil {
		fmt.Printf("; kd-tree %d levels / %d leaves", t.Levels, t.NumLeaves())
	}
	fmt.Println()

	if *build {
		built := false
		if db.KdTree() == nil {
			if err := db.BuildKdIndex(0); err != nil {
				log.Fatal(err)
			}
			fmt.Println("built kd-tree index")
			built = true
		}
		if db.Grid() == nil {
			if err := db.BuildGridIndex(1024, *seed); err != nil {
				log.Fatal(err)
			}
			fmt.Println("built grid index")
			built = true
		}
		if !db.PhotoZBuilt() {
			// A catalog generated without spectroscopic rows cannot host
			// the estimator; that should not abort the other builds.
			if err := db.BuildPhotoZ(24, 1); err != nil {
				fmt.Printf("skipping photo-z estimator: %v\n", err)
			} else {
				fmt.Println("built photo-z estimator")
				built = true
			}
		}
		if built {
			if err := db.Persist(); err != nil {
				log.Fatal(err)
			}
			fmt.Println("persisted index structures")
		} else {
			fmt.Println("all indexes already built")
		}
		if *query == "" && *knnPt == "" {
			return
		}
	}

	if *knnPt != "" {
		runKnn(db, *knnPt, *k)
		return
	}
	if colorsql.IsInsert(*query) {
		if *repeat != 1 {
			log.Fatal("spatialq: -repeat applies to SELECT statements only")
		}
		runInsert(db, *query)
		return
	}
	if isStatement(*query) {
		// A SELECT carries its own LIMIT clause; silently ignoring an
		// explicit -limit would surprise users of the legacy form.
		limitSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "limit" {
				limitSet = true
			}
		})
		if limitSet {
			log.Fatal("spatialq: -limit does not apply to SELECT statements; use a LIMIT clause in the statement")
		}
		for i := 0; i < *repeat; i++ {
			for _, p := range plans {
				if len(plans) > 1 {
					// compare: each plan from a cold pool, as for a WHERE.
					db.Engine().Store().DropCache()
				}
				runStatement(db, *query, p, *format)
			}
		}
		return
	}
	if *repeat != 1 {
		log.Fatal("spatialq: -repeat applies to SELECT statements only")
	}
	runQuery(db, *query, plans, *limit)
}

// parsePlans maps -plan onto the plans to run, in order: a forced full
// scan, auto, or both — the full scan first, the paper's baseline.
func parsePlans(plan string) []core.Plan {
	switch plan {
	case "auto":
		return []core.Plan{core.PlanAuto}
	case "fullscan":
		return []core.Plan{core.PlanFullScan}
	case "compare":
		return []core.Plan{core.PlanFullScan, core.PlanAuto}
	}
	log.Fatalf("spatialq: unknown -plan %q (auto | fullscan | compare)", plan)
	return nil
}

// runInsert executes an INSERT statement through the WAL-backed write
// path. When the printed acknowledgement appears, the batch is
// durable: it survives a crash and is visible to every subsequently
// opened cursor; a background or explicit compaction later merges it
// into the paged clustered table.
func runInsert(db *core.SpatialDB, src string) {
	seq, n, err := db.ExecInsert(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inserted %d rows (WAL seq %d, durable); memtable holds %d rows awaiting compaction\n",
		n, seq, db.MemRows())
}

// isStatement distinguishes a full SELECT from a bare predicate.
func isStatement(q string) bool {
	fields := strings.Fields(q)
	return len(fields) > 0 && strings.EqualFold(fields[0], "SELECT")
}

// runStatement executes a SELECT through the streaming cursor
// pipeline, printing rows as the scan produces them. Ctrl-C cancels
// the query mid-scan.
func runStatement(db *core.SpatialDB, src string, p core.Plan, format string) {
	stmt, err := colorsql.ParseStatement(src, colorsql.DefaultVars(), table.Dim)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	cur, err := db.ExecStatement(ctx, stmt, p)
	if err != nil {
		log.Fatal(err)
	}
	defer cur.Close()

	cols := stmt.OutputColumns()
	enc := core.NewRowEncoder(cols)
	for cur.Next() {
		printStatementRow(format, cols, enc, cur.Record())
	}
	rep := cur.Stats()
	if err := cur.Err(); err != nil {
		log.Fatalf("spatialq: %v (after %d rows)", err, rep.RowsReturned)
	}
	if rep.PlanReason != "" {
		fmt.Fprintf(os.Stderr, "planner:  %s\n", rep.PlanReason)
	}
	fmt.Fprintf(os.Stderr, "%-9s returned=%d examined=%d diskReads=%d hits=%d\n",
		rep.Plan.String()+":", rep.RowsReturned, rep.RowsExamined, rep.DiskReads, rep.CacheHits)
	if rep.PagesSkipped > 0 || rep.PagesScanned > 0 {
		fmt.Fprintf(os.Stderr, "zones:    skipped=%d scanned=%d stripsDecoded=%d\n",
			rep.PagesSkipped, rep.PagesScanned, rep.StripsDecoded)
	}
	if rep.FromCache {
		c := db.Cache().StatsFor("query")
		fmt.Fprintf(os.Stderr, "cache:    served from result cache (hits=%d misses=%d)\n", c.Hits+c.Shared, c.Misses)
	}
}

// printStatementRow writes one row in the chosen format: an NDJSON
// object of the projected columns, or an aligned name=value line.
// Column values render through the statement's core.RowEncoder, the
// same serializer vizserver's NDJSON uses.
func printStatementRow(format string, cols []colorsql.Column, enc *core.RowEncoder, rec *table.Record) {
	if format == "ndjson" {
		out := enc.AppendRow(make([]byte, 0, 128), rec)
		out = append(out, '\n')
		os.Stdout.Write(out)
		return
	}
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprintf("%s=%s", c.Name, enc.AppendValue(nil, i, rec))
	}
	fmt.Println(strings.Join(parts, " "))
}

func runKnn(db *core.SpatialDB, raw string, k int) {
	p, err := parsePoint(raw)
	if err != nil {
		log.Fatal(err)
	}
	nbs, rep, err := db.NearestNeighbors(p, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d nearest neighbours via %s (%d leaves, %d rows examined, %d disk reads):\n",
		len(nbs), rep.Plan, rep.LeavesExamined, rep.RowsExamined, rep.DiskReads)
	for i := range nbs {
		fmt.Printf("  %2d. obj %-9d dist=%.4f class=%-7s z=%.3f\n",
			i+1, nbs[i].ObjID, dist(p, &nbs[i]), nbs[i].Class, nbs[i].Redshift)
	}
}

func runQuery(db *core.SpatialDB, query string, plans []core.Plan, limit int) {
	u, err := colorsql.Parse(query, colorsql.DefaultVars(), table.Dim)
	if err != nil {
		log.Fatal(err)
	}
	store := db.Engine().Store()
	// The WHERE runs whole, however many clauses it compiles to: one
	// walk, every matching row once.
	for _, p := range plans {
		// Cold-cache execution so the printed page counts mean disk I/O.
		store.DropCache()
		recs, rep, err := db.QueryUnion(u, p)
		if err != nil {
			log.Fatal(err)
		}
		if rep.PlanReason != "" {
			fmt.Printf("planner:  %s\n", rep.PlanReason)
		}
		fmt.Printf("%-9s returned=%d examined=%d diskReads=%d hits=%d\n",
			rep.Plan.String()+":", rep.RowsReturned, rep.RowsExamined, rep.DiskReads, rep.CacheHits)
		if rep.PagesSkipped > 0 || rep.PagesScanned > 0 {
			fmt.Printf("zones:    skipped=%d scanned=%d stripsDecoded=%d\n",
				rep.PagesSkipped, rep.PagesScanned, rep.StripsDecoded)
		}
		printRows(recs, limit)
	}
}

func printRows(recs []table.Record, limit int) {
	if limit <= 0 {
		return
	}
	if len(recs) < limit {
		limit = len(recs)
	}
	for i := 0; i < limit; i++ {
		r := &recs[i]
		fmt.Printf("    obj %-9d u=%.2f g=%.2f r=%.2f i=%.2f z=%.2f class=%s\n",
			r.ObjID, r.Mags[0], r.Mags[1], r.Mags[2], r.Mags[3], r.Mags[4], r.Class)
	}
}

func dist(p vec.Point, r *table.Record) float64 {
	var s float64
	for i := range p {
		d := p[i] - float64(r.Mags[i])
		s += d * d
	}
	return math.Sqrt(s)
}

func parsePoint(s string) (vec.Point, error) {
	parts := strings.Split(s, ",")
	if len(parts) != table.Dim {
		return nil, fmt.Errorf("spatialq: point needs %d coordinates, got %d", table.Dim, len(parts))
	}
	p := make(vec.Point, table.Dim)
	for i, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("spatialq: bad coordinate %q: %w", part, err)
		}
		p[i] = v
	}
	return p, nil
}
