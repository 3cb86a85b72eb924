package core

import (
	"fmt"
	"strconv"

	"repro/internal/colorsql"
	"repro/internal/planner"
	"repro/internal/qcache"
	"repro/internal/table"
	"repro/internal/vec"
)

// This file wires the statement-keyed two-tier cache (internal/
// qcache) into the query paths.
//
// Tier 1 (always on) caches planner work keyed on canonical
// predicate text: one planner.Choice per WHERE (the index scan's
// ranges included), however many clauses its DNF has. Admission
// pricing (EstimateStatementCost) and execution (every WHERE through
// whereCursor) share the entries, so a repeated statement is planned
// exactly once per epoch. A kNN price (planner.PlanKNN) is a dozen
// float operations and is computed where it is needed, not cached.
//
// Tier 2 (opt-in via Config.ResultCacheBytes) caches materialized
// small answers — bounded-LIMIT statements (a single-point kNN probe
// runs as its statement, ORDER BY dist(p) LIMIT k), small photo-z
// batches — concurrent identical requests sharing one
// execution (singleflight). It is one LRU under one fixed budget, and
// a statement has at most one entry in it: an empty cut with a LIMIT
// is an ordinary entry with no rows, and one without a LIMIT is not
// cached at all — its tier-1 plan already holds the proof (no range to
// scan). It is opt-in because a cached answer deliberately skips
// execution: callers that rely on per-request execution cost
// (admission-control tests, cost benchmarks) must not silently change
// behaviour.
//
// Every entry is keyed under the current cache epoch; see cacheEpoch.

// maxCacheableLimit bounds which statements tier 2 will materialize:
// the LIMIT both caps the row count upfront (so the bypass decision
// needs no trial execution) and keeps entries small. Statements with
// no LIMIT (stmt.Limit < 0) or a larger one bypass tier 2 but still
// reuse the tier-1 plan.
const maxCacheableLimit = 4096

// cachedRowBytes is the per-row resident-size estimate used to
// charge entries against the cache budget (a table.Record is ~56 B;
// 64 covers slice headers and rounding).
const cachedRowBytes = 64

// cachedEntryOverheadBytes charges each entry's fixed cost: key,
// Report, bookkeeping.
const cachedEntryOverheadBytes = 256

// Cache namespaces. Tier-1 (plan) and tier-2 (result) namespaces are
// reported separately by CacheStats.
const (
	nsQuery  = "query"
	nsPhotoZ = "photoz"
	nsPlan   = "plan"
)

// initCache constructs the db's cache from its config. Called by
// Open and OpenExisting before the db is shared.
func (db *SpatialDB) initCache(cfg Config) {
	db.qc = qcache.New(cfg.ResultCacheBytes, 0)
}

// cacheEpoch snapshots the world every cache entry is keyed under:
// the pagestore manifest epoch (any persisted mutation) plus the
// in-process plan generation (index builds and ingest that have not
// reached the manifest yet). A mismatch on either component
// invalidates the entry.
func (db *SpatialDB) cacheEpoch() qcache.Epoch {
	return qcache.Epoch{Store: db.eng.Store().Epoch(), Plan: db.planGen.Load()}
}

// bumpPlanGen invalidates all cached plans and results built before
// a plan-relevant in-process change (ingest, index build).
func (db *SpatialDB) bumpPlanGen() { db.planGen.Add(1) }

// Cache returns the db's statement cache (never nil after Open).
func (db *SpatialDB) Cache() *qcache.Cache { return db.qc }

// ResultCacheEnabled reports whether tier 2 is on.
func (db *SpatialDB) ResultCacheEnabled() bool { return db.qc.Budget() > 0 }

// CacheStats snapshots the cache counters per namespace plus the
// resident tier-2 footprint.
type CacheStats struct {
	ResultBytes   int64                      `json:"resultBytes"`
	ResultEntries int                        `json:"resultEntries"`
	BudgetBytes   int64                      `json:"budgetBytes"`
	Namespaces    map[string]qcache.Counters `json:"namespaces"`
}

// CacheStatsSnapshot returns the current cache counters.
func (db *SpatialDB) CacheStatsSnapshot() CacheStats {
	return CacheStats{
		ResultBytes:   db.qc.ResultBytes(),
		ResultEntries: db.qc.ResultEntries(),
		BudgetBytes:   db.qc.Budget(),
		Namespaces:    db.qc.Stats(),
	}
}

// planFor returns the cached tier-1 plan for a WHERE — the planner's
// one verdict for all its clauses — planning on first use. Entries are
// immutable once cached: cursors read the choice but never write it.
// The key is the union's canonical String() — the same property
// Statement round-trips through — so textually identical predicates
// share one entry regardless of which statement carries them.
func (db *SpatialDB) planFor(u colorsql.Union) (*planner.Choice, error) {
	v, err := db.qc.GetOrBuildPlan(nsPlan, u.String(), db.cacheEpoch(), func() (any, error) {
		pl, err := db.Planner()
		if err != nil {
			return nil, err
		}
		choice, err := pl.Plan(u.Polys)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		return &choice, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*planner.Choice), nil
}

// cached is a tier-2 entry: a materialized answer and the Report of
// the execution that produced it. val is shared read-only by every
// request served from the entry.
type cached[T any] struct {
	val T
	rep Report
}

// rowsBytes is the budget charge of a materialized row set.
func rowsBytes(recs []table.Record) int64 { return int64(len(recs)) * cachedRowBytes }

// do is the one tier-2 execute path: serve key from the result cache,
// or run fill — at most once per epoch across concurrent identical
// callers (singleflight) — and cache its answer, charged payload(val)
// plus the fixed entry overhead. The Report is fill's own for the
// caller that executed, and the cache-served form (cachedReport) for a
// hit or a shared answer: those requests did no I/O of their own.
func do[T any](db *SpatialDB, ns, key string, payload func(T) int64, fill func() (T, Report, error)) (T, Report, error) {
	v, out, err := db.qc.Do(ns, key, db.cacheEpoch(), func() (any, int64, error) {
		val, rep, err := fill()
		if err != nil {
			return nil, 0, err
		}
		return &cached[T]{val: val, rep: rep}, payload(val) + cachedEntryOverheadBytes, nil
	})
	if err != nil {
		var zero T
		return zero, Report{}, err
	}
	e := v.(*cached[T])
	if out == qcache.Miss {
		return e.val, e.rep, nil
	}
	return e.val, cachedReport(e.rep), nil
}

// lookup is the one tier-2 probe path: serve key if an entry exists,
// without executing or queuing anything. A miss counts nothing (the
// follow-up do accounts it), so admission layers can probe before
// pricing without double-counting.
func lookup[T any](db *SpatialDB, ns, key string) (T, Report, bool) {
	v, ok := db.qc.Lookup(ns, key, db.cacheEpoch())
	if !ok {
		var zero T
		return zero, Report{}, false
	}
	e := v.(*cached[T])
	return e.val, cachedReport(e.rep), true
}

// cachedReport converts an entry's execution Report into the Report
// a cache-served answer must present: exact about this request —
// FromCache set, zero I/O and scan counters (this request read
// nothing) — while keeping the plan identity, row count and
// selectivity estimate of the execution that filled the entry.
func cachedReport(rep Report) Report {
	rep.FromCache = true
	rep.RowsExamined = 0
	rep.DiskReads = 0
	rep.CacheHits = 0
	rep.PagesSkipped = 0
	rep.PagesScanned = 0
	rep.StripsDecoded = 0
	rep.LeavesExamined = 0
	rep.FitFallbacks = 0
	if rep.PlanReason != "" {
		rep.PlanReason = "cached: " + rep.PlanReason
	} else {
		rep.PlanReason = "cached"
	}
	return rep
}

// statementCacheKey builds the tier-2 identity of a statement:
// canonical statement text plus the forced plan, which could change
// the answer's provenance. ok is false for statements tier 2 must not
// materialize: unbounded (no LIMIT), LIMIT 0 (answered before any
// cache), or wider than maxCacheableLimit.
func statementCacheKey(stmt colorsql.Statement, plan Plan) (string, bool) {
	if stmt.Limit <= 0 || stmt.Limit > maxCacheableLimit {
		return "", false
	}
	return plan.String() + "|" + stmt.String(), true
}

// ExecStatementCached serves a statement from the result cache if an
// entry exists; see lookup for the probe contract. Tier 2 disabled
// always misses.
func (db *SpatialDB) ExecStatementCached(stmt colorsql.Statement, plan Plan) (Cursor, bool) {
	if !db.ResultCacheEnabled() {
		return nil, false
	}
	key, ok := statementCacheKey(stmt, plan)
	if !ok {
		return nil, false
	}
	recs, rep, ok := lookup[[]table.Record](db, nsQuery, key)
	if !ok {
		return nil, false
	}
	return SliceCursor(recs, rep), true
}

// maxCacheablePhotoZBatch bounds which photo-z batches tier 2
// materializes: interactive point probes, not bulk estimation.
const maxCacheablePhotoZBatch = 8

// photoZCacheKey is the tier-2 identity of a photo-z batch; ok is
// false for bulk estimation, which always executes.
func photoZCacheKey(mags []vec.Point) (string, bool) {
	if len(mags) < 1 || len(mags) > maxCacheablePhotoZBatch {
		return "", false
	}
	buf := make([]byte, 0, 256)
	buf = append(buf, 'z')
	for _, p := range mags {
		for _, v := range p {
			buf = append(buf, '|')
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
		buf = append(buf, ';')
	}
	return string(buf), true
}

// NearestNeighborsBatchCached serves a single-point kNN probe from
// its statement's result-cache entry (ExecStatementCached) if one
// exists; see lookup for the probe contract.
func (db *SpatialDB) NearestNeighborsBatchCached(ps []vec.Point, k int) ([][]table.Record, []Report, bool) {
	if len(ps) != 1 || k <= 0 {
		return nil, nil, false
	}
	cur, ok := db.ExecStatementCached(knnStatement(ps[0], k), PlanAuto)
	if !ok {
		return nil, nil, false
	}
	recs, rep, _ := Collect(cur) // a cache hit is a slice cursor, which cannot fail
	return [][]table.Record{recs}, []Report{rep}, true
}

// EstimateRedshiftBatchCached serves a small photo-z batch from the
// result cache if an entry exists; see lookup for the probe contract.
func (db *SpatialDB) EstimateRedshiftBatchCached(mags []vec.Point) ([]float64, Report, bool) {
	key, ok := photoZCacheKey(mags)
	if !ok || !db.ResultCacheEnabled() {
		return nil, Report{}, false
	}
	return lookup[[]float64](db, nsPhotoZ, key)
}
