package core

import (
	"repro/internal/colorsql"
	"repro/internal/planner"
	"repro/internal/table"
)

// This file prices requests BEFORE they execute, for admission
// control: every estimate is the cost-based planner's zero-I/O
// prediction in sequential-page units, so a server under overload can
// decide to shed an expensive query without spending anything beyond
// the estimate itself (an in-memory index walk at worst). A WHERE is
// priced as the index scan it runs — the same plan, from the same
// cache, the executor streams — so the shed order and the executor
// agree about what "expensive" means.

// EstimateStatementCost predicts the execution cost of a parsed
// statement in sequential-page units without touching the table. A
// statement the system cannot price (no catalog loaded — the
// subsequent execution will fail with a real error anyway) costs 0 so
// admission never masks the error with a 429.
func (db *SpatialDB) EstimateStatementCost(stmt colorsql.Statement) float64 {
	if stmt.Limit == 0 {
		return 0
	}
	// ORDER BY dist LIMIT k with no predicate is a kNN.
	if stmt.Reference {
		return db.EstimatePhotoZCost(1)
	}
	if stmt.IsKNN() {
		return db.EstimateKNNCost(stmt.Limit, 1)
	}
	if !stmt.HasWhere {
		pl, err := db.Planner()
		if err != nil {
			return 0
		}
		return boundByLimit(wherelessCost(pl.Catalog), float64(pl.Catalog.NumRows()), stmt)
	}
	// One Choice prices the whole WHERE, overlap between clauses paid
	// once. It comes from the tier-1 plan cache, shared with the
	// execution path: a repeated statement is estimated once per
	// epoch, not once per request.
	choice, err := db.planFor(stmt.Where)
	if err != nil {
		return 0
	}
	return boundByLimit(choice.Cost, choice.Est.Rows, stmt)
}

// boundByLimit scales a statement's scan cost by the fraction of the
// predicted rows a pushed-down LIMIT lets it stop at. Every unordered
// LIMIT is pushed down (the pushdown rules in statement.go). An ordered
// LIMIT prunes by its k-th key too, but by how much depends on how the
// key lies across the clustering, which no zero-I/O walk knows: it is
// priced as the whole selection — an upper bound, which is what an
// admission estimate may be.
func boundByLimit(cost, estRows float64, stmt colorsql.Statement) float64 {
	if stmt.Order != nil || stmt.Limit <= 0 || estRows <= 0 {
		return cost
	}
	if frac := float64(stmt.Limit) / estRows; frac < 1 {
		return cost * frac
	}
	return cost
}

// wherelessCost is the price of a WHERE-less statement before its
// LIMIT: a read of the whole catalog.
func wherelessCost(catalog *table.Table) float64 {
	return planner.DefaultCostModel().FullScanCost(int64(catalog.NumRows()))
}

// EstimateKNNCost predicts the cost of numPoints k-nearest-neighbour
// queries in sequential-page units, zero-I/O: each is the WHERE-less
// ordered LIMIT, priced on a kd store as its walk over the current
// catalog, kd-tree and memtable (PlanKNN — never above a scan of the
// catalog), and with no tree as that scan.
func (db *SpatialDB) EstimateKNNCost(k, numPoints int) float64 {
	pl, err := db.Planner()
	if err != nil {
		return 0
	}
	cost := wherelessCost(pl.Catalog)
	if pl.Kd != nil {
		cost = pl.PlanKNN(k).CostIndex
	}
	return cost * float64(max(numPoints, 1))
}

// EstimatePhotoZCost predicts the cost of a photometric-redshift
// batch of numPoints objects: each is a k-neighbour statement on the
// spectroscopic reference rows, priced as its walk of the reference's
// tree (PlanKNN). 0 when no estimator is built.
func (db *SpatialDB) EstimatePhotoZCost(numPoints int) float64 {
	db.mu.RLock()
	est := db.photoZ
	db.mu.RUnlock()
	if est == nil {
		return 0
	}
	pl := &planner.Planner{Catalog: est.Table, Kd: est.Tree}
	return pl.PlanKNN(est.K).CostIndex * float64(max(numPoints, 1))
}
