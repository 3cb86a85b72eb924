// Package shard partitions a built catalog into N shard stores by
// kd-subtree ranges and serves the union of those stores through a
// scatter-gather coordinator.
//
// The partitioner (partition.go) builds the same kd-tree the planner
// would build over the full catalog, takes the subtrees at a fixed
// depth as routing "units" (each unit owns a contiguous row range and
// a partition cell, and the unit cells tile the magnitude domain),
// and groups contiguous runs of units into N shards balanced by row
// count. What survives is only the tiny split tree above the units —
// the routing table — persisted as ROUTING.json at the cluster root.
// A coordinator cold-opens that file alone: routing a point is a
// handful of comparisons, and routing a WHERE clause is a
// polyhedron-vs-cell-box classification per shard, both with zero
// I/O.
package shard

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/vec"
)

// RoutingFile is the routing-table file name at the cluster root.
const RoutingFile = "ROUTING.json"

// routingInf is the sentinel used to extend edge cells to cover
// points outside the generation-time domain (later inserts may land
// anywhere). A finite sentinel instead of ±Inf keeps the
// polyhedron-vs-box arithmetic NaN-free (0·Inf).
const routingInf = 1e12

// RouteSplit is one internal node of the split tree. Child references
// are split indices when >= 0 and encoded unit ordinals when
// negative: unit u is stored as -(u+1).
type RouteSplit struct {
	Axis  int     `json:"axis"`
	Cut   float64 `json:"cut"`
	Left  int     `json:"left"`
	Right int     `json:"right"`
}

// ShardInfo describes one shard of the cluster.
type ShardInfo struct {
	ID   int    `json:"id"`
	Dir  string `json:"dir"` // store directory, relative to the cluster root
	Rows int64  `json:"rows"`
	// UnitLo, UnitHi delimit the shard's contiguous unit range
	// [UnitLo, UnitHi) in left-to-right kd order.
	UnitLo int `json:"unitLo"`
	UnitHi int `json:"unitHi"`
	// Cells are the partition boxes of the shard's units, edge-extended
	// to ±routingInf where they touch the generation-time domain
	// boundary. Together the cells of all shards tile magnitude space,
	// so pruning against them can never miss a row — including rows
	// inserted after the split.
	Cells []vec.Box `json:"cells"`
}

// RoutingTable is the persisted cluster layout: the split tree, the
// unit→shard assignment, and per-shard metadata. It is deliberately
// tiny (O(units), units ≈ 4N) so a coordinator can cold-open with
// zero store I/O.
type RoutingTable struct {
	Version   int          `json:"version"`
	TotalRows int64        `json:"totalRows"`
	Domain    vec.Box      `json:"domain"` // generation-time magnitude domain
	Splits    []RouteSplit `json:"splits"`
	UnitShard []int        `json:"unitShard"`
	Shards    []ShardInfo  `json:"shards"`
	// PhotoZK is the k of photo-z estimates; 0 (omitted) without
	// spectroscopic rows, or where every shard holds a whole reference.
	PhotoZK int `json:"photoZK,omitempty"`
}

// NumShards returns the number of shards.
func (rt *RoutingTable) NumShards() int { return len(rt.Shards) }

// RouteMags descends the split tree and returns the shard owning the
// given magnitude vector. The descent mirrors the kd-tree's
// (m[axis] < cut goes left), so it is total over all of magnitude
// space, not just the generation-time domain.
func (rt *RoutingTable) RouteMags(m []float64) int {
	if len(rt.Splits) == 0 {
		return rt.UnitShard[0]
	}
	i := 0
	for {
		s := &rt.Splits[i]
		next := s.Right
		if m[s.Axis] < s.Cut {
			next = s.Left
		}
		if next < 0 {
			return rt.UnitShard[-next-1]
		}
		i = next
	}
}

// TargetsFor returns the shards that may hold rows satisfying any of
// the given clauses: a shard is pruned only when every clause
// classifies every one of its cells Outside. The result is sorted by
// shard ID. An empty clause list targets every shard.
func (rt *RoutingTable) TargetsFor(polys []vec.Polyhedron) []int {
	if len(polys) == 0 {
		return rt.AllShards()
	}
	targets := make([]int, 0, len(rt.Shards))
	for i := range rt.Shards {
		sh := &rt.Shards[i]
		if slices.ContainsFunc(sh.Cells, func(cell vec.Box) bool {
			return vec.ClassifyBoxUnion(polys, cell) != vec.Outside
		}) {
			targets = append(targets, sh.ID)
		}
	}
	return targets
}

// CellDist2 returns the squared distance from p to the nearest cell of
// the shard: a lower bound on the squared distance from p to any row
// the shard holds, 0 for the shard that owns p. It is the kNN
// counterpart of TargetsFor — a shard whose cells all lie farther than
// the current k-th neighbour cannot contribute.
func (rt *RoutingTable) CellDist2(shard int, p vec.Point) float64 {
	best := math.Inf(1)
	for _, cell := range rt.Shards[shard].Cells {
		best = min(best, cell.Dist2(p))
	}
	return best
}

// AllShards returns every shard ID in order.
func (rt *RoutingTable) AllShards() []int {
	ids := make([]int, len(rt.Shards))
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// Save writes the routing table to <dir>/ROUTING.json.
func (rt *RoutingTable) Save(dir string) error {
	blob, err := json.MarshalIndent(rt, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, RoutingFile), append(blob, '\n'), 0o644)
}

// LoadRoutingTable reads and validates <dir>/ROUTING.json.
func LoadRoutingTable(dir string) (*RoutingTable, error) {
	blob, err := os.ReadFile(filepath.Join(dir, RoutingFile))
	if err != nil {
		return nil, err
	}
	var rt RoutingTable
	if err := json.Unmarshal(blob, &rt); err != nil {
		return nil, fmt.Errorf("shard: corrupt routing table: %w", err)
	}
	if err := rt.Validate(); err != nil {
		return nil, err
	}
	return &rt, nil
}

// Validate checks the structural invariants of the table.
func (rt *RoutingTable) Validate() error {
	if len(rt.Shards) == 0 {
		return fmt.Errorf("shard: routing table has no shards")
	}
	if len(rt.UnitShard) == 0 {
		return fmt.Errorf("shard: routing table has no units")
	}
	var rows int64
	for i, sh := range rt.Shards {
		if sh.ID != i {
			return fmt.Errorf("shard: shard %d has ID %d", i, sh.ID)
		}
		if sh.UnitLo >= sh.UnitHi || sh.UnitLo < 0 || sh.UnitHi > len(rt.UnitShard) {
			return fmt.Errorf("shard %d: bad unit range [%d,%d)", i, sh.UnitLo, sh.UnitHi)
		}
		if len(sh.Cells) != sh.UnitHi-sh.UnitLo {
			return fmt.Errorf("shard %d: %d cells for %d units", i, len(sh.Cells), sh.UnitHi-sh.UnitLo)
		}
		for u := sh.UnitLo; u < sh.UnitHi; u++ {
			if rt.UnitShard[u] != i {
				return fmt.Errorf("shard: unit %d assigned to %d, shard %d claims it", u, rt.UnitShard[u], i)
			}
		}
		rows += sh.Rows
	}
	if rows != rt.TotalRows {
		return fmt.Errorf("shard: shard rows sum to %d, table claims %d", rows, rt.TotalRows)
	}
	// The split tree must resolve every leaf reference to a valid unit
	// and every unit must be reachable exactly once.
	if len(rt.Splits) == 0 {
		if len(rt.UnitShard) != 1 {
			return fmt.Errorf("shard: %d units but no splits", len(rt.UnitShard))
		}
		return nil
	}
	seen := make([]bool, len(rt.UnitShard))
	var walk func(ref int) error
	walk = func(ref int) error {
		if ref < 0 {
			u := -ref - 1
			if u >= len(seen) {
				return fmt.Errorf("shard: split references unit %d of %d", u, len(seen))
			}
			if seen[u] {
				return fmt.Errorf("shard: unit %d reachable twice", u)
			}
			seen[u] = true
			return nil
		}
		if ref >= len(rt.Splits) {
			return fmt.Errorf("shard: split reference %d out of range", ref)
		}
		s := rt.Splits[ref]
		if err := walk(s.Left); err != nil {
			return err
		}
		return walk(s.Right)
	}
	if err := walk(0); err != nil {
		return err
	}
	for u, ok := range seen {
		if !ok {
			return fmt.Errorf("shard: unit %d unreachable from split tree", u)
		}
	}
	return nil
}
