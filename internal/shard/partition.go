package shard

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/core"
	"repro/internal/kdtree"
	"repro/internal/table"
	"repro/internal/vec"
)

// BuildParams controls a cluster build.
type BuildParams struct {
	Shards int
	Seed   int64

	// Index build parameters, applied identically to every shard so
	// per-shard planning matches what a single store would do on the
	// same data. Zero values pick the same defaults sdssgen uses.
	Indexes  bool // build the kd-tree and grid indexes (photo-z always builds when refs exist)
	GridBase int
	PhotoZK  int

	// PoolPages for the per-shard builds (0 = the core default).
	PoolPages int
}

func (p *BuildParams) setDefaults() {
	if p.GridBase == 0 {
		p.GridBase = 1024
	}
	if p.PhotoZK == 0 {
		p.PhotoZK = 24
	}
}

// photoZDegree is the degree of the local polynomial every shard's
// estimator is built with and the coordinator fits.
const photoZDegree = 1

// ShardDir returns the store directory of shard i relative to the
// cluster root.
func ShardDir(i int) string { return fmt.Sprintf("shard-%d", i) }

// BuildCluster partitions recs into p.Shards shard stores under dir
// (dir/shard-0 … dir/shard-N-1), builds each shard's indexes, and
// persists the routing table as dir/ROUTING.json.
//
// The partition function is the catalog's own kd-tree: BuildCluster
// first builds the full-catalog tree in a throwaway store, derives
// the routing table from its top levels, then routes every record
// through that table — so the router and the partition agree by
// construction. Each shard's photo-z reference is its own
// spectroscopic rows, as a single store's is.
func BuildCluster(dir string, recs []table.Record, p BuildParams) (*RoutingTable, error) {
	p.setDefaults()
	if p.Shards < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", p.Shards)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("shard: no records to partition")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	rt, err := buildRoutingTable(dir, recs, p)
	if err != nil {
		return nil, err
	}

	// Route every record.
	parts := make([][]table.Record, p.Shards)
	refs := make([]int, p.Shards)
	for _, rec := range recs {
		s := rt.RouteMags([]float64{
			float64(rec.Mags[0]), float64(rec.Mags[1]), float64(rec.Mags[2]),
			float64(rec.Mags[3]), float64(rec.Mags[4]),
		})
		parts[s] = append(parts[s], rec)
		if rec.HasZ {
			refs[s]++
		}
	}
	if slices.Max(refs) > 0 {
		rt.PhotoZK = p.PhotoZK
	}
	for i, part := range parts {
		if len(part) == 0 {
			return nil, fmt.Errorf("shard: partition left shard %d empty (catalog too small for %d shards)", i, p.Shards)
		}
		if rt.PhotoZK > 0 && refs[i] == 0 {
			return nil, fmt.Errorf("shard: partition left shard %d no spectroscopic rows for its photo-z reference (catalog too small for %d shards)", i, p.Shards)
		}
		rt.Shards[i].Rows = int64(len(part))
	}
	rt.TotalRows = int64(len(recs))

	for i, part := range parts {
		if err := buildShardStore(filepath.Join(dir, ShardDir(i)), part, rt.PhotoZK, p); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	if err := rt.Save(dir); err != nil {
		return nil, err
	}
	return rt, nil
}

// buildShardStore builds and persists one shard store (photo-z if k > 0).
func buildShardStore(dir string, part []table.Record, k int, p BuildParams) error {
	db, err := core.Open(core.Config{Dir: dir, PoolPages: p.PoolPages})
	if err != nil {
		return err
	}
	defer db.Close()
	if err := db.IngestRecords(part); err != nil {
		return err
	}
	if p.Indexes {
		if err := db.BuildKdIndex(0); err != nil {
			return err
		}
		if err := db.BuildGridIndex(p.GridBase, p.Seed); err != nil {
			return err
		}
	}
	if k > 0 {
		if err := db.BuildPhotoZ(k, photoZDegree); err != nil {
			return err
		}
	}
	return db.Persist()
}

// buildRoutingTable builds the full-catalog kd-tree in a throwaway
// store under dir and derives the routing table from its top levels.
func buildRoutingTable(dir string, recs []table.Record, p BuildParams) (*RoutingTable, error) {
	tmp := filepath.Join(dir, ".routing-build")
	defer os.RemoveAll(tmp)
	db, err := core.Open(core.Config{Dir: tmp, PoolPages: p.PoolPages})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if err := db.IngestRecords(recs); err != nil {
		return nil, err
	}
	if err := db.BuildKdIndex(0); err != nil {
		return nil, err
	}
	tree := db.KdTree()
	domain := db.Domain()
	return routingFromTree(tree, domain, p.Shards)
}

// unit is one routing unit: a kd subtree owning a contiguous row
// range and a partition cell.
type unit struct {
	cell vec.Box
	rows int64
}

// routingFromTree cuts the tree at a depth giving ~4·shards units and
// groups contiguous unit runs into shards balanced by row count.
func routingFromTree(tree *kdtree.Tree, domain vec.Box, shards int) (*RoutingTable, error) {
	depth := 0
	if shards > 1 {
		depth = int(math.Ceil(math.Log2(float64(shards)))) + 2
	}
	if depth > tree.Levels {
		depth = tree.Levels
	}

	var units []unit
	var splits []RouteSplit
	var collect func(node int32, d int) int
	collect = func(node int32, d int) int {
		n := &tree.Nodes[node]
		if d == depth || n.IsLeaf() {
			units = append(units, unit{
				cell: extendEdges(n.Cell, domain),
				rows: int64(n.RowHi - n.RowLo),
			})
			return -len(units) // unit u encoded as -(u+1)
		}
		i := len(splits)
		splits = append(splits, RouteSplit{Axis: int(n.Axis), Cut: n.Cut})
		splits[i].Left = collect(n.Left, d+1)
		splits[i].Right = collect(n.Right, d+1)
		return i
	}
	collect(0, 0)

	if len(units) < shards {
		return nil, fmt.Errorf("shard: kd tree yields %d routing units, need >= %d shards (catalog too small)", len(units), shards)
	}

	// Greedy contiguous grouping toward equal cumulative row counts,
	// always leaving at least one unit per remaining shard.
	var totalRows int64
	for _, u := range units {
		totalRows += u.rows
	}
	unitShard := make([]int, len(units))
	cur := 0
	var acc int64
	for i := range units {
		unitShard[i] = cur
		acc += units[i].rows
		unitsLeft := len(units) - i - 1
		shardsLeft := shards - cur - 1
		if shardsLeft > 0 && (unitsLeft == shardsLeft || acc >= int64(cur+1)*totalRows/int64(shards)) {
			cur++
		}
	}

	rt := &RoutingTable{
		Version:   1,
		TotalRows: totalRows,
		Domain:    domain,
		Splits:    splits,
		UnitShard: unitShard,
		Shards:    make([]ShardInfo, shards),
	}
	for s := 0; s < shards; s++ {
		info := &rt.Shards[s]
		info.ID = s
		info.Dir = ShardDir(s)
		info.UnitLo = -1
		for u := range units {
			if unitShard[u] != s {
				continue
			}
			if info.UnitLo < 0 {
				info.UnitLo = u
			}
			info.UnitHi = u + 1
			info.Rows += units[u].rows
			info.Cells = append(info.Cells, units[u].cell)
		}
	}
	if err := rt.Validate(); err != nil {
		return nil, err
	}
	return rt, nil
}

// extendEdges pushes the faces of cell that coincide with the domain
// boundary out to ±routingInf, so the cells keep tiling space for
// rows inserted outside the generation-time domain.
func extendEdges(cell, domain vec.Box) vec.Box {
	min := cell.Min.Clone()
	max := cell.Max.Clone()
	for i := range min {
		if min[i] <= domain.Min[i] {
			min[i] = -routingInf
		}
		if max[i] >= domain.Max[i] {
			max[i] = routingInf
		}
	}
	return vec.Box{Min: min, Max: max}
}
