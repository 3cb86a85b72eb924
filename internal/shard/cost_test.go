package shard

import (
	"math"
	"testing"

	"repro/internal/planner"
	"repro/internal/table"
)

// TestFullScanPrice pins the coordinator's price of a WHERE-less
// statement to the planner's full scan of the cluster's rows:
// ⌈rows / RecordsPerPage⌉ sequential pages plus one row test per row,
// the price a single store gives the same catalog. The expensive
// threshold is eight such scans.
func TestFullScanPrice(t *testing.T) {
	rt, err := LoadRoutingTable(clusterDir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(rt, make([]string, rt.NumShards()), Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := planner.DefaultCostModel()
	rows := float64(rt.TotalRows)
	want := math.Ceil(rows/table.RecordsPerPage)*m.SeqPage + rows*m.Row
	if got := c.EstimateStatementCost(mustParse(t, "SELECT objid")); got != want {
		t.Errorf("WHERE-less statement over %d rows priced %g, want %g", rt.TotalRows, got, want)
	}
	if got := c.DefaultExpensiveCost(); got != 8*want {
		t.Errorf("expensive threshold %g, want %g", got, 8*want)
	}
}
