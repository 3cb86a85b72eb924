package shard

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/planner"
	"repro/internal/qos"
	"repro/internal/table"
	"repro/internal/vizhttp"
)

// TestFullScanPrice pins the coordinator's price of a WHERE-less
// statement to the planner's full scan of the cluster's rows:
// ⌈rows / RecordsPerPage⌉ sequential pages plus one row test per row,
// the price a single store gives the same catalog. A server's default
// expensive threshold is eight such scans, over either backend.
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
	for name, b := range map[string]vizhttp.Backend{"single": openSingle(t), "coordinator": c} {
		if got := b.EstimateStatementCost(mustParse(t, "SELECT *")); got != want {
			t.Errorf("%s: SELECT * priced %g, want %g", name, got, want)
		}
		checkExpensiveThreshold(t, name, b, 8*want)
	}
}

// checkExpensiveThreshold proves a default server over b sheds as
// expensive exactly the requests priced at want or above: with its one
// slot taken and no queue, a request priced want is shed "expensive"
// and one priced just below it "queue-full".
func checkExpensiveThreshold(t *testing.T, name string, b vizhttp.Backend, want float64) {
	t.Helper()
	lim := vizhttp.NewBackend(b, vizhttp.Config{MaxConcurrent: 1, MaxQueue: -1}).Limiter("query")
	release, err := lim.Admit(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	for _, c := range []struct {
		cost   float64
		reason string
	}{{want, "expensive"}, {math.Nextafter(want, 0), "queue-full"}} {
		var shed *qos.ShedError
		if _, err := lim.Admit(context.Background(), c.cost); !errors.As(err, &shed) || shed.Reason != c.reason {
			t.Errorf("%s: a request priced %g under saturation got %v, want shed %q (threshold %g)", name, c.cost, err, c.reason, want)
		}
	}
}
