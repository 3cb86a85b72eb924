package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/planner"
	"repro/internal/qos"
	"repro/internal/table"
	"repro/internal/vec"
	"repro/internal/vizhttp"
)

// TestFullScanPrice pins the coordinator's price of a WHERE-less
// statement to the planner's full scan of the cluster's rows:
// ⌈rows / RecordsPerPage⌉ sequential pages plus one row test per row,
// the price a single store gives the same catalog. A WHERE is priced as
// the full scan of the shards the routing table targets: every shard
// for a colour cut, fewer for a cut below the first split. A server's
// default expensive threshold is eight full scans, over either backend.
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
	split := rt.Splits[0]
	below := fmt.Sprintf("SELECT * WHERE %s < %g", "ugriz"[split.Axis:split.Axis+1], split.Cut-0.5)
	for src, shards := range map[string]int{"SELECT * WHERE g - r > 0.2": rt.NumShards(), below: rt.NumShards() - 1} {
		stmt := mustParse(t, src)
		targets := rt.TargetsFor(stmt.Where.Polys)
		var rows int64
		for _, s := range targets {
			rows += rt.Shards[s].Rows
		}
		if len(targets) != shards {
			t.Fatalf("%s targets shards %v, want %d of them", src, targets, shards)
		}
		if got, want := c.EstimateStatementCost(stmt), m.FullScanCost(rows); got != want {
			t.Errorf("%s priced %g, the full scan of its %d shards' %d rows %g", src, got, len(targets), rows, want)
		}
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

// TestPhotoZPrice: the coordinator prices a photo-z batch as the kNN
// searches it makes, photoZK neighbours a point, and a FROM reference
// statement as one such search. A routing table without photoZK — a
// cluster with no photo-z, or one built when every shard held a copy
// of the whole reference — prices nothing and refuses the estimate
// with a descriptive error, never an answer.
func TestPhotoZPrice(t *testing.T) {
	rt, err := LoadRoutingTable(clusterDir)
	if err != nil {
		t.Fatal(err)
	}
	if rt.PhotoZK != 24 {
		t.Fatalf("the fixture's routing table records photoZK %d, want the build's 24", rt.PhotoZK)
	}
	c, err := NewCoordinator(rt, make([]string, rt.NumShards()), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 7} {
		if got, want := c.EstimatePhotoZCost(n), c.EstimateKNNCost(rt.PhotoZK, n); got != want || got <= 0 {
			t.Errorf("a batch of %d priced %g, want EstimateKNNCost(%d, %d) = %g", n, got, rt.PhotoZK, n, want)
		}
	}
	ref := mustParse(t, "SELECT * FROM reference ORDER BY dist(19, 18, 17, 16, 15) LIMIT 24")
	if got, want := c.EstimateStatementCost(ref), c.EstimateKNNCost(24, 1); got != want {
		t.Errorf("%s priced %g, want %g", ref.String(), got, want)
	}

	bare := *rt
	bare.PhotoZK = 0
	c, err = NewCoordinator(&bare, make([]string, rt.NumShards()), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.EstimatePhotoZCost(7); got != 0 {
		t.Errorf("without photoZK a batch is priced %g, want 0", got)
	}
	zs, _, err := c.EstimateRedshiftBatch(context.Background(), []vec.Point{{19, 18, 17, 16, 15}})
	if err == nil || !strings.Contains(err.Error(), "photoZK") {
		t.Errorf("without photoZK /photoz answered %v, %v; want an error naming photoZK", zs, err)
	}
	if _, err := c.ExecStatement(context.Background(), ref, core.PlanAuto); err == nil || !strings.Contains(err.Error(), "photoZK") {
		t.Errorf("without photoZK %s answered (err %v); want an error naming photoZK", ref.String(), err)
	}
}
