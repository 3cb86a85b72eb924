package shard

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/table"
	"repro/internal/vec"
)

// TestShardDownDescriptiveError: a dead shard surfaces as an error
// naming the shard and its URL — never as a silently truncated
// answer.
func TestShardDownDescriptiveError(t *testing.T) {
	cl := startCluster(t, Config{HedgeAfter: -1})
	const down = 1
	cl.servers[down].Close()

	stmt := mustParse(t, "SELECT objid")
	cur, err := cl.coord.ExecStatement(context.Background(), stmt, core.PlanAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for cur.Next() {
	}
	err = cur.Err()
	if err == nil {
		t.Fatal("cursor completed cleanly with shard 1 down")
	}
	msg := err.Error()
	if !strings.Contains(msg, fmt.Sprintf("shard %d", down)) || !strings.Contains(msg, cl.targets[down]) {
		t.Fatalf("error does not identify the dead shard: %v", err)
	}
}

// stubRow is a syntactically valid SELECT * NDJSON row.
const stubRow = `{"objid":%d,"u":%g,"g":15,"r":%g,"i":15,"z":15,"ra":1,"dec":1,"redshift":0,"class":"star"}` + "\n"

const stubSummary = `{"summary":{"plan":"fullscan","planReason":"stub","rowsReturned":1}}` + "\n"

// TestCancellationPropagates: cancelling the coordinator's context
// reaches every in-flight shard sub-request — a stalled shard's
// handler observes its request context cancelled, and the merge
// cursor reports the cancellation instead of hanging.
func TestCancellationPropagates(t *testing.T) {
	rt, err := LoadRoutingTable(clusterDir)
	if err != nil {
		t.Fatal(err)
	}
	stalledCancelled := make(chan struct{})
	var servers []*httptest.Server
	var targets []string
	for i := 0; i < rt.NumShards(); i++ {
		i := i
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if i == 0 {
				// One row, then stall until the client gives up.
				fmt.Fprintf(w, stubRow, 1, 15.0, 15.0)
				w.(http.Flusher).Flush()
				<-r.Context().Done()
				close(stalledCancelled)
				return
			}
			fmt.Fprintf(w, stubRow, 100+i, 15.0, 15.0)
			fmt.Fprint(w, stubSummary)
		}))
		servers = append(servers, srv)
		targets = append(targets, srv.URL)
	}
	t.Cleanup(func() {
		for _, srv := range servers {
			srv.Close()
		}
	})

	coord, err := NewCoordinator(rt, targets, Config{HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stmt := mustParse(t, "SELECT * ORDER BY r LIMIT 10")
	cur, err := coord.ExecStatement(ctx, stmt, core.PlanAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()

	drained := make(chan error, 1)
	go func() {
		for cur.Next() {
		}
		drained <- cur.Err()
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()

	select {
	case err := <-drained:
		if err == nil {
			t.Fatal("cursor completed cleanly despite cancellation mid-stream")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("merge cursor did not observe the cancellation")
	}
	select {
	case <-stalledCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("stalled shard handler never saw its request context cancelled")
	}
}

// oneShardTable builds a minimal valid single-shard routing table for
// stub-server tests.
func oneShardTable(rows int64) *RoutingTable {
	domain := vec.Box{Min: vec.Point{10, 10, 10, 10, 10}, Max: vec.Point{30, 30, 30, 30, 30}}
	cell := vec.Box{
		Min: vec.Point{-routingInf, -routingInf, -routingInf, -routingInf, -routingInf},
		Max: vec.Point{routingInf, routingInf, routingInf, routingInf, routingInf},
	}
	return &RoutingTable{
		Version:   1,
		TotalRows: rows,
		Domain:    domain,
		UnitShard: []int{0},
		Shards: []ShardInfo{{
			ID: 0, Dir: ShardDir(0), Rows: rows,
			UnitLo: 0, UnitHi: 1, Cells: []vec.Box{cell},
		}},
	}
}

// TestHedgeRetriesFastFailure: with hedging enabled, a shard that
// fails one request and recovers is retried — the hedge counter
// increments and the query still succeeds.
func TestHedgeRetriesFastFailure(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "transient", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintf(w, stubRow, 1, 15.0, 15.0)
		fmt.Fprint(w, stubSummary)
	}))
	defer srv.Close()

	coord, err := NewCoordinator(oneShardTable(1), []string{srv.URL}, Config{HedgeAfter: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	stmt := mustParse(t, "SELECT objid")
	cur, err := coord.ExecStatement(context.Background(), stmt, core.PlanAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var rows int
	for cur.Next() {
		rows++
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("hedged retry did not recover: %v", err)
	}
	if rows != 1 {
		t.Fatalf("rows = %d, want 1", rows)
	}
	if got := coord.hedges[0].Load(); got != 1 {
		t.Errorf("hedge counter = %d, want 1", got)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("shard saw %d requests, want 2 (failed primary + hedge)", got)
	}
}

// TestInsertNeverHedges: a transient insert failure is NOT retried —
// duplicating a write would double-apply the batch. The error
// surfaces instead.
func TestInsertNeverHedges(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "transient", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	coord, err := NewCoordinator(oneShardTable(1), []string{srv.URL}, Config{HedgeAfter: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	recs := makeInsertRecords(1, 5_000_000)
	if _, err := coord.Insert(recs); err == nil {
		t.Fatal("insert against a failing shard reported success")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("failing insert sent %d requests, want exactly 1 (writes never hedge)", got)
	}
}

// TestUnknownClassIsShardError: every path that decodes class names
// off the wire fails on one it cannot parse, with an error naming the
// shard — never a record silently filed under the zero class.
func TestUnknownClassIsShardError(t *testing.T) {
	q := vec.Point{15, 15, 15, 15, 15}
	for _, tc := range []struct {
		name, body string
		call       func(c *Coordinator) error
	}{
		{"points", `{"count":1,"points":[{"x":15,"y":15,"z":15,"class":"bogus","redshift":0}]}`,
			func(c *Coordinator) error {
				_, _, err := c.SampleRegion(vec.NewBox(vec.Point{14, 14, 14}, vec.Point{16, 16, 16}), 10)
				return err
			}},
		{"knn", `{"plan":"kdtree","results":[{"neighbors":[{"objId":1,"mags":[15,15,15,15,15],"class":"bogus","redshift":0}]}]}`,
			func(c *Coordinator) error {
				_, _, err := c.NearestNeighborsBatch(context.Background(), []vec.Point{q}, 1)
				return err
			}},
		{"sky", `{"points":[{"objId":1,"ra":1,"dec":1,"class":"bogus","redshift":0}]}`,
			func(c *Coordinator) error {
				_, err := c.QuerySkyBox(context.Background(), table.SkyBoxPred{RaMax: 2, DecMax: 2}, table.ColAll)
				return err
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				fmt.Fprint(w, tc.body)
			}))
			defer srv.Close()
			coord, err := NewCoordinator(oneShardTable(1), []string{srv.URL}, Config{HedgeAfter: -1})
			if err != nil {
				t.Fatal(err)
			}
			err = tc.call(coord)
			if err == nil {
				t.Fatal("answer with an unknown class accepted")
			}
			if msg := err.Error(); !strings.Contains(msg, "shard 0") || !strings.Contains(msg, srv.URL) || !strings.Contains(msg, "bogus") {
				t.Fatalf("error does not name the shard and the class: %v", err)
			}
		})
	}
}

// crossingProbe finds a probe of the benchmark's recipe whose bounded
// search must visit at least one shard besides its owner.
func crossingProbe(t *testing.T, cl *cluster, k int) (q vec.Point, owner int, others []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		q = benchProbe(rng, fixtureRecs)
		if owner, others = expectedVisits(t, cl, q, k); len(others) > 0 {
			return q, owner, others
		}
	}
	t.Fatal("no crossing probe in 2000 draws")
	return nil, 0, nil
}

// TestKnnShardDownIsLoud: a bounded search that cannot reach a shard
// it needs — the owner, or a shard its bound crosses into — fails with
// an error naming that shard, through /knn batches and through the
// ORDER BY dist statement; it never answers with the neighbours it
// could still find.
func TestKnnShardDownIsLoud(t *testing.T) {
	const k = 10
	for _, which := range []string{"owner", "phase-2"} {
		t.Run(which, func(t *testing.T) {
			cl := startCluster(t, Config{HedgeAfter: -1})
			q, owner, others := crossingProbe(t, cl, k)
			down := owner
			if which == "phase-2" {
				down = others[0]
			}
			cl.servers[down].Close()

			recs, _, err := cl.coord.NearestNeighborsBatch(context.Background(), []vec.Point{q}, k)
			requireShardError(t, err, down, cl.targets[down])
			if recs != nil {
				t.Fatalf("failed search still returned %d neighbour lists", len(recs))
			}
			cur, err := cl.coord.ExecStatement(context.Background(), mustParse(t, distStatement(q, k)), core.PlanAuto)
			requireShardError(t, err, down, cl.targets[down])
			if cur != nil {
				t.Fatal("failed statement still returned a cursor")
			}
		})
	}
}

// requireShardError asserts err names the shard and its URL.
func requireShardError(t *testing.T, err error, shard int, target string) {
	t.Helper()
	if err == nil {
		t.Fatalf("search succeeded with shard %d down", shard)
	}
	if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("shard %d", shard)) || !strings.Contains(msg, target) {
		t.Fatalf("error does not identify shard %d (%s): %v", shard, target, err)
	}
}

// TestKnnPhase2CutMidStream: the owner answers, one second-phase shard
// drops its connection after the first row and the other stalls. The
// search fails naming the cut shard, the stalled shard's handler sees
// its request cancelled (no sub-request outlives the search), and the
// goroutines the search started are gone.
func TestKnnPhase2CutMidStream(t *testing.T) {
	rt, err := LoadRoutingTable(clusterDir)
	if err != nil {
		t.Fatal(err)
	}
	q := vec.Point{15, 15, 15, 15, 15}
	owner := rt.RouteMags(q)
	cut, stalled := (owner+1)%rt.NumShards(), (owner+2)%rt.NumShards()
	// The owner's only neighbour is far away, so the bound reaches
	// every other shard's cells.
	const ownerRow = `{"objid":7,"u":90,"g":90,"r":90,"i":90,"z":90,"ra":1,"dec":1,"redshift":0,"class":"star"}` + "\n"
	const ownerKnn = `{"plan":"kdtree","results":[{"neighbors":[{"objId":7,"mags":[90,90,90,90,90],"class":"star","redshift":0}]}]}`

	// The cut waits until the stalled shard holds its sub-request, so
	// every search has a live sub-request to cancel.
	stalledArrived := make(chan struct{}, 2)
	stalledCancelled := make(chan struct{}, 2)
	var servers []*httptest.Server
	var targets []string
	for i := 0; i < rt.NumShards(); i++ {
		i := i
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch i {
			case owner:
				if r.URL.Path == "/knn" {
					fmt.Fprint(w, ownerKnn)
					return
				}
				fmt.Fprint(w, ownerRow, stubSummary)
			case cut:
				// One row, then the connection dies: no summary, no clean
				// chunked terminator.
				fmt.Fprintf(w, stubRow, 1, 15.0, 15.0)
				w.(http.Flusher).Flush()
				<-stalledArrived
				conn, _, err := w.(http.Hijacker).Hijack()
				if err == nil {
					conn.Close()
				}
			case stalled:
				fmt.Fprintf(w, stubRow, 2, 15.0, 15.0)
				w.(http.Flusher).Flush()
				stalledArrived <- struct{}{}
				<-r.Context().Done()
				stalledCancelled <- struct{}{}
			}
		}))
		servers = append(servers, srv)
		targets = append(targets, srv.URL)
	}
	t.Cleanup(func() {
		for _, srv := range servers {
			srv.Close()
		}
	})
	coord, err := NewCoordinator(rt, targets, Config{HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	for _, search := range []func() error{
		func() error {
			recs, _, err := coord.NearestNeighborsBatch(context.Background(), []vec.Point{q}, 1)
			if recs != nil {
				t.Errorf("failed search still returned %d neighbour lists", len(recs))
			}
			return err
		},
		func() error {
			_, err := coord.ExecStatement(context.Background(), mustParse(t, distStatement(q, 1)), core.PlanAuto)
			return err
		},
	} {
		done := make(chan error, 1)
		go func() { done <- search() }()
		select {
		case err := <-done:
			requireShardError(t, err, cut, targets[cut])
		case <-time.After(5 * time.Second):
			t.Fatal("search hung on the stalled shard instead of failing on the cut one")
		}
		select {
		case <-stalledCancelled:
		case <-time.After(5 * time.Second):
			t.Fatal("stalled shard handler never saw its request context cancelled")
		}
	}

	// Nothing the searches started is still running: once the idle
	// connections are dropped, the goroutine count returns to where it
	// was (polling, since connection teardown is asynchronous).
	coord.client.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("%d goroutines before the searches, %d after", before, now)
	}
}
