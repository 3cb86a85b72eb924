package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/colorsql"
	"repro/internal/core"
	"repro/internal/table"
	"repro/internal/vec"
	"repro/internal/vizhttp"
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

// starCols is what a SELECT * frame stream carries.
var starCols = core.ColumnSet(colorsql.StarColumns())

// stubRec is a valid SELECT * row at magnitudes (mag, …, mag).
func stubRec(objid int64, mag float32) table.Record {
	return table.Record{ObjID: objid, Mags: [5]float32{mag, mag, mag, mag, mag}, Ra: 1, Dec: 1}
}

// writeFrames starts a stub shard's frame-stream answer: the header
// and one rows frame, flushed.
func writeFrames(w http.ResponseWriter, recs ...table.Record) {
	w.Header().Set("Content-Type", vizhttp.FrameContentType)
	w.Write(frameStream(starCols, recs))
	w.(http.Flusher).Flush()
}

// frameStream renders a header and recs as one rows frame.
func frameStream(cols table.ColumnSet, recs []table.Record) []byte {
	fw := vizhttp.FrameWriter{Cols: cols}
	b := fw.Begin(nil)
	for i := range recs {
		b = fw.Row(b, &recs[i])
	}
	return fw.Seal(b)
}

// writeSummary ends a stub shard's answer cleanly.
func writeSummary(w http.ResponseWriter) {
	w.Write(new(vizhttp.FrameWriter).End(nil, core.Report{Plan: core.PlanFullScan, RowsReturned: 1}, nil))
}

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
				writeFrames(w, stubRec(1, 15))
				<-r.Context().Done()
				close(stalledCancelled)
				return
			}
			writeFrames(w, stubRec(int64(100+i), 15))
			writeSummary(w)
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
		writeFrames(w, stubRec(1, 15))
		writeSummary(w)
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

// TestUnknownClassIsShardError: every path that reads rows off the
// wire — statements, kNN visits, /sky and /points — reads them through
// the one FrameReader check, so a class the table does not know fails
// with an error naming the shard, never a record silently filed under
// the zero class.
func TestUnknownClassIsShardError(t *testing.T) {
	q := vec.Point{15, 15, 15, 15, 15}
	for _, tc := range []struct {
		name, path string
		call       func(c *Coordinator) error
	}{
		{"points", "/points",
			func(c *Coordinator) error {
				_, _, err := c.SampleRegion(vec.NewBox(vec.Point{14, 14, 14}, vec.Point{16, 16, 16}), 10)
				return err
			}},
		{"knn", "/query",
			func(c *Coordinator) error {
				_, _, err := c.NearestNeighborsBatch(context.Background(), []vec.Point{q}, 1)
				return err
			}},
		{"query", "/query",
			func(c *Coordinator) error {
				cur, err := c.ExecStatement(context.Background(), mustParse(t, "SELECT * WHERE r < 20"), core.PlanAuto)
				if err != nil {
					return err
				}
				defer cur.Close()
				for cur.Next() {
					t.Error("a row of a frame holding an unknown class was emitted")
				}
				return cur.Err()
			}},
		{"sky", "/sky",
			func(c *Coordinator) error {
				_, err := c.QuerySkyBox(context.Background(), table.SkyBoxPred{RaMax: 2, DecMax: 2}, table.ColAll)
				return err
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != tc.path {
					http.NotFound(w, r)
					return
				}
				writeFrames(w, table.Record{ObjID: 1, Class: 200})
				writeSummary(w)
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
			if msg := err.Error(); !strings.Contains(msg, "shard 0") || !strings.Contains(msg, srv.URL) ||
				!strings.Contains(msg, "unknown class 200") {
				t.Fatalf("error does not name the shard and the class: %v", err)
			}
		})
	}
}

// TestDamagedStreamNamesTheShard: whatever is wrong with a shard's
// answer to a statement — cut at any byte of a multi-block stream, one
// bit flipped anywhere in it, no summary, an error frame after rows, or
// not a frame stream at all — the cursor ends in an error naming the
// shard and its URL, after at most the rows of the frames before the
// damage. It never ends cleanly on a short answer.
func TestDamagedStreamNamesTheShard(t *testing.T) {
	sent := []table.Record{stubRec(1, 15), stubRec(2, 16), stubRec(3, 17), stubRec(4, 18), stubRec(5, 19)}
	fw := vizhttp.FrameWriter{Cols: starCols}
	rows := fw.Begin(nil)
	for i := range sent {
		rows = fw.Row(rows, &sent[i])
		if i%2 == 1 {
			rows = fw.Seal(rows)
		}
	}
	rows = fw.Seal(rows)
	whole := fw.End(bytes.Clone(rows), core.Report{RowsReturned: int64(len(sent))}, nil)

	type answer struct {
		name, contentType string
		body              []byte
		errHas            string
	}
	answers := []answer{
		{"no summary", vizhttp.FrameContentType, rows, "truncated"},
		{"error frame after rows", vizhttp.FrameContentType, fw.End(bytes.Clone(rows), core.Report{}, errors.New("page 7 unreadable")), "page 7 unreadable"},
		{"ndjson", "application/x-ndjson", []byte(`{"objid":1,"u":15,"g":15,"r":15,"i":15,"z":15,"ra":1,"dec":1,"redshift":0,"class":"star"}` + "\n" + `{"summary":{"rowsReturned":1}}` + "\n"), "not a frame stream"},
		{"text/plain", "text/plain", whole, "not a frame stream"},
	}
	for cut := 0; cut < len(whole); cut++ {
		answers = append(answers, answer{fmt.Sprintf("cut at %d", cut), vizhttp.FrameContentType, whole[:cut], "truncated"})
	}
	for i := range whole {
		damaged := bytes.Clone(whole)
		damaged[i] ^= 1 << (i % 8)
		answers = append(answers, answer{fmt.Sprintf("bit flipped in byte %d", i), vizhttp.FrameContentType, damaged, ""})
	}

	var current atomic.Pointer[answer]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		a := current.Load()
		w.Header().Set("Content-Type", a.contentType)
		w.Write(a.body)
	}))
	defer srv.Close()
	coord, err := NewCoordinator(oneShardTable(int64(len(sent))), []string{srv.URL}, Config{HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	stmt := mustParse(t, "SELECT *")
	for i := range answers {
		a := &answers[i]
		current.Store(a)
		cur, err := coord.ExecStatement(context.Background(), stmt, core.PlanAuto)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for cur.Next() {
			if n >= len(sent) || *cur.Record() != sent[n] {
				t.Fatalf("%s: row %d is not the row sent", a.name, n)
			}
			n++
		}
		err = cur.Err()
		cur.Close()
		if err == nil {
			t.Fatalf("%s: ended cleanly after %d of %d rows", a.name, n, len(sent))
		}
		requireShardError(t, err, 0, srv.URL)
		if !strings.Contains(err.Error(), a.errHas) {
			t.Fatalf("%s: %v", a.name, err)
		}
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
				writeFrames(w, stubRec(7, 90))
				writeSummary(w)
			case cut:
				// One row, then the connection dies: no summary, no clean
				// chunked terminator.
				writeFrames(w, stubRec(1, 15))
				<-stalledArrived
				conn, _, err := w.(http.Hijacker).Hijack()
				if err == nil {
					conn.Close()
				}
			case stalled:
				writeFrames(w, stubRec(2, 15))
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
