package shard

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/colorsql"
	"repro/internal/core"
	"repro/internal/table"
)

// These tests pin the demand-driven visits of an unordered LIMIT: which
// shards are asked, for how many rows, and that the answer is row for
// row the one an eager merge — every target asked for the whole LIMIT
// at once — would have given.

// askedLog is a coordinator transport that records the statement of
// every /query sub-request, per shard.
type askedLog struct {
	mu      sync.Mutex
	targets []string
	asked   [][]string
}

func (l *askedLog) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/query" {
		l.mu.Lock()
		for s, target := range l.targets {
			if strings.HasSuffix(target, req.URL.Host) {
				l.asked[s] = append(l.asked[s], req.URL.Query().Get("q"))
			}
		}
		l.mu.Unlock()
	}
	return http.DefaultTransport.RoundTrip(req)
}

// reset forgets what was asked so far.
func (l *askedLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.asked = make([][]string, len(l.targets))
}

// loggedCluster starts a cluster at dir whose coordinator logs what it
// asks.
func loggedCluster(t *testing.T, dir string) (*cluster, *askedLog) {
	t.Helper()
	log := &askedLog{}
	cl := startClusterAt(t, dir, Config{HedgeAfter: -1, Client: &http.Client{Transport: log}}, core.Config{})
	log.targets = cl.targets
	log.reset()
	return cl, log
}

// shardAnswers asks every target of stmt for the shard-side statement
// under the given LIMIT, straight through fetchAll (no request is
// counted), and returns the answers in target order.
func shardAnswers(t *testing.T, cl *cluster, stmt colorsql.Statement, limit int) (targets []int, answers [][]table.Record) {
	t.Helper()
	sp := cl.coord.planStatement(stmt)
	sub := sp.sub
	sub.Limit = limit
	for _, target := range sp.targets {
		recs, _, err := cl.coord.fetchAll(context.Background(), target, queryPath(sub.String()))
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, recs)
	}
	return sp.targets, answers
}

// eagerReference is the merge this one replaced: every target's answer
// to the whole LIMIT, concatenated in shard order, cut at the LIMIT.
func eagerReference(t *testing.T, cl *cluster, stmt colorsql.Statement) []string {
	t.Helper()
	_, answers := shardAnswers(t, cl, stmt, stmt.Limit)
	var rows []string
	for _, recs := range answers {
		for i := range recs {
			if len(rows) < stmt.Limit {
				rows = append(rows, string(core.AppendRowJSON(nil, stmt.OutputColumns(), &recs[i])))
			}
		}
	}
	return rows
}

// runLimit executes stmt through the coordinator and returns its rows,
// the per-shard request deltas and the merged report.
func runLimit(t *testing.T, cl *cluster, stmt colorsql.Statement) (rows []string, delta []int64, rep core.Report) {
	t.Helper()
	before := shardRequests(cl.coord)
	cur, err := cl.coord.ExecStatement(context.Background(), stmt, core.PlanAuto)
	if err != nil {
		t.Fatal(err)
	}
	rows = renderRows(t, stmt, cur)
	rep = cur.Stats()
	delta = shardRequests(cl.coord)
	for s := range delta {
		delta[s] -= before[s]
	}
	return rows, delta, rep
}

// TestLimitVisitsOnlyWhatItNeeds walks a colour cut, of one clause and
// of two, through the three regimes of a LIMIT: filled by the first
// target, spanning two, and larger than every match.
func TestLimitVisitsOnlyWhatItNeeds(t *testing.T) {
	for _, cut := range []string{
		"SELECT objid, g WHERE g - r > 0.2 AND r < 19.0",
		"SELECT g WHERE g - r > 0.2 AND r < 19.0 OR u - g > 1.5 AND r < 19.5",
	} {
		t.Run(cut, func(t *testing.T) { limitVisits(t, cut) })
	}
}

func limitVisits(t *testing.T, cut string) {
	cl, log := loggedCluster(t, clusterDir)
	targets, all := shardAnswers(t, cl, mustParse(t, cut), -1)
	if len(targets) != 3 || len(all[0]) < 2 || len(all[1]) < 2 || len(all[2]) < 1 {
		t.Fatalf("fixture: the cut matches %d/%d/%d rows on targets %v; the test needs all three shards", len(all[0]), len(all[1]), len(all[2]), targets)
	}
	n0, n1, n2 := len(all[0]), len(all[1]), len(all[2])

	for _, tc := range []struct {
		name      string
		limit     int
		wantDelta []int64
		wantRows  int
		// the LIMIT each visited target must have been asked for
		wantAsked []int
	}{
		{"filled-by-first", n0 - 1, []int64{1, 0, 0}, n0 - 1, []int{n0 - 1}},
		{"first-exactly", n0, []int64{1, 0, 0}, n0, []int{n0}},
		{"spans-two", n0 + 1, []int64{1, 1, 0}, n0 + 1, []int{n0 + 1, 1}},
		{"spans-three", n0 + n1 + 1, []int64{1, 1, 1}, n0 + n1 + 1, []int{n0 + n1 + 1, n1 + 1, 1}},
		{"larger-than-all", n0 + n1 + n2 + 10, []int64{1, 1, 1}, n0 + n1 + n2, []int{n0 + n1 + n2 + 10, n1 + n2 + 10, n2 + 10}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stmt := mustParse(t, fmt.Sprintf("%s LIMIT %d", cut, tc.limit))
			want := eagerReference(t, cl, stmt)
			log.reset()
			got, delta, rep := runLimit(t, cl, stmt)

			if !slices.Equal(got, want) {
				t.Fatalf("%d rows, eager reference %d; or an order differs", len(got), len(want))
			}
			if len(got) != tc.wantRows {
				t.Fatalf("%d rows, want %d", len(got), tc.wantRows)
			}
			for i, target := range targets {
				if delta[target] != tc.wantDelta[i] {
					t.Errorf("target %d (shard %d): %d sub-requests, want %d", i, target, delta[target], tc.wantDelta[i])
				}
				asked := log.asked[target]
				if i >= len(tc.wantAsked) {
					if len(asked) != 0 {
						t.Errorf("shard %d should not have been asked, was asked %q", target, asked)
					}
					continue
				}
				if suffix := fmt.Sprintf(" LIMIT %d", tc.wantAsked[i]); len(asked) != 1 || !strings.HasSuffix(asked[0], suffix) {
					t.Errorf("shard %d asked %q, want one statement ending %q", target, asked, suffix)
				}
			}
			// Every visited stream ran to its own end, so every summary
			// was folded: the shards examined at least the rows returned.
			if rep.RowsExamined < int64(len(got)) || rep.RowsReturned != int64(len(got)) {
				t.Errorf("merged report %+v for %d rows", rep, len(got))
			}
		})
	}
}

// TestLimitCloseBeforeNextOpensNothing: a bounded cursor closed unread
// never touched a shard.
func TestLimitCloseBeforeNextOpensNothing(t *testing.T) {
	cl, log := loggedCluster(t, clusterDir)
	before := shardRequests(cl.coord)
	cur, err := cl.coord.ExecStatement(context.Background(), mustParse(t, "SELECT objid WHERE r < 19.0 LIMIT 10"), core.PlanAuto)
	if err != nil {
		t.Fatal(err)
	}
	cur.Close()
	if cur.Next() {
		t.Error("a closed cursor produced a row")
	}
	if after := shardRequests(cl.coord); !slices.Equal(after, before) {
		t.Errorf("sub-request counters moved: %v → %v", before, after)
	}
	for s, asked := range log.asked {
		if len(asked) != 0 {
			t.Errorf("shard %d was asked %q", s, asked)
		}
	}
}

// TestLimitMidSequenceFailure: when the LIMIT needs a second target and
// that shard is down, the statement fails naming it; the rows of the
// first target are not passed off as the answer.
func TestLimitMidSequenceFailure(t *testing.T) {
	cl, _ := loggedCluster(t, clusterDir)
	const cut = "SELECT objid WHERE g - r > 0.2 AND r < 19.0"
	targets, all := shardAnswers(t, cl, mustParse(t, cut), -1)
	if len(targets) < 2 {
		t.Fatal("fixture: the cut targets one shard")
	}
	cl.servers[targets[1]].Close()

	stmt := mustParse(t, fmt.Sprintf("%s LIMIT %d", cut, len(all[0])+1))
	cur, err := cl.coord.ExecStatement(context.Background(), stmt, core.PlanAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	rows := 0
	for cur.Next() {
		rows++
	}
	requireShardError(t, cur.Err(), targets[1], cl.targets[targets[1]])
	if rows > len(all[0]) {
		t.Errorf("%d rows before the failure, the first target holds %d", rows, len(all[0]))
	}

	// A LIMIT the first target fills never learns the second is down.
	stmt.Limit = len(all[0])
	if got, _, _ := runLimit(t, cl, stmt); len(got) != len(all[0]) {
		t.Errorf("%d rows, want %d", len(got), len(all[0]))
	}
}
