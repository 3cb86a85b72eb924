package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/table"
	"repro/internal/vec"
	"repro/internal/vizhttp"
)

// recMags widens a record's magnitudes to the float64 probe space.
func recMags(rec *table.Record) vec.Point {
	p := make(vec.Point, len(rec.Mags))
	for d, v := range rec.Mags {
		p[d] = float64(v)
	}
	return p
}

// benchProbe draws a probe the way the benchmark does: a catalog
// object's magnitudes plus N(0, 0.05) per band, rounded to 4 places.
func benchProbe(rng *rand.Rand, recs []table.Record) vec.Point {
	p := recMags(&recs[rng.Intn(len(recs))])
	for d := range p {
		p[d] = math.Round((p[d]+rng.NormFloat64()*0.05)*1e4) / 1e4
	}
	return p
}

// distStatement is the statement form of a probe.
func distStatement(q vec.Point, k int) string {
	parts := make([]string, len(q))
	for d, v := range q {
		parts[d] = formatFloat(v)
	}
	return fmt.Sprintf("SELECT * ORDER BY dist(%s) LIMIT %d", strings.Join(parts, ", "), k)
}

// shardRequests sums the per-shard sub-request counters.
func shardRequests(c *Coordinator) []int64 {
	out := make([]int64, len(c.requests))
	for s := range out {
		out[s] = c.requests[s].Load()
	}
	return out
}

// expectedVisits derives, from the owner shard's own answer, which
// other shards a bounded search must visit: those with a cell nearer
// than the owner's k-th neighbour.
func expectedVisits(t *testing.T, cl *cluster, q vec.Point, k int) (owner int, others []int) {
	t.Helper()
	owner = cl.rt.RouteMags(q)
	recs, _, err := cl.dbs[owner].NearestNeighbors(q, k)
	if err != nil {
		t.Fatal(err)
	}
	bound := math.Inf(1)
	if len(recs) >= k {
		bound = table.Dist2(&recs[len(recs)-1].Mags, q)
	}
	for s := 0; s < cl.rt.NumShards(); s++ {
		if s != owner && cl.rt.CellDist2(s, q) < bound {
			others = append(others, s)
		}
	}
	return owner, others
}

// TestKnnBoundBounds: the prune prunes. A probe whose k-th neighbour
// is nearer than every foreign cell costs exactly one sub-request, a
// probe whose ball crosses into other shards' cells costs one more per
// such shard — on the shard the routing table names — and over the
// benchmark's probe recipe the mean stays near one visit.
func TestKnnBoundBounds(t *testing.T) {
	cl := startCluster(t, Config{})
	rng := rand.New(rand.NewSource(400))
	ctx := context.Background()

	const probes = 400
	var total, interior, crossing int64
	for i := 0; i < probes; i++ {
		q, k := benchProbe(rng, fixtureRecs), 1+rng.Intn(10)
		owner, others := expectedVisits(t, cl, q, k)
		want := make([]int64, cl.rt.NumShards())
		want[owner] = 1
		for _, s := range others {
			want[s] = 1
		}

		before := shardRequests(cl.coord)
		var err error
		if i%2 == 0 {
			_, _, err = cl.coord.NearestNeighborsBatch(ctx, []vec.Point{q}, k)
		} else {
			stmt := mustParse(t, distStatement(q, k))
			var cur core.Cursor
			if cur, err = cl.coord.ExecStatement(ctx, stmt, core.PlanAuto); err == nil {
				renderRows(t, stmt, cur)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		after := shardRequests(cl.coord)
		for s := range want {
			if got := after[s] - before[s]; got != want[s] {
				t.Fatalf("probe %d %v k=%d (owner %d, crossing into %v): shard %d served %d sub-requests, want %d",
					i, q, k, owner, others, s, got, want[s])
			}
			total += after[s] - before[s]
		}
		if len(others) == 0 {
			interior++
		} else {
			crossing++
		}
	}
	if interior == 0 || crossing == 0 {
		t.Fatalf("%d interior and %d crossing probes — both kinds must occur for the counts to mean anything", interior, crossing)
	}
	mean := float64(total) / probes
	t.Logf("%d probes: %d interior, %d crossing, %.3f shard visits per probe", probes, interior, crossing, mean)
	if mean > 1.2 {
		t.Errorf("mean shard visits per probe %.3f, want <= 1.2", mean)
	}
}

// knnResults posts one /knn batch and returns each probe's counters.
func knnResults(t *testing.T, base string, qs []vec.Point, k int) []struct{ LeavesExamined, RowsExamined int64 } {
	t.Helper()
	body, err := json.Marshal(map[string]any{"points": qs, "k": k})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/knn", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Results []struct{ LeavesExamined, RowsExamined int64 }
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/knn: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(qs) {
		t.Fatalf("/knn: %d results for %d probes", len(out.Results), len(qs))
	}
	return out.Results
}

// TestKnnLeavesFromOwner: the coordinator's /knn reports, for a probe
// its owner answers alone, the leaves and rows the owner's own /knn
// examines for the same (p, k) — carried home by the statement's
// summary frame — one probe at a time and in a mixed-owner batch. The
// shards carry kd-trees here, so the owner's search examines leaves.
func TestKnnLeavesFromOwner(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cluster")
	if _, err := BuildCluster(dir, fixtureRecs, BuildParams{Shards: fixtureShards, Seed: fixtureSeed, Indexes: true}); err != nil {
		t.Fatal(err)
	}
	cl := startClusterAt(t, dir, Config{}, core.Config{})
	cs := httptest.NewServer(vizhttp.NewBackend(cl.coord, vizhttp.Config{}).Handler())
	t.Cleanup(cs.Close)
	rng := rand.New(rand.NewSource(41))
	const k = 5

	var qs []vec.Point
	var owners []int
	for len(qs) < 12 {
		q := benchProbe(rng, fixtureRecs)
		if owner, others := expectedVisits(t, cl, q, k); len(others) == 0 {
			qs, owners = append(qs, q), append(owners, owner)
		}
	}
	batch := knnResults(t, cs.URL, qs, k)
	for i, q := range qs {
		want := knnResults(t, cl.targets[owners[i]], qs[i:i+1], k)[0]
		if want.LeavesExamined == 0 {
			t.Fatalf("probe %v: the owner examined no leaves", q)
		}
		if got := knnResults(t, cs.URL, qs[i:i+1], k)[0]; got != want {
			t.Errorf("probe %v: coordinator reports %+v, owner shard %d %+v", q, got, owners[i], want)
		}
		if batch[i] != want {
			t.Errorf("probe %v in a batch: coordinator reports %+v, owner shard %d %+v", q, batch[i], owners[i], want)
		}
	}
}

// TestCellDist2: the owner's distance is zero, and a foreign shard's
// is a lower bound on the distance to every row that shard holds.
func TestCellDist2(t *testing.T) {
	rt, err := LoadRoutingTable(clusterDir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	owner := make([]int, len(fixtureRecs))
	for i := range fixtureRecs {
		owner[i] = rt.RouteMags(recMags(&fixtureRecs[i]))
	}
	for trial := 0; trial < 200; trial++ {
		q := benchProbe(rng, fixtureRecs)
		if d := rt.CellDist2(rt.RouteMags(q), q); d != 0 {
			t.Fatalf("probe %v: distance %v to its own shard's cells", q, d)
		}
		nearest := make([]float64, rt.NumShards())
		for s := range nearest {
			nearest[s] = math.Inf(1)
		}
		for i := range fixtureRecs {
			nearest[owner[i]] = min(nearest[owner[i]], table.Dist2(&fixtureRecs[i].Mags, q))
		}
		for s := range nearest {
			if lb := rt.CellDist2(s, q); lb > nearest[s] {
				t.Fatalf("probe %v: shard %d cell distance² %v exceeds its nearest row's %v", q, s, lb, nearest[s])
			}
		}
	}
}

// TestCoordinatorCountsPhotoZ: the coordinator fits every estimate
// itself — its shards answer only the FROM reference statements behind
// them — so its /stats counts the estimates and their fallbacks.
func TestCoordinatorCountsPhotoZ(t *testing.T) {
	cl := startCluster(t, Config{})
	cs := httptest.NewServer(vizhttp.NewBackend(cl.coord, vizhttp.Config{}).Handler())
	t.Cleanup(cs.Close)
	rng := rand.New(rand.NewSource(43))
	const probes = 5
	q := url.Values{}
	for i := 0; i < probes; i++ {
		p := benchProbe(rng, fixtureRecs)
		q.Add("mags", fmt.Sprintf("%v,%v,%v,%v,%v", p[0], p[1], p[2], p[3], p[4]))
	}
	get := func(path string, out any) {
		t.Helper()
		resp, err := http.Get(cs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	var pz struct {
		Redshifts    []float64 `json:"redshifts"`
		FitFallbacks int64     `json:"fitFallbacks"`
	}
	get("/photoz?"+q.Encode(), &pz)
	var stats struct {
		PhotozEstimates    int64  `json:"photozEstimates"`
		PhotozFitFallbacks *int64 `json:"photozFitFallbacks"`
	}
	get("/stats", &stats)
	if len(pz.Redshifts) != probes || stats.PhotozEstimates != probes {
		t.Errorf("a /photoz batch of %d answered %d redshifts; /stats photozEstimates = %d", probes, len(pz.Redshifts), stats.PhotozEstimates)
	}
	if stats.PhotozFitFallbacks == nil || *stats.PhotozFitFallbacks != pz.FitFallbacks {
		t.Errorf("/stats photozFitFallbacks = %v, the answer reported %d", stats.PhotozFitFallbacks, pz.FitFallbacks)
	}
}
