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
	"repro/internal/sky"
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

// adversarialProbes are the probes a routing prune is most likely to
// get wrong: a point exactly on every split's cut plane, points
// outside the generation-time domain on each side of each axis and of
// all axes at once, and catalog objects' own magnitudes.
func adversarialProbes(rt *RoutingTable, recs []table.Record) []vec.Point {
	var qs []vec.Point
	for i, sp := range rt.Splits {
		q := recMags(&recs[(i*37)%len(recs)])
		q[sp.Axis] = sp.Cut
		qs = append(qs, q)
	}
	below, above := rt.Domain.Min.Clone(), rt.Domain.Max.Clone()
	for d := range below {
		below[d] -= 3
		above[d] += 3
		for _, v := range []float64{rt.Domain.Min[d] - 2, rt.Domain.Max[d] + 2} {
			q := recMags(&recs[(d*101)%len(recs)])
			q[d] = v
			qs = append(qs, q)
		}
	}
	qs = append(qs, below, above)
	for i := 0; i < 8; i++ {
		qs = append(qs, recMags(&recs[(i*211)%len(recs)]))
	}
	return qs
}

// sameNeighbours requires the exactness contract of a cluster search
// against the single store: equal squared-distance sequences always,
// and the same row — sky position included — wherever its distance is
// distinct (rows at equal distance may come back in either order —
// ROADMAP 1(b)).
func sameNeighbours(t *testing.T, label string, q vec.Point, got, want []table.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d neighbours, single store %d", label, len(got), len(want))
	}
	for j := range want {
		dg, dw := table.Dist2(&got[j].Mags, q), table.Dist2(&want[j].Mags, q)
		if dg != dw {
			t.Fatalf("%s: neighbour %d at dist² %v, single store %v", label, j, dg, dw)
		}
		tied := j > 0 && table.Dist2(&want[j-1].Mags, q) == dw || j+1 < len(want) && table.Dist2(&want[j+1].Mags, q) == dw
		if tied {
			continue
		}
		// The wire's view of a row.
		wire := func(r *table.Record) table.Record {
			return table.Record{ObjID: r.ObjID, Mags: r.Mags, Ra: r.Ra, Dec: r.Dec, Class: r.Class, Redshift: r.Redshift}
		}
		if g, w := wire(&got[j]), wire(&want[j]); g != w {
			t.Fatalf("%s: neighbour %d is %+v, single store %+v", label, j, g, w)
		}
	}
}

// checkKNNBatch compares one batch through the coordinator with the
// single store, neighbour list by neighbour list in input order.
func checkKNNBatch(t *testing.T, label string, coord *Coordinator, single *core.SpatialDB, qs []vec.Point, k int) {
	t.Helper()
	want, _, err := single.NearestNeighborsBatch(context.Background(), qs, k)
	if err != nil {
		t.Fatal(err)
	}
	got, reps, err := coord.NearestNeighborsBatch(context.Background(), qs, k)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(got) != len(qs) || len(reps) != len(qs) {
		t.Fatalf("%s: %d results and %d reports for %d probes", label, len(got), len(reps), len(qs))
	}
	for i, q := range qs {
		sameNeighbours(t, fmt.Sprintf("%s probe %d %v k=%d", label, i, q, k), q, got[i], want[i])
		if reps[i].RowsReturned != int64(len(want[i])) {
			t.Errorf("%s probe %d: report rowsReturned %d, want %d", label, i, reps[i].RowsReturned, len(want[i]))
		}
	}
}

// distStatement is the statement form of a probe.
func distStatement(q vec.Point, k int) string {
	parts := make([]string, len(q))
	for d, v := range q {
		parts[d] = formatFloat(v)
	}
	return fmt.Sprintf("SELECT * ORDER BY dist(%s) LIMIT %d", strings.Join(parts, ", "), k)
}

// clientLine is one line of the client-facing NDJSON wire (or one
// element of the JSON body's rows): a SELECT * row, a summary, or an
// error.
type clientLine struct {
	ObjID                            *int64
	U, G, R, I, Z, Ra, Dec, Redshift *float64
	Class                            *string
	Summary                          *json.RawMessage
	Error                            *string
}

// toRecord decodes a SELECT * row; the float32 recast of each shortest
// float64 rendering is exact.
func (w *clientLine) toRecord() (table.Record, error) {
	var rec table.Record
	if w.ObjID == nil || w.U == nil || w.G == nil || w.R == nil || w.I == nil ||
		w.Z == nil || w.Ra == nil || w.Dec == nil || w.Redshift == nil || w.Class == nil {
		return rec, fmt.Errorf("row is missing SELECT * columns")
	}
	rec.ObjID = *w.ObjID
	rec.Mags = [5]float32{float32(*w.U), float32(*w.G), float32(*w.R), float32(*w.I), float32(*w.Z)}
	rec.Ra, rec.Dec, rec.Redshift = float32(*w.Ra), float32(*w.Dec), float32(*w.Redshift)
	c, ok := table.ParseClass(*w.Class)
	if !ok {
		return rec, fmt.Errorf("unknown class %q", *w.Class)
	}
	rec.Class = c
	return rec, nil
}

// queryRows fetches one statement over HTTP and returns its SELECT *
// rows decoded, in either wire format.
func queryRows(t *testing.T, base, stmt, format string) []table.Record {
	t.Helper()
	u := base + "/query?q=" + url.QueryEscape(stmt)
	if format != "" {
		u += "&format=" + format
	}
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", stmt, resp.StatusCode, body)
	}
	var lines []clientLine
	if format == "ndjson" {
		for _, raw := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
			var wl clientLine
			if err := json.Unmarshal(raw, &wl); err != nil {
				t.Fatalf("bad line %q: %v", raw, err)
			}
			if wl.Error != nil {
				t.Fatalf("%s: stream error: %s", stmt, *wl.Error)
			}
			if wl.Summary == nil {
				lines = append(lines, wl)
			}
		}
	} else {
		var doc struct {
			Rows []clientLine `json:"rows"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("bad body: %v", err)
		}
		lines = doc.Rows
	}
	recs := make([]table.Record, len(lines))
	for i := range lines {
		if recs[i], err = lines[i].toRecord(); err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

// checkDistStatement compares the ORDER BY dist(p) LIMIT k statement
// through a coordinator's HTTP surface with a single store's, as
// NDJSON and as JSON, whole rows (sky position included).
func checkDistStatement(t *testing.T, label, coordURL, singleURL string, q vec.Point, k int) {
	t.Helper()
	stmt := distStatement(q, k)
	for _, format := range []string{"ndjson", ""} {
		want := queryRows(t, singleURL, stmt, format)
		got := queryRows(t, coordURL, stmt, format)
		sameNeighbours(t, fmt.Sprintf("%s %q format=%q", label, stmt, format), q, got, want)
	}
}

// serveBoth mounts the HTTP surface over a coordinator and a single
// store.
func serveBoth(t *testing.T, coord *Coordinator, single *core.SpatialDB) (coordURL, singleURL string) {
	t.Helper()
	cs := httptest.NewServer(vizhttp.NewBackend(coord, vizhttp.Config{}).Handler())
	ss := httptest.NewServer(vizhttp.New(single, vizhttp.Config{}).Handler())
	t.Cleanup(cs.Close)
	t.Cleanup(ss.Close)
	return cs.URL, ss.URL
}

// TestKnnEquivalence is the exactness property of the bounded cluster
// search: whatever the routing prune skips, the coordinator's
// neighbours equal the single store's — for /knn batches and for the
// ORDER BY dist(p) LIMIT k statement in both wire formats.
func TestKnnEquivalence(t *testing.T) {
	cl := startCluster(t, Config{})
	single := openSingle(t)
	coordURL, singleURL := serveBoth(t, cl.coord, single)
	rng := rand.New(rand.NewSource(26))

	t.Run("bench-recipe", func(t *testing.T) {
		// Batches of 1–7 probes: most mix owners, so the input order has
		// to be restored from per-shard sub-batches.
		for b := 0; b < 80; b++ {
			qs := make([]vec.Point, 1+rng.Intn(7))
			for i := range qs {
				qs[i] = benchProbe(rng, fixtureRecs)
			}
			checkKNNBatch(t, fmt.Sprintf("batch %d", b), cl.coord, single, qs, 1+rng.Intn(10))
		}
		for i := 0; i < 40; i++ {
			checkDistStatement(t, "recipe", coordURL, singleURL, benchProbe(rng, fixtureRecs), 1+rng.Intn(10))
		}
	})

	t.Run("adversarial", func(t *testing.T) {
		qs := adversarialProbes(cl.rt, fixtureRecs)
		owners := make(map[int]bool)
		for _, q := range qs {
			owners[cl.rt.RouteMags(q)] = true
		}
		if len(owners) < 2 {
			t.Fatalf("adversarial batch has one owner — it cannot test order restoration")
		}
		for _, k := range []int{1, 5, 10} {
			checkKNNBatch(t, "adversarial", cl.coord, single, qs, k)
		}
		for i, q := range qs {
			checkDistStatement(t, "adversarial", coordURL, singleURL, q, []int{1, 4, 10}[i%3])
		}
	})
}

// smallPair builds a 3-shard cluster and a single store over recs in
// temporary directories, for tests the shared fixture cannot serve:
// shards smaller than k, and stores a test may insert into.
func smallPair(t *testing.T, recs []table.Record) (*cluster, *core.SpatialDB) {
	t.Helper()
	root := t.TempDir()
	single, err := core.Open(core.Config{Dir: filepath.Join(root, "single")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { single.Close() })
	if err := single.IngestRecords(recs); err != nil {
		t.Fatal(err)
	}
	if err := single.BuildKdIndex(0); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "cluster")
	if _, err := BuildCluster(dir, recs, BuildParams{Shards: fixtureShards, Seed: 23}); err != nil {
		t.Fatal(err)
	}
	return startClusterAt(t, dir, Config{}, core.Config{}), single
}

// checkSmallPair runs probes at k below, around and beyond a shard's
// ~300 rows: at 400 the owner has no k-th distance, so every shard is
// visited unbounded.
func checkSmallPair(t *testing.T, label string, cl *cluster, single *core.SpatialDB, probes []vec.Point) {
	t.Helper()
	coordURL, singleURL := serveBoth(t, cl.coord, single)
	for _, k := range []int{1, 3, 10, 400} {
		checkKNNBatch(t, label, cl.coord, single, probes, k)
		for _, q := range probes[:6] {
			checkDistStatement(t, label, coordURL, singleURL, q, k)
		}
	}
}

// TestKnnEquivalenceDuplicateObjID: two physical rows under one ObjID
// are two neighbours on the single store, so they are on the cluster —
// whether the copies share a shard or not — and k beyond a shard's row
// count still returns the single store's answer.
func TestKnnEquivalenceDuplicateObjID(t *testing.T) {
	recs, err := sky.Generate(sky.DefaultParams(900, 23))
	if err != nil {
		t.Fatal(err)
	}
	// Two copies of catalog rows under their ObjIDs: one next to its
	// original, one far across magnitude space.
	near, far := recs[10], recs[20]
	near.Mags[2] += 0.01
	for d := range far.Mags {
		far.Mags[d] = 40 - far.Mags[d]
	}
	recs = append(recs, near, far)
	cl, single := smallPair(t, recs)

	rng := rand.New(rand.NewSource(23))
	probes := []vec.Point{recMags(&recs[10]), recMags(&recs[20]), recMags(&near), recMags(&far)}
	for i := 0; i < 12; i++ {
		probes = append(probes, benchProbe(rng, recs))
	}
	checkSmallPair(t, "duplicate", cl, single, probes)
}

// TestKnnEquivalenceMemtables: rows inserted through the coordinator,
// still in shard memtables, are neighbours exactly as they are on a
// single store holding the same batch in its own memtable — through
// the owner's kNN search and through a bounded visit's index scan alike —
// and stay so once every shard has compacted them into its tail.
func TestKnnEquivalenceMemtables(t *testing.T) {
	recs, err := sky.Generate(sky.DefaultParams(900, 29))
	if err != nil {
		t.Fatal(err)
	}
	cl, single := smallPair(t, recs)

	// Fresh rows next to catalog objects, so they are somebody's
	// neighbours: the same batch into the cluster (routed, one WAL per
	// shard) and into the single store.
	rng := rand.New(rand.NewSource(29))
	fresh := make([]table.Record, 90)
	var probes []vec.Point
	for i := range fresh {
		fresh[i] = recs[rng.Intn(len(recs))]
		fresh[i].ObjID = 900_000_000 + int64(i)
		if !fresh[i].HasZ {
			fresh[i].Redshift = 0 // the insert wire carries a redshift only with HasZ
		}
		for d := range fresh[i].Mags {
			fresh[i].Mags[d] += float32(rng.NormFloat64() * 0.03)
		}
		probes = append(probes, recMags(&fresh[i]))
	}
	if _, err := cl.coord.Insert(fresh); err != nil {
		t.Fatal(err)
	}
	if _, err := single.Insert(fresh); err != nil {
		t.Fatal(err)
	}
	for i, db := range cl.dbs {
		if db.MemRows() == 0 {
			t.Fatalf("shard %d memtable is empty — the insert batch did not reach it", i)
		}
	}
	for i := 0; i < 12; i++ {
		probes = append(probes, benchProbe(rng, recs))
	}
	crossing := 0
	for _, q := range probes {
		if _, others := expectedVisits(t, cl, q, 10); len(others) > 0 {
			crossing++
		}
	}
	if crossing == 0 {
		t.Fatal("no probe crosses a shard boundary — bounded visits never met a memtable")
	}
	checkSmallPair(t, "memtable", cl, single, probes)

	// ROADMAP 1(a): a minor compaction moves the rows into each shard's
	// unindexed tail, and they stay neighbours — against the single
	// store still answering from its memtable, then against its own
	// compacted tail.
	for i, db := range cl.dbs {
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		if db.MemRows() != 0 {
			t.Fatalf("shard %d memtable holds %d rows after Compact", i, db.MemRows())
		}
	}
	checkSmallPair(t, "compacted shards", cl, single, probes)
	if err := single.Compact(); err != nil {
		t.Fatal(err)
	}
	checkSmallPair(t, "compacted shards and single store", cl, single, probes)
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
