package repro

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/knn"
	"repro/internal/loadgen"
	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vec"
	"repro/internal/vizhttp"
)

// TestEndToEndSystem drives the full Figure 3 stack through the
// public facade: ingest, the serving indexes, queries under every
// plan, kNN, adaptive sampling, photo-z — one scenario touching
// every subsystem together.
func TestEndToEndSystem(t *testing.T) {
	db, err := core.Open(core.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	params := sky.DefaultParams(20_000, 42)
	params.SpectroFrac = 0.15
	if err := db.IngestSynthetic(params); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildKdIndex(0); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildGridIndex(512, 7); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildPhotoZ(16, 1); err != nil {
		t.Fatal(err)
	}

	// The Figure 2 logged query, all plans agreeing.
	where := `
	  (dered_r - dered_i - (dered_g - dered_r)/4 - 0.18 < 0.2)
	  AND (dered_r - dered_i - (dered_g - dered_r)/4 - 0.18 > -0.2)
	  AND (dered_r < 21)`
	var results [][]int64
	ranAs := map[core.Plan]core.Plan{core.PlanFullScan: core.PlanFullScan, core.PlanAuto: core.PlanKdTree}
	for _, plan := range []core.Plan{core.PlanFullScan, core.PlanAuto} {
		recs, rep, err := db.QueryWhere(where, plan)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Plan != ranAs[plan] {
			t.Errorf("requested %v, report says %v", plan, rep.Plan)
		}
		ids := make([]int64, len(recs))
		for i := range recs {
			ids[i] = recs[i].ObjID
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		results = append(results, ids)
	}
	if len(results[0]) == 0 {
		t.Fatal("figure 2 query returned nothing")
	}
	for p := 1; p < len(results); p++ {
		if len(results[p]) != len(results[0]) {
			t.Fatalf("plan %d returned %d rows, scan %d", p, len(results[p]), len(results[0]))
		}
		for i := range results[0] {
			if results[p][i] != results[0][i] {
				t.Fatalf("plan %d row mismatch at %d", p, i)
			}
		}
	}

	// kNN of a galaxy color returns galaxy-dominated neighbourhoods.
	nbs, _, err := db.NearestNeighbors(sky.GalaxyColors(0.12, 18.5), 10)
	if err != nil {
		t.Fatal(err)
	}
	galaxies := 0
	for _, nb := range nbs {
		if nb.Class == table.Galaxy {
			galaxies++
		}
	}
	if galaxies < 7 {
		t.Errorf("only %d/10 neighbours of a galaxy color are galaxies", galaxies)
	}

	// Adaptive sampling respects the box and the budget.
	dom3 := vec.NewBox(db.Domain().Min[:3], db.Domain().Max[:3])
	sample, _, err := db.SampleRegion(dom3, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(sample) != 500 {
		t.Errorf("sampled %d points, want 500", len(sample))
	}

	// Photo-z on a clean galaxy color.
	z, err := db.EstimateRedshift(sky.GalaxyColors(0.2, 18))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z-0.2) > 0.08 {
		t.Errorf("photo-z = %v, want ~0.2", z)
	}
}

// buildPersistedDB builds a small catalog with every serving index
// into dir and persists it, then closes — the sdssgen side of the
// build-once / serve-many lifecycle.
func buildPersistedDB(t *testing.T, dir string, rows int) {
	t.Helper()
	db, err := core.Open(core.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.IngestSynthetic(sky.DefaultParams(rows, 42)); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildGridIndex(512, 7); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildKdIndex(0); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildPhotoZ(16, 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// serveColdOpen cold-opens the persisted directory and mounts the
// real vizhttp mux on an httptest server, exactly what `vizserver
// -dir` serves.
func serveColdOpen(t *testing.T, cfg core.Config) *httptest.Server {
	t.Helper()
	db, err := core.OpenExisting(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	ts := httptest.NewServer(vizhttp.New(db, vizhttp.Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// TestServingNDJSONAgainstColdOpen is the former CI shell smoke as a
// race-detectable test: cold-open a persisted database, stream a
// color-cut query as NDJSON, and check the stream's shape against the
// legacy JSON endpoint — first line a row object, last line a
// summary, row count identical.
func TestServingNDJSONAgainstColdOpen(t *testing.T) {
	dir := t.TempDir()
	buildPersistedDB(t, dir, 20_000)
	ts := serveColdOpen(t, core.Config{Dir: dir})

	var legacy struct {
		RowsReturned int64 `json:"rowsReturned"`
	}
	legacyURL := ts.URL + "/query?where=" + url.QueryEscape("g - r > 0.4 AND r < 19") + "&limit=1000000"
	if err := json.Unmarshal([]byte(httpGet(t, legacyURL)), &legacy); err != nil {
		t.Fatal(err)
	}
	if legacy.RowsReturned == 0 {
		t.Fatal("legacy query returned nothing")
	}

	ndURL := ts.URL + "/query?format=ndjson&q=" + url.QueryEscape("SELECT objid, g, r WHERE g - r > 0.4 AND r < 19")
	lines := strings.Split(strings.TrimSuffix(httpGet(t, ndURL), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("ndjson stream has %d lines", len(lines))
	}
	if !strings.Contains(lines[0], `"objid"`) {
		t.Errorf("first ndjson line is not a row: %q", lines[0])
	}
	if !strings.Contains(lines[len(lines)-1], `"summary"`) {
		t.Errorf("last ndjson line is not the summary: %q", lines[len(lines)-1])
	}
	if rows := int64(len(lines) - 1); rows != legacy.RowsReturned {
		t.Errorf("ndjson rows %d != legacy rowsReturned %d", rows, legacy.RowsReturned)
	}

	// Top-k ORDER BY through the same stream.
	topkURL := ts.URL + "/query?format=ndjson&q=" + url.QueryEscape("SELECT * ORDER BY dist(19.5,18.9,18.2,17.9,17.7) LIMIT 5")
	topk := strings.Split(strings.TrimSuffix(httpGet(t, topkURL), "\n"), "\n")
	if len(topk) != 6 {
		t.Errorf("top-5 stream has %d lines, want 5 rows + summary", len(topk))
	}
	if !strings.Contains(topk[0], `"class"`) {
		t.Errorf("top-k first line missing class: %q", topk[0])
	}
}

// TestServingColdOpenDeterministic: fresh cold opens of the same
// persisted directory serve byte-identical query responses, summaries
// included — the serve-many half of the lifecycle, formerly asserted by
// diffing spatialq output in CI shell. The query is an ordered LIMIT,
// whose scan is pruned by the k-th key while it tightens; a statement
// runs on one goroutine, so every counter is a function of the
// statement and the data, however many cores the process may use.
func TestServingColdOpenDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	dir := t.TempDir()
	buildPersistedDB(t, dir, 20_000)

	query := "/query?q=" + url.QueryEscape("SELECT objid, g, r WHERE g - r > 0.4 AND r < 19 ORDER BY r LIMIT 500")
	knnBody := `{"points": [[19.5,18.9,18.2,17.9,17.7]], "k": 5}`
	serve := func() (string, string) {
		ts := serveColdOpen(t, core.Config{Dir: dir})
		resp, err := http.Post(ts.URL+"/knn", "application/json", strings.NewReader(knnBody))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		knnOut, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("knn: status %d: %s", resp.StatusCode, knnOut)
		}
		return httpGet(t, ts.URL+query), string(knnOut)
	}
	q0, k0 := serve()
	for i := 1; i < 5; i++ {
		q, k := serve()
		if q != q0 {
			t.Errorf("cold open %d served a different query response", i)
		}
		if k != k0 {
			t.Errorf("cold open %d served a different knn response", i)
		}
	}
}

// TestServingUnderLoadgenBurst closes the loop tentpole-to-harness: a
// short open-loop T5 burst against a cold-opened in-process server
// must complete with zero transport/5xx errors and clean accounting.
// Structural assertions only — no wall-clock latency expectations.
func TestServingUnderLoadgenBurst(t *testing.T) {
	dir := t.TempDir()
	buildPersistedDB(t, dir, 20_000)
	ts := serveColdOpen(t, core.Config{Dir: dir})

	mix, ok := loadgen.MixByName("t5")
	if !ok {
		t.Fatal("t5 mix missing")
	}
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:     ts.URL,
		Rate:        300,
		Duration:    200 * time.Millisecond,
		MaxInFlight: 128,
		Seed:        42,
	}, mix)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Errorf("%d errors during burst: %+v", res.Errors, res)
	}
	if res.Completed == 0 {
		t.Error("burst completed zero requests")
	}
	if res.Sent != res.Completed+res.Shed+res.Errors+res.Dropped {
		t.Errorf("accounting leak: %+v", res)
	}
	if res.Latency.Count != res.Completed {
		t.Errorf("histogram count %d != completed %d", res.Latency.Count, res.Completed)
	}
}

// TestColdRestart verifies the offline-artifact story: catalog,
// clustered index table and kd-tree persist on the store, and a fresh
// process (new store, cold cache) serves identical queries from them.
func TestColdRestart(t *testing.T) {
	dir := t.TempDir()

	var want []table.Record
	q := vec.BoxPolyhedron(vec.NewBox(
		vec.Point{16, 16, 15, 15, 14}, vec.Point{21, 20, 19, 19, 18}))

	// Session 1: build everything and persist.
	{
		db, err := core.Open(core.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.IngestSynthetic(sky.DefaultParams(10_000, 42)); err != nil {
			t.Fatal(err)
		}
		if err := db.BuildKdIndex(0); err != nil {
			t.Fatal(err)
		}
		if want, _, err = db.QueryPolyhedron(q, core.PlanAuto); err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatal("query returned nothing")
		}
		if err := db.Persist(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Session 2: reopen cold and replay.
	{
		db, err := core.OpenExisting(core.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		got, rep, err := db.QueryPolyhedron(q, core.PlanAuto)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("restart query returned %d rows, want the %d rows before it", len(got), len(want))
		}
		if rep.DiskReads == 0 {
			t.Error("cold restart should have read pages from disk")
		}
		// kNN also works against the reloaded pair.
		clustered, err := db.Catalog()
		if err != nil {
			t.Fatal(err)
		}
		searcher := knn.NewSearcher(db.KdTree(), clustered)
		var rec table.Record
		clustered.Get(5, &rec)
		nbs, _, err := searcher.Search(rec.Point(), 3)
		if err != nil {
			t.Fatal(err)
		}
		if nbs[0].Dist2 != 0 {
			t.Error("reloaded kNN lost exactness")
		}
	}
}
