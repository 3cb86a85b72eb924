package vizhttp

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/qcache"
	"repro/internal/sky"
)

// newCacheTestServer builds a server over a database with the tier-2
// result cache enabled (tier 1 is always on).
func newCacheTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	db, err := core.Open(core.Config{Dir: t.TempDir(), ResultCacheBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.IngestSynthetic(sky.DefaultParams(5000, 42)); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildGridIndex(256, 7); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildKdIndex(0); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildPhotoZ(16, 1); err != nil {
		t.Fatal(err)
	}
	return New(db, cfg)
}

// TestQueryRepeatByteIdenticalAndFlagged: the second identical /query
// is served from the result cache — X-Cache flips miss→hit, the
// fromCache report field flips, the I/O counters are zero, and the
// rows are byte-identical to the uncached answer.
func TestQueryRepeatByteIdenticalAndFlagged(t *testing.T) {
	s := newCacheTestServer(t, Config{})
	target := "/query?q=" + url.QueryEscape("SELECT objid, r WHERE r < 16 LIMIT 20")

	first := get(t, s, target)
	if first.Code != http.StatusOK {
		t.Fatalf("first: status %d: %s", first.Code, first.Body)
	}
	if xc := first.Header().Get("X-Cache"); xc != "miss" {
		t.Errorf("first X-Cache = %q, want miss", xc)
	}
	second := get(t, s, target)
	if second.Code != http.StatusOK {
		t.Fatalf("second: status %d: %s", second.Code, second.Body)
	}
	if xc := second.Header().Get("X-Cache"); xc != "hit" {
		t.Errorf("second X-Cache = %q, want hit", xc)
	}

	type resp struct {
		FromCache    bool              `json:"fromCache"`
		RowsReturned int64             `json:"rowsReturned"`
		RowsExamined int64             `json:"rowsExamined"`
		DiskReads    int64             `json:"diskReads"`
		PagesScanned int64             `json:"pagesScanned"`
		Rows         []json.RawMessage `json:"rows"`
	}
	var a, b resp
	if err := json.Unmarshal(first.Body.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if a.FromCache {
		t.Error("first response claims fromCache")
	}
	if !b.FromCache {
		t.Error("second response not fromCache")
	}
	if b.RowsExamined != 0 || b.DiskReads != 0 || b.PagesScanned != 0 {
		t.Errorf("cached response reports I/O: examined=%d reads=%d scanned=%d",
			b.RowsExamined, b.DiskReads, b.PagesScanned)
	}
	if a.RowsReturned != b.RowsReturned || len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts differ: %d/%d vs %d/%d", a.RowsReturned, len(a.Rows), b.RowsReturned, len(b.Rows))
	}
	for i := range a.Rows {
		if string(a.Rows[i]) != string(b.Rows[i]) {
			t.Fatalf("row %d differs:\nuncached %s\ncached   %s", i, a.Rows[i], b.Rows[i])
		}
	}
}

// TestQueryCacheHitNeverShed: with every execution slot held and no
// queue, a statement whose answer is cached is still served 200 (the
// probe runs before admission), while an uncached statement sheds 429.
func TestQueryCacheHitNeverShed(t *testing.T) {
	s := newCacheTestServer(t, Config{MaxConcurrent: 2, MaxQueue: -1, QueueTimeout: time.Second})
	target := "/query?q=" + url.QueryEscape("SELECT objid WHERE r < 16 LIMIT 10")
	if w := get(t, s, target); w.Code != http.StatusOK {
		t.Fatalf("warm: status %d: %s", w.Code, w.Body)
	}

	lim := s.Limiter("query")
	r1, err := lim.Admit(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := lim.Admit(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r1()
	defer r2()

	w := get(t, s, target)
	if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "hit" {
		t.Fatalf("cached statement under saturation: status %d X-Cache %q, want 200 hit (body %q)",
			w.Code, w.Header().Get("X-Cache"), w.Body)
	}
	if w := get(t, s, "/query?q="+url.QueryEscape("SELECT objid WHERE g < 17 LIMIT 10")); w.Code != http.StatusTooManyRequests {
		t.Fatalf("uncached statement under saturation: status %d, want 429", w.Code)
	}
}

// TestRepeatedStatementEstimatedOnce pins the admission-pricing fix:
// N requests for the same statement run exactly one planner
// estimation pass (one tier-1 plan build); the rest are plan-cache
// hits. This holds even with the result cache disabled — tier 1 is
// always on.
func TestRepeatedStatementEstimatedOnce(t *testing.T) {
	s := newQoSTestServer(t, Config{})
	target := "/query?q=" + url.QueryEscape("SELECT objid WHERE r < 16 LIMIT 10")
	const n = 5
	for i := 0; i < n; i++ {
		if w := get(t, s, target); w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, w.Code, w.Body)
		}
	}
	plan := s.coreDB().Cache().StatsFor("plan")
	if plan.PlanBuilds != 1 {
		t.Errorf("plan builds = %d after %d identical requests, want 1", plan.PlanBuilds, n)
	}
	// Each request prices admission AND plans execution off the same
	// entry: at least 2n-1 hits.
	if plan.PlanHits < 2*n-1 {
		t.Errorf("plan hits = %d, want >= %d", plan.PlanHits, 2*n-1)
	}
}

// TestKnnAndPhotozCachedRepeat: repeated single-point kNN probes and
// small photo-z batches flip to X-Cache: hit with zero reported I/O.
func TestKnnAndPhotozCachedRepeat(t *testing.T) {
	s := newCacheTestServer(t, Config{})
	h := s.Handler()

	postKnn := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/knn", strings.NewReader(`{"points": [[18,17,17,16,16]], "k": 5}`)))
		return w
	}
	first, second := postKnn(), postKnn()
	if first.Code != 200 || second.Code != 200 {
		t.Fatalf("knn statuses %d, %d", first.Code, second.Code)
	}
	if first.Header().Get("X-Cache") != "miss" || second.Header().Get("X-Cache") != "hit" {
		t.Errorf("knn X-Cache = %q then %q, want miss then hit",
			first.Header().Get("X-Cache"), second.Header().Get("X-Cache"))
	}
	var kr struct {
		FromCache bool `json:"fromCache"`
		Results   []struct {
			Neighbors    []json.RawMessage `json:"neighbors"`
			RowsExamined int64             `json:"rowsExamined"`
			DiskReads    int64             `json:"diskReads"`
		} `json:"results"`
	}
	if err := json.Unmarshal(second.Body.Bytes(), &kr); err != nil {
		t.Fatal(err)
	}
	if !kr.FromCache || len(kr.Results) != 1 || len(kr.Results[0].Neighbors) != 5 {
		t.Errorf("cached knn response: fromCache=%v results=%+v", kr.FromCache, kr.Results)
	}
	if kr.Results[0].RowsExamined != 0 || kr.Results[0].DiskReads != 0 {
		t.Errorf("cached knn reports I/O: %+v", kr.Results[0])
	}

	pz1 := get(t, s, "/photoz?mags=18,17,17,16,16")
	pz2 := get(t, s, "/photoz?mags=18,17,17,16,16")
	if pz1.Code != 200 || pz2.Code != 200 {
		t.Fatalf("photoz statuses %d, %d", pz1.Code, pz2.Code)
	}
	if pz1.Header().Get("X-Cache") != "miss" || pz2.Header().Get("X-Cache") != "hit" {
		t.Errorf("photoz X-Cache = %q then %q, want miss then hit",
			pz1.Header().Get("X-Cache"), pz2.Header().Get("X-Cache"))
	}
	if pz1.Body.Len() == 0 || !strings.Contains(pz2.Body.String(), "\"fromCache\":true") {
		t.Errorf("cached photoz body: %s", pz2.Body)
	}
	var za, zb struct {
		Redshifts []float64 `json:"redshifts"`
	}
	if err := json.Unmarshal(pz1.Body.Bytes(), &za); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(pz2.Body.Bytes(), &zb); err != nil {
		t.Fatal(err)
	}
	if len(za.Redshifts) != len(zb.Redshifts) {
		t.Fatalf("redshift counts differ: %d vs %d", len(za.Redshifts), len(zb.Redshifts))
	}
	for i := range za.Redshifts {
		if za.Redshifts[i] != zb.Redshifts[i] {
			t.Errorf("redshift %d differs: %v vs %v", i, za.Redshifts[i], zb.Redshifts[i])
		}
	}
	// The cache-served repeat computed no estimate.
	var stats struct {
		PhotozEstimates int64 `json:"photozEstimates"`
	}
	if err := json.Unmarshal(get(t, s, "/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.PhotozEstimates != 1 {
		t.Errorf("photozEstimates = %d after one computed and one cached answer, want 1", stats.PhotozEstimates)
	}
}

// TestKnnProbeIsItsStatement: a one-point /knn is the statement
// SELECT * ORDER BY dist(p) LIMIT k, so in either order the second
// request is served from the first's result-cache entry: one entry,
// the same neighbours, counted under the query namespace.
func TestKnnProbeIsItsStatement(t *testing.T) {
	const stmt = "SELECT * ORDER BY dist(18, 17.5, 17, 16.5, 16) LIMIT 5"
	knn := func(s *Server) ([]int64, *httptest.ResponseRecorder) {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/knn", strings.NewReader(`{"points": [[18,17.5,17,16.5,16]], "k": 5}`)))
		var out struct {
			Results []struct {
				Neighbors []struct {
					ObjID int64 `json:"objId"`
				} `json:"neighbors"`
			} `json:"results"`
		}
		var ids []int64
		if json.Unmarshal(w.Body.Bytes(), &out) == nil && len(out.Results) == 1 {
			for _, n := range out.Results[0].Neighbors {
				ids = append(ids, n.ObjID)
			}
		}
		return ids, w
	}
	query := func(s *Server) ([]int64, *httptest.ResponseRecorder) {
		w := get(t, s, "/query?q="+url.QueryEscape(stmt))
		var out struct {
			Rows []struct {
				ObjID int64 `json:"objid"`
			} `json:"rows"`
		}
		var ids []int64
		if json.Unmarshal(w.Body.Bytes(), &out) == nil {
			for _, r := range out.Rows {
				ids = append(ids, r.ObjID)
			}
		}
		return ids, w
	}
	type request func(*Server) ([]int64, *httptest.ResponseRecorder)
	for _, order := range []struct {
		name          string
		first, second request
	}{{"knn then query", knn, query}, {"query then knn", query, knn}} {
		s := newCacheTestServer(t, Config{})
		idsA, a := order.first(s)
		idsB, b := order.second(s)
		if a.Code != http.StatusOK || b.Code != http.StatusOK {
			t.Fatalf("%s: statuses %d, %d", order.name, a.Code, b.Code)
		}
		if xa, xb := a.Header().Get("X-Cache"), b.Header().Get("X-Cache"); xa != "miss" || xb != "hit" {
			t.Errorf("%s: X-Cache %q then %q, want miss then hit", order.name, xa, xb)
		}
		if len(idsA) != 5 || !slices.Equal(idsA, idsB) {
			t.Errorf("%s: neighbours %v then %v", order.name, idsA, idsB)
		}
		st := s.coreDB().CacheStatsSnapshot()
		if st.ResultEntries != 1 {
			t.Errorf("%s: %d result-cache entries, want 1", order.name, st.ResultEntries)
		}
		if q := st.Namespaces["query"]; q.Hits != 1 || q.Misses != 1 {
			t.Errorf("%s: query namespace %+v, want 1 hit 1 miss", order.name, q)
		}
	}
}

// TestNDJSONCachedSummary: a cached statement served as NDJSON
// carries fromCache in the summary line and reports zero I/O.
func TestNDJSONCachedSummary(t *testing.T) {
	s := newCacheTestServer(t, Config{})
	target := "/query?format=ndjson&q=" + url.QueryEscape("SELECT objid WHERE r < 16 LIMIT 5")
	if w := get(t, s, target); w.Code != http.StatusOK {
		t.Fatalf("warm: status %d: %s", w.Code, w.Body)
	}
	w := get(t, s, target)
	if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "hit" {
		t.Fatalf("status %d X-Cache %q, want 200 hit", w.Code, w.Header().Get("X-Cache"))
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	var last struct {
		Summary struct {
			FromCache bool  `json:"fromCache"`
			DiskReads int64 `json:"diskReads"`
			Rows      int64 `json:"rowsReturned"`
		} `json:"summary"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("summary line %q: %v", lines[len(lines)-1], err)
	}
	if !last.Summary.FromCache || last.Summary.DiskReads != 0 {
		t.Errorf("cached NDJSON summary = %+v", last.Summary)
	}
	if int64(len(lines)-1) != last.Summary.Rows {
		t.Errorf("streamed %d rows, summary says %d", len(lines)-1, last.Summary.Rows)
	}
}

// TestStatsExposesCacheCounters: /stats carries the per-namespace
// qcache counters and the served-from-cache total.
func TestStatsExposesCacheCounters(t *testing.T) {
	s := newCacheTestServer(t, Config{})
	target := "/query?q=" + url.QueryEscape("SELECT objid WHERE r < 16 LIMIT 10")
	get(t, s, target)
	get(t, s, target)

	var stats struct {
		CacheServed int64 `json:"cacheServed"`
		Qcache      struct {
			ResultBytes   int64                      `json:"resultBytes"`
			ResultEntries int                        `json:"resultEntries"`
			BudgetBytes   int64                      `json:"budgetBytes"`
			Namespaces    map[string]qcache.Counters `json:"namespaces"`
		} `json:"qcache"`
	}
	if err := json.Unmarshal(get(t, s, "/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.CacheServed != 1 {
		t.Errorf("cacheServed = %d, want 1", stats.CacheServed)
	}
	q := stats.Qcache.Namespaces["query"]
	if q.Hits != 1 || q.Misses != 1 {
		t.Errorf("qcache.namespaces.query = %+v, want 1 hit 1 miss", q)
	}
	if stats.Qcache.ResultEntries < 1 || stats.Qcache.ResultBytes < 1 {
		t.Errorf("qcache size: entries=%d bytes=%d, want cached entry visible",
			stats.Qcache.ResultEntries, stats.Qcache.ResultBytes)
	}
	if stats.Qcache.BudgetBytes != 4<<20 {
		t.Errorf("budgetBytes = %d, want %d", stats.Qcache.BudgetBytes, int64(4<<20))
	}
}

// TestEmptyCutRepeatServedBeforeAdmission: a provably empty cut with a
// LIMIT is one ordinary result-cache entry, so its repeat keeps the
// probe contract every cached answer keeps — tagged X-Cache: hit,
// counted in /stats cacheServed, and never admitted.
func TestEmptyCutRepeatServedBeforeAdmission(t *testing.T) {
	s := newCacheTestServer(t, Config{})
	target := "/query?q=" + url.QueryEscape("SELECT objid, g, r WHERE r < 5 LIMIT 100")
	cacheServed := func() int64 {
		var stats struct {
			CacheServed int64 `json:"cacheServed"`
		}
		if err := json.Unmarshal(get(t, s, "/stats").Body.Bytes(), &stats); err != nil {
			t.Fatal(err)
		}
		return stats.CacheServed
	}
	lim := s.Limiter("query")

	first := get(t, s, target)
	if first.Code != http.StatusOK || first.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first: status %d X-Cache %q, want 200 miss", first.Code, first.Header().Get("X-Cache"))
	}
	served, admitted := cacheServed(), lim.Counters().Admitted

	repeat := get(t, s, target)
	if repeat.Code != http.StatusOK || repeat.Header().Get("X-Cache") != "hit" {
		t.Fatalf("repeat: status %d X-Cache %q, want 200 hit", repeat.Code, repeat.Header().Get("X-Cache"))
	}
	if got := cacheServed() - served; got != 1 {
		t.Errorf("repeat added %d to cacheServed, want 1", got)
	}
	if got := lim.Counters().Admitted - admitted; got != 0 {
		t.Errorf("repeat was admitted %d times, want 0", got)
	}
	var body struct {
		RowsReturned int64             `json:"rowsReturned"`
		Rows         []json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(repeat.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.RowsReturned != 0 || len(body.Rows) != 0 {
		t.Errorf("repeat returned %d rows (%d in the body), want none", body.RowsReturned, len(body.Rows))
	}
}
