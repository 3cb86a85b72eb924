package vizhttp

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sky"
)

func newTestServer(t *testing.T) *Server {
	t.Helper()
	db, err := core.Open(core.Config{Dir: t.TempDir()})
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
	return New(db, Config{})
}

func TestHandleQuery(t *testing.T) {
	s := newTestServer(t)
	req := httptest.NewRequest("GET", "/query?where=r+%3C+16&limit=5", nil)
	w := httptest.NewRecorder()
	s.handleQuery(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var out struct {
		Plan                 string      `json:"plan"`
		PlanReason           string      `json:"planReason"`
		EstimatedSelectivity float64     `json:"estimatedSelectivity"`
		RowsReturned         int64       `json:"rowsReturned"`
		Points               []pointJSON `json:"points"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Plan != "kdtree" {
		t.Errorf("plan = %q", out.Plan)
	}
	if out.PlanReason == "" {
		t.Error("missing planReason")
	}
	if out.EstimatedSelectivity < 0 || out.EstimatedSelectivity > 1 {
		t.Errorf("estimatedSelectivity = %v", out.EstimatedSelectivity)
	}
	if int64(len(out.Points)) > out.RowsReturned || len(out.Points) > 5 {
		t.Errorf("points = %d, rowsReturned = %d", len(out.Points), out.RowsReturned)
	}
	for _, p := range out.Points {
		if p.Z >= 16 { // r is the third magnitude
			t.Errorf("point violates r < 16: %+v", p)
		}
	}
}

func TestHandleQueryValidation(t *testing.T) {
	s := newTestServer(t)
	for _, url := range []string{
		"/query",                        // missing where
		"/query?where=r+%3C",            // parse error
		"/query?where=r+%3C+16&limit=x", // bad limit
	} {
		req := httptest.NewRequest("GET", url, nil)
		w := httptest.NewRecorder()
		s.handleQuery(w, req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, w.Code)
		}
	}
}

func TestHandlePoints(t *testing.T) {
	s := newTestServer(t)
	req := httptest.NewRequest("GET", "/points?min=10,10,10&max=30,30,30&n=100", nil)
	w := httptest.NewRecorder()
	s.handlePoints(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var out struct {
		Count  int         `json:"count"`
		Points []pointJSON `json:"points"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 100 || len(out.Points) != 100 {
		t.Fatalf("count = %d, points = %d", out.Count, len(out.Points))
	}
	for _, p := range out.Points {
		if p.X < 10 || p.X > 30 || p.Y < 10 || p.Y > 30 || p.Z < 10 || p.Z > 30 {
			t.Fatalf("point outside requested box: %+v", p)
		}
		if p.Class == "" {
			t.Fatal("missing class")
		}
	}
}

func TestHandlePointsValidation(t *testing.T) {
	s := newTestServer(t)
	bad := []string{
		"/points?min=1,2&max=3,4,5",       // 2-D min
		"/points?min=1,2,x&max=3,4,5",     // bad number
		"/points?min=5,5,5&max=1,1,1",     // inverted
		"/points?min=1,1,1&max=2,2,2&n=0", // bad n
		// ParseFloat accepts these spellings, and NaN additionally
		// defeats the inverted-box guard (min > max is false for NaN):
		// all must be 400s, not NaN view boxes driven into grid.Sample.
		"/points?min=NaN,NaN,NaN&max=3,4,5",
		"/points?min=1,2,nan&max=3,4,5",
		"/points?min=1,2,3&max=4,5,NaN",
		"/points?min=-Inf,2,3&max=4,5,6",
		"/points?min=1,2,3&max=4,5,%2BInf",
		"/points?min=1,2,3&max=4,5,Infinity",
	}
	for _, url := range bad {
		req := httptest.NewRequest("GET", url, nil)
		w := httptest.NewRecorder()
		s.handlePoints(w, req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, w.Code)
		}
	}
}

// TestHandleRenderRejectsNonFiniteBox pins the same hardening on the
// second parseView consumer.
func TestHandleRenderRejectsNonFiniteBox(t *testing.T) {
	s := newTestServer(t)
	req := httptest.NewRequest("GET", "/render?min=NaN,NaN,NaN&max=30,30,30", nil)
	w := httptest.NewRecorder()
	s.handleRender(w, req)
	if w.Code != http.StatusBadRequest {
		t.Errorf("render with NaN box: status %d, want 400", w.Code)
	}
}

func TestHandleRender(t *testing.T) {
	s := newTestServer(t)
	req := httptest.NewRequest("GET", "/render?min=10,10,10&max=30,30,30&n=500", nil)
	w := httptest.NewRecorder()
	s.handleRender(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	body := w.Body.String()
	if !strings.Contains(body, "points in") {
		t.Error("missing header line")
	}
	if strings.Count(body, "\n") < 30 {
		t.Errorf("render too short: %d lines", strings.Count(body, "\n"))
	}
}

func TestHandleStats(t *testing.T) {
	s := newTestServer(t)
	// Serve one points request first.
	req := httptest.NewRequest("GET", "/points?min=10,10,10&max=30,30,30&n=50", nil)
	s.handlePoints(httptest.NewRecorder(), req)

	w := httptest.NewRecorder()
	s.handleStats(w, httptest.NewRequest("GET", "/stats", nil))
	var out map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out["requests"].(float64) != 1 {
		t.Errorf("requests = %v", out["requests"])
	}
	if out["pointsReturned"].(float64) != 50 {
		t.Errorf("pointsReturned = %v", out["pointsReturned"])
	}
}

func TestHandleKnn(t *testing.T) {
	s := newTestServer(t)
	body := `{"points": [[18.2,17.9,17.7,17.6,17.5],[20.1,19.5,19.2,19.0,18.9]], "k": 5}`
	req := httptest.NewRequest("POST", "/knn", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.handleKnn(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var out struct {
		K          int    `json:"k"`
		Queries    int    `json:"queries"`
		Plan       string `json:"plan"`
		PlanReason string `json:"planReason"`
		Results    []struct {
			Neighbors []struct {
				ObjID int64      `json:"objId"`
				Mags  [5]float64 `json:"mags"`
				Class string     `json:"class"`
			} `json:"neighbors"`
			LeavesExamined int64 `json:"leavesExamined"`
			RowsExamined   int64 `json:"rowsExamined"`
		} `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.K != 5 || out.Queries != 2 || len(out.Results) != 2 {
		t.Fatalf("k=%d queries=%d results=%d", out.K, out.Queries, len(out.Results))
	}
	if out.Plan != "kdtree" || out.PlanReason == "" {
		t.Errorf("plan %q reason %q", out.Plan, out.PlanReason)
	}
	for i, res := range out.Results {
		if len(res.Neighbors) != 5 {
			t.Errorf("query %d returned %d neighbours", i, len(res.Neighbors))
		}
		if res.LeavesExamined < 1 || res.RowsExamined < 5 {
			t.Errorf("query %d cost report empty: %+v", i, res)
		}
		for j, nb := range res.Neighbors {
			if nb.Class == "" || nb.Mags == [5]float64{} {
				t.Errorf("query %d neighbour %d missing identity/magnitudes: %+v", i, j, nb)
			}
		}
	}
}

func TestHandleKnnValidation(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		method, body string
		want         int
	}{
		{"GET", "", http.StatusMethodNotAllowed},
		{"POST", "{not json", http.StatusBadRequest},
		{"POST", `{"points": []}`, http.StatusBadRequest},
		{"POST", `{"points": [[1,2]], "k": 3}`, http.StatusBadRequest},
		{"POST", `{"points": [[1,2,3,4,5]], "k": -1}`, http.StatusBadRequest},
		// Oversized body must be rejected by the 4 MiB cap, not decoded.
		{"POST", `{"points": [[` + strings.Repeat("1,", 5<<20) + `1]]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		req := httptest.NewRequest(c.method, "/knn", strings.NewReader(c.body))
		w := httptest.NewRecorder()
		s.handleKnn(w, req)
		if w.Code != c.want {
			t.Errorf("%s %q: status %d, want %d", c.method, c.body, w.Code, c.want)
		}
	}
}

func TestHandlePhotoz(t *testing.T) {
	s := newTestServer(t)
	req := httptest.NewRequest("GET", "/photoz?mags=18.2,17.9,17.7,17.6,17.5&mags=20.1,19.5,19.2,19.0,18.9", nil)
	w := httptest.NewRecorder()
	s.handlePhotoz(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var out struct {
		Redshifts    []float64 `json:"redshifts"`
		Queries      int       `json:"queries"`
		FitFallbacks int64     `json:"fitFallbacks"`
		RowsExamined int64     `json:"rowsExamined"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Queries != 2 || len(out.Redshifts) != 2 {
		t.Fatalf("queries=%d redshifts=%d", out.Queries, len(out.Redshifts))
	}
	for i, z := range out.Redshifts {
		if z < 0 || z > 10 {
			t.Errorf("redshift %d = %v out of range", i, z)
		}
	}
	if out.RowsExamined < 1 {
		t.Error("photo-z cost report empty")
	}

	// The /stats endpoint must surface the photo-z and knn counters.
	// They are the server's: a full compaction, which rebuilds the
	// estimator, keeps them.
	if err := s.coreDB().CompactFull(); err != nil {
		t.Fatal(err)
	}
	sw := httptest.NewRecorder()
	s.handleStats(sw, httptest.NewRequest("GET", "/stats", nil))
	var stats map[string]any
	if err := json.Unmarshal(sw.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats["photozEstimates"].(float64) != 2 {
		t.Errorf("photozEstimates = %v, want 2", stats["photozEstimates"])
	}
	for _, key := range []string{"knnQueries", "knnLeavesExamined", "knnRowsExamined", "photozFitFallbacks"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("/stats missing %s", key)
		}
	}
}

func TestHandlePhotozValidation(t *testing.T) {
	s := newTestServer(t)
	for _, url := range []string{
		"/photoz",                       // missing mags
		"/photoz?mags=1,2,3",            // wrong arity
		"/photoz?mags=1,2,3,4,x",        // bad number
		"/photoz?mags=NaN,1,2,3,4",      // non-finite query
		"/photoz?mags=1,2,3,4,%2BInf",   // +Inf
		"/photoz?mags=17,17,17,17,-Inf", // -Inf
	} {
		req := httptest.NewRequest("GET", url, nil)
		w := httptest.NewRecorder()
		s.handlePhotoz(w, req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, w.Code)
		}
	}
}
