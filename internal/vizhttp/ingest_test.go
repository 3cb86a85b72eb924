package vizhttp

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sky"
	"repro/internal/table"
)

func postInsert(t *testing.T, s *Server, contentType, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/insert", strings.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	w := httptest.NewRecorder()
	s.handleInsert(w, req)
	return w
}

func TestHandleInsertJSON(t *testing.T) {
	s := newTestServer(t)
	before := s.coreDB().MemRows()
	body := `{"rows":[
		{"objId":9000000001,"mags":[18,17.5,17.2,17,16.9],"ra":120.5,"dec":-5.25,"class":"galaxy"},
		{"objId":9000000002,"mags":[19,18.5,18.2,18,17.9],"redshift":0.12}
	]}`
	w := postInsert(t, s, "application/json", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	// The acknowledgement is the batch and its WAL sequence, nothing
	// else; the memtable size is a /stats fact.
	var out map[string]float64
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out["inserted"] != 2 || out["seq"] == 0 {
		t.Errorf("acknowledgement = %s, want inserted 2 and a WAL sequence", w.Body)
	}
	if got := s.coreDB().MemRows(); got != before+2 {
		t.Errorf("MemRows = %d, want %d", got, before+2)
	}
	if s.inserts.Load() != 1 || s.insertedRows.Load() != 2 {
		t.Errorf("counters: inserts=%d insertedRows=%d", s.inserts.Load(), s.insertedRows.Load())
	}
}

func TestHandleInsertStatement(t *testing.T) {
	s := newTestServer(t)
	before := s.coreDB().MemRows()
	w := postInsert(t, s, "", "INSERT INTO catalog VALUES (9000000003, 19, 18, 17, 16, 15), (9000000004, 20, 19, 18, 17, 16, 210.5, -12.25, 0.3, quasar)")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if got := s.coreDB().MemRows(); got != before+2 {
		t.Errorf("MemRows = %d, want %d", got, before+2)
	}
}

func TestHandleInsertRejects(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		name, method, contentType, body string
		want                            int
	}{
		{"GET", "GET", "", "", http.StatusMethodNotAllowed},
		{"bad JSON", "POST", "application/json", "{", http.StatusBadRequest},
		{"empty rows", "POST", "application/json", `{"rows":[]}`, http.StatusBadRequest},
		{"wrong mags arity", "POST", "application/json", `{"rows":[{"objId":1,"mags":[18,17.5]}]}`, http.StatusBadRequest},
		{"unknown class", "POST", "application/json", `{"rows":[{"objId":1,"mags":[18,17.5,17.2,17,16.9],"class":"nebula"}]}`, http.StatusBadRequest},
		{"not an insert", "POST", "", "SELECT objid WHERE r < 18", http.StatusBadRequest},
		{"wrong table", "POST", "", "INSERT INTO stars VALUES (1, 19, 18, 17, 16, 15)", http.StatusBadRequest},
	}
	before := s.coreDB().MemRows()
	for _, c := range cases {
		req := httptest.NewRequest(c.method, "/insert", strings.NewReader(c.body))
		if c.contentType != "" {
			req.Header.Set("Content-Type", c.contentType)
		}
		w := httptest.NewRecorder()
		s.handleInsert(w, req)
		if w.Code != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, w.Code, c.want, w.Body)
		}
	}
	if got := s.coreDB().MemRows(); got != before {
		t.Errorf("rejected requests changed MemRows: %d -> %d", before, got)
	}
}

func TestHandleSky(t *testing.T) {
	s := newTestServer(t)
	// A box covering the whole sphere returns up to the default limit.
	req := httptest.NewRequest("GET", "/sky?ra=0,360&dec=-90,90", nil)
	w := httptest.NewRecorder()
	s.handleSky(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var out struct {
		Count  int `json:"count"`
		Points []struct {
			ObjID int64   `json:"objId"`
			Ra    float32 `json:"ra"`
			Dec   float32 `json:"dec"`
		} `json:"points"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Count == 0 || out.Count != len(out.Points) {
		t.Fatalf("count = %d, points = %d", out.Count, len(out.Points))
	}

	// The limit caps the drained rows.
	req = httptest.NewRequest("GET", "/sky?ra=0,360&dec=-90,90&limit=7", nil)
	w = httptest.NewRecorder()
	s.handleSky(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("limited: status %d", w.Code)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 7 {
		t.Errorf("limited count = %d, want 7", out.Count)
	}
}

// TestSkyBodyMatchesEncodingJSON pins the /sky body to what
// json.NewEncoder wrote for it over a map holding a slice of structs:
// sorted map keys, struct-ordered point keys, encoding/json's float32
// layout, "points":[] when the cut is empty, a trailing newline.
func TestSkyBodyMatchesEncodingJSON(t *testing.T) {
	type skyPointJSON struct {
		ObjID    int64   `json:"objId"`
		Ra       float32 `json:"ra"`
		Dec      float32 `json:"dec"`
		Class    string  `json:"class"`
		Redshift float32 `json:"redshift"`
	}
	recs, err := sky.Generate(sky.DefaultParams(500, 7))
	if err != nil {
		t.Fatal(err)
	}
	edges := []float32{
		float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, 1e-40, -1.1754942e-38,
		1e-7, 9.99999e-7, 1e-6, 1e21, -9.999999e20, math.MaxFloat32, 359.99997, -90,
	}
	rng := rand.New(rand.NewSource(7))
	for i, f := range edges {
		recs = append(recs, table.Record{
			ObjID: -int64(i), Ra: f, Dec: -f, Redshift: edges[rng.Intn(len(edges))],
			Class: table.Class(i % (int(table.NumClasses) + 2)), // an unnamed class too
		})
	}
	for _, n := range []int{0, 1, 7, len(recs)} {
		rep := core.Report{DiskReads: rng.Int63n(1000), PagesScanned: rng.Int63n(1000), PagesSkipped: rng.Int63n(1000), RowsExamined: rng.Int63()}
		rows := recs[len(recs)-n:]
		points := make([]skyPointJSON, 0, n)
		var body []byte
		for i := range rows {
			rec := &rows[i]
			points = append(points, skyPointJSON{ObjID: rec.ObjID, Ra: rec.Ra, Dec: rec.Dec, Class: rec.Class.String(), Redshift: rec.Redshift})
			if i > 0 {
				body = append(body, ',')
			}
			body = appendSkyPoint(body, rec)
		}
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(map[string]any{
			"count":        len(points),
			"pagesSkipped": rep.PagesSkipped,
			"pagesScanned": rep.PagesScanned,
			"rowsExamined": rep.RowsExamined,
			"diskReads":    rep.DiskReads,
			"points":       points,
		})
		if got := appendSkyBody([]byte("x"), n, rep, body); !bytes.Equal(got[1:], want.Bytes()) || got[0] != 'x' {
			t.Fatalf("%d points:\n got  %s\n want %s", n, got, want.Bytes())
		}
	}
}

func TestHandleSkySeesInsertedRows(t *testing.T) {
	s := newTestServer(t)
	// Park a fresh row in an empty corner of the sky, then cut it out.
	body := `{"rows":[{"objId":9100000001,"mags":[18,17.5,17.2,17,16.9],"ra":359.5,"dec":-89.5}]}`
	if w := postInsert(t, s, "application/json", body); w.Code != http.StatusOK {
		t.Fatalf("insert: status %d: %s", w.Code, w.Body)
	}
	req := httptest.NewRequest("GET", "/sky?ra=359,360&dec=-90,-89", nil)
	w := httptest.NewRecorder()
	s.handleSky(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var out struct {
		Points []struct {
			ObjID int64 `json:"objId"`
		} `json:"points"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range out.Points {
		if p.ObjID == 9100000001 {
			found = true
		}
	}
	if !found {
		t.Errorf("inserted row missing from the sky cut (%d points)", len(out.Points))
	}
}

func TestHandleSkyRejects(t *testing.T) {
	s := newTestServer(t)
	for _, q := range []string{
		"",                            // missing both ranges
		"ra=0,360",                    // missing dec
		"ra=10&dec=-90,90",            // not a pair
		"ra=20,10&dec=-90,90",         // inverted
		"ra=0,360&dec=NaN,90",         // non-finite
		"ra=0,360&dec=-90,90&limit=0", // bad limit
	} {
		req := httptest.NewRequest("GET", "/sky?"+q, nil)
		w := httptest.NewRecorder()
		s.handleSky(w, req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", q, w.Code)
		}
	}
}

func TestStatsReportsIngest(t *testing.T) {
	s := newTestServer(t)
	if w := postInsert(t, s, "", "INSERT INTO catalog VALUES (9200000001, 19, 18, 17, 16, 15)"); w.Code != http.StatusOK {
		t.Fatalf("insert: status %d", w.Code)
	}
	req := httptest.NewRequest("GET", "/stats", nil)
	w := httptest.NewRecorder()
	s.handleStats(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("stats: status %d", w.Code)
	}
	var out struct {
		Inserts      int64 `json:"inserts"`
		InsertedRows int64 `json:"insertedRows"`
		Ingest       struct {
			MemRows int    `json:"memRows"`
			NextSeq uint64 `json:"nextSeq"`
		} `json:"ingest"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Inserts != 1 || out.InsertedRows != 1 {
		t.Errorf("inserts=%d insertedRows=%d", out.Inserts, out.InsertedRows)
	}
	if out.Ingest.MemRows != 1 {
		t.Errorf("ingest.memRows = %d, want 1", out.Ingest.MemRows)
	}
}
