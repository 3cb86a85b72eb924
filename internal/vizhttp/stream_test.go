package vizhttp

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sky"
	"repro/internal/vec"
)

// ndjsonLines splits an NDJSON body into its row lines and the final
// summary object.
func ndjsonLines(t *testing.T, body string) (rows []map[string]any, summary map[string]any) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d is not JSON: %q: %v", i, line, err)
		}
		if s, ok := obj["summary"]; ok {
			if i != len(lines)-1 {
				t.Fatalf("summary at line %d of %d", i, len(lines))
			}
			summary = s.(map[string]any)
			continue
		}
		rows = append(rows, obj)
	}
	if summary == nil {
		t.Fatalf("no summary line in %d lines", len(lines))
	}
	return rows, summary
}

func TestHandleQueryNDJSON(t *testing.T) {
	s := newTestServer(t)
	q := url.QueryEscape("SELECT objid, r WHERE r < 16 ORDER BY r LIMIT 7")
	req := httptest.NewRequest("GET", "/query?format=ndjson&q="+q, nil)
	w := httptest.NewRecorder()
	s.handleQuery(w, req)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	if !w.Flushed {
		t.Error("streaming response never flushed")
	}
	rows, summary := ndjsonLines(t, w.Body.String())
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(rows))
	}
	if summary["rowsReturned"].(float64) != 7 {
		t.Errorf("summary rowsReturned = %v", summary["rowsReturned"])
	}
	prev := -1.0
	for i, row := range rows {
		if len(row) != 2 {
			t.Fatalf("row %d has %d fields, want exactly the projection: %v", i, len(row), row)
		}
		r := row["r"].(float64)
		if r >= 16 {
			t.Errorf("row %d violates r < 16: %v", i, r)
		}
		if r < prev {
			t.Errorf("rows not ordered by r: %v after %v", r, prev)
		}
		prev = r
		if _, ok := row["objid"]; !ok {
			t.Errorf("row %d missing objid", i)
		}
	}
}

// TestNDJSONRowCountMatchesLegacy: the streaming endpoint must agree
// with the legacy JSON endpoint on how many rows a predicate
// matches.
func TestNDJSONRowCountMatchesLegacy(t *testing.T) {
	s := newTestServer(t)

	req := httptest.NewRequest("GET", "/query?where=r+%3C+16&limit=1000000", nil)
	w := httptest.NewRecorder()
	s.handleQuery(w, req)
	if w.Code != 200 {
		t.Fatalf("legacy status %d", w.Code)
	}
	var legacy struct {
		RowsReturned int64 `json:"rowsReturned"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &legacy); err != nil {
		t.Fatal(err)
	}
	if legacy.RowsReturned == 0 {
		t.Fatal("legacy query matched nothing")
	}

	q := url.QueryEscape("SELECT * WHERE r < 16")
	req = httptest.NewRequest("GET", "/query?format=ndjson&q="+q, nil)
	w = httptest.NewRecorder()
	s.handleQuery(w, req)
	rows, summary := ndjsonLines(t, w.Body.String())
	if int64(len(rows)) != legacy.RowsReturned {
		t.Errorf("ndjson streamed %d rows, legacy reports %d", len(rows), legacy.RowsReturned)
	}
	if int64(summary["rowsReturned"].(float64)) != legacy.RowsReturned {
		t.Errorf("summary says %v rows, legacy %d", summary["rowsReturned"], legacy.RowsReturned)
	}
}

func TestHandleQueryStatementValidation(t *testing.T) {
	s := newTestServer(t)
	for _, q := range []string{
		"SELECT bogus WHERE r < 16", // unknown projection column
		"SELECT * ORDER BY 3",       // constant ordering
		"SELECT * LIMIT -2",         // negative limit
		"SELECT * LIMIT 1.5",        // fractional limit
		"SELECT * WHERE r < 16 trailing",
	} {
		req := httptest.NewRequest("GET", "/query?q="+url.QueryEscape(q), nil)
		w := httptest.NewRecorder()
		s.handleQuery(w, req)
		if w.Code != 400 {
			t.Errorf("%q: status %d, want 400", q, w.Code)
		}
	}
}

// cancelingRecorder simulates a client that disconnects after
// receiving the first streamed line: net/http cancels the request
// context, which must stop the scan's page I/O mid-flight.
type cancelingRecorder struct {
	*httptest.ResponseRecorder
	cancel context.CancelFunc
	writes int
}

func (w *cancelingRecorder) Write(b []byte) (int, error) {
	w.writes++
	if w.writes == 1 {
		w.cancel()
	}
	return w.ResponseRecorder.Write(b)
}

func TestNDJSONClientDisconnectStopsPageReads(t *testing.T) {
	db, err := core.Open(core.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.IngestSynthetic(sky.DefaultParams(20000, 42)); err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{})

	cat, err := db.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	totalPages := int64(cat.NumPages())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest("GET", "/query?format=ndjson&q="+url.QueryEscape("SELECT * WHERE r < 30"), nil).WithContext(ctx)
	w := &cancelingRecorder{ResponseRecorder: httptest.NewRecorder(), cancel: cancel}

	before := db.Engine().Store().Stats()
	s.handleQuery(w, req)
	delta := db.Engine().Store().Stats().Sub(before)

	pages := delta.DiskReads + delta.Hits
	if pages >= totalPages/4 {
		t.Errorf("disconnected scan still touched %d of %d catalog pages", pages, totalPages)
	}
	// The stream ends with an error line, not a summary: the request
	// died.
	body := strings.TrimRight(w.Body.String(), "\n")
	lines := strings.Split(body, "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, "error") {
		t.Errorf("disconnected stream ended with %q, want an error line", last)
	}
	// Rows delivered are bounded by the page already pinned when the
	// client vanished.
	if len(lines) > 300 {
		t.Errorf("%d lines streamed after a first-line disconnect", len(lines))
	}
}

// countdownCtx reports Canceled from its (n+1)-th Err call on, as if
// the client went away after n probes: a batch that checks its context
// between probes stops at a deterministic point.
type countdownCtx struct {
	context.Context
	left  int
	calls int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls > c.left {
		return context.Canceled
	}
	return nil
}

// TestBatchCancellationStopsBetweenProbes: a /knn or /photoz batch
// whose request context is cancelled part-way stops before the next
// probe, returns the context error and leaves no page pinned, so a
// dropped 10 000-probe batch frees its admission slot at once. The
// same batch with a live context runs to completion.
func TestBatchCancellationStopsBetweenProbes(t *testing.T) {
	db, err := core.Open(core.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.IngestSynthetic(sky.DefaultParams(5000, 42)); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildKdIndex(0); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildPhotoZ(16, 1); err != nil {
		t.Fatal(err)
	}
	b := CoreBackend(db)
	const probes, stopAfter = 40, 7
	qs := make([]vec.Point, probes)
	for i := range qs {
		qs[i] = sky.GalaxyColors(0.01*float64(i), 17+0.05*float64(i))
	}
	batches := map[string]func(ctx context.Context) (int, error){
		"knn": func(ctx context.Context) (int, error) {
			recs, _, err := b.NearestNeighborsBatch(ctx, qs, 10)
			return len(recs), err
		},
		"photoz": func(ctx context.Context) (int, error) {
			zs, _, err := b.EstimateRedshiftBatch(ctx, qs)
			return len(zs), err
		},
	}
	for name, run := range batches {
		if n, err := run(context.Background()); err != nil || n != probes {
			t.Fatalf("%s: live batch answered %d of %d probes, err %v", name, n, probes, err)
		}
		ctx := &countdownCtx{Context: context.Background(), left: stopAfter}
		n, err := run(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled batch answered %d probes, err %v, want context.Canceled", name, n, err)
		}
		if ctx.calls != stopAfter+1 {
			t.Errorf("%s: batch checked its context %d times, want %d (stop before probe %d)", name, ctx.calls, stopAfter+1, stopAfter+2)
		}
		if pinned := db.Engine().Store().PinnedPages(); pinned != 0 {
			t.Errorf("%s: %d pages pinned after a cancelled batch", name, pinned)
		}
	}
}
