package vizhttp

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/colorsql"
	"repro/internal/core"
	"repro/internal/table"
)

// recordingWriter is an http.ResponseWriter that also flushes and
// takes write deadlines, and logs every call the stream loop makes.
type recordingWriter struct {
	hdr       http.Header
	body      bytes.Buffer
	writes    int
	flushes   int
	deadlines int
	// writesUnderArming counts Writes that had a deadline armed since
	// the previous Write.
	armed             bool
	writesUnderArming int
}

func newRecordingWriter() *recordingWriter { return &recordingWriter{hdr: http.Header{}} }

func (w *recordingWriter) Header() http.Header { return w.hdr }
func (w *recordingWriter) WriteHeader(int)     {}
func (w *recordingWriter) Flush()              { w.flushes++ }

func (w *recordingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.armed {
		w.writesUnderArming++
		w.armed = false
	}
	return w.body.Write(p)
}

func (w *recordingWriter) SetWriteDeadline(time.Time) error {
	w.deadlines++
	w.armed = true
	return nil
}

// genCursor is a core.Cursor over n synthetic records. onNext, when
// set, runs at the start of every Next with the number of rows already
// handed out; after failAt rows (when >= 0) the cursor fails with err.
type genCursor struct {
	n      int
	pos    int
	rec    table.Record
	onNext func(handedOut int)
	failAt int
	err    error
	failed bool
}

func genRecord(i int) table.Record {
	rec := table.Record{
		ObjID:    int64(1_000_000 + i),
		Ra:       float32(i%360) + 0.25,
		Dec:      float32(i%180) - 90,
		Redshift: float32(i%7) / 8,
		Class:    table.Class(i % int(table.NumClasses)),
	}
	for d := range rec.Mags {
		rec.Mags[d] = 14 + float32((i*7+d*13)%1100)/100
	}
	return rec
}

func (c *genCursor) Next() bool {
	if c.onNext != nil {
		c.onNext(c.pos)
	}
	if c.err != nil && c.pos == c.failAt {
		c.failed = true
		return false
	}
	if c.pos >= c.n {
		return false
	}
	c.rec = genRecord(c.pos)
	c.pos++
	return true
}

func (c *genCursor) Record() *table.Record { return &c.rec }
func (c *genCursor) Close() error          { return nil }

func (c *genCursor) Err() error {
	if c.failed {
		return c.err
	}
	return nil
}

func (c *genCursor) Stats() core.Report {
	return core.Report{
		Plan: core.PlanPrunedScan, PlanReason: "est 0.2 < 0.25 & zones <tight>",
		EstimatedSelectivity: 0.2, RowsReturned: int64(c.pos), RowsExamined: int64(3 * c.pos),
		DiskReads: 5, CacheHits: 7, PagesSkipped: 11, PagesScanned: 13, StripsDecoded: 39,
	}
}

// refSummaryLine is the summary line as the per-row streamer wrote it:
// encoding/json over nested map[string]any.
func refSummaryLine(t *testing.T, rep core.Report) []byte {
	t.Helper()
	line, err := json.Marshal(map[string]any{
		"summary": map[string]any{
			"plan":                 rep.Plan.String(),
			"planReason":           rep.PlanReason,
			"estimatedSelectivity": rep.EstimatedSelectivity,
			"rowsReturned":         rep.RowsReturned,
			"rowsExamined":         rep.RowsExamined,
			"diskReads":            rep.DiskReads,
			"cacheHits":            rep.CacheHits,
			"pagesSkipped":         rep.PagesSkipped,
			"pagesScanned":         rep.PagesScanned,
			"stripsDecoded":        rep.StripsDecoded,
			"fromCache":            rep.FromCache,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n')
}

// refBody is the whole NDJSON body one Write per row produced.
func refBody(t *testing.T, cols []colorsql.Column, n int, rep core.Report) []byte {
	t.Helper()
	var body []byte
	for i := 0; i < n; i++ {
		rec := genRecord(i)
		body = append(core.AppendRowJSON(body, cols, &rec), '\n')
	}
	return append(body, refSummaryLine(t, rep)...)
}

func streamServer() *Server { return &Server{cfg: Config{StreamWriteTimeout: time.Second}} }

// TestStreamFirstRowBeforeSecondNext: first-row latency is decoupled
// from result cardinality — row one is written and flushed before the
// cursor is asked for row two.
func TestStreamFirstRowBeforeSecondNext(t *testing.T) {
	w := newRecordingWriter()
	cols := colorsql.StarColumns()
	var flushesAtSecond, bytesAtSecond int
	cur := &genCursor{n: 5000, failAt: -1, onNext: func(handedOut int) {
		if handedOut == 1 {
			flushesAtSecond, bytesAtSecond = w.flushes, w.body.Len()
		}
	}}
	streamServer().streamRows(w, cur, ndjsonRows{core.NewRowEncoder(cols)})
	first := genRecord(0)
	if want := len(core.AppendRowJSON(nil, cols, &first)) + 1; flushesAtSecond != 1 || bytesAtSecond != want {
		t.Errorf("at the second Next: %d flushes, %d body bytes; want 1 flush of the %d-byte first row",
			flushesAtSecond, bytesAtSecond, want)
	}
}

// TestStreamBatchesWrites: a long stream costs one Write, at most one
// deadline re-arm and one Flush per ~32 KiB batch instead of per row,
// every Write goes out under a freshly armed deadline, and the bytes
// are exactly the per-row streamer's.
func TestStreamBatchesWrites(t *testing.T) {
	const n = 20000
	w := newRecordingWriter()
	cols := colorsql.StarColumns()
	cur := &genCursor{n: n, failAt: -1}
	s := streamServer()
	s.streamRows(w, cur, ndjsonRows{core.NewRowEncoder(cols)})

	want := refBody(t, cols, n, cur.Stats())
	if !bytes.Equal(w.body.Bytes(), want) {
		t.Fatalf("batched body (%d bytes) differs from the per-row body (%d bytes)", w.body.Len(), len(want))
	}
	if max := len(want)/(16<<10) + 3; w.writes > max {
		t.Errorf("%d Writes for %d bytes, want <= %d", w.writes, len(want), max)
	}
	if w.writes < len(want)/(64<<10) {
		t.Errorf("%d Writes for %d bytes: batches far above the 32 KiB target", w.writes, len(want))
	}
	if w.deadlines > w.writes {
		t.Errorf("%d SetWriteDeadline calls for %d Writes", w.deadlines, w.writes)
	}
	if w.writesUnderArming != w.writes {
		t.Errorf("%d of %d Writes had no deadline armed before them", w.writes-w.writesUnderArming, w.writes)
	}
	if w.flushes > w.writes {
		t.Errorf("%d Flushes for %d Writes", w.flushes, w.writes)
	}
	if got := s.returned.Load(); got != n {
		t.Errorf("served-rows counter = %d, want %d", got, n)
	}
	if ct := w.hdr.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
}

// TestStreamSmallAnswerFlushes: an interactive-sized answer costs the
// first-row flush plus the write that carries the rest and the
// summary — not a flush per row.
func TestStreamSmallAnswerFlushes(t *testing.T) {
	for _, n := range []int{0, 1, 2, 16} {
		w := newRecordingWriter()
		cols := colorsql.StarColumns()
		cur := &genCursor{n: n, failAt: -1}
		streamServer().streamRows(w, cur, ndjsonRows{core.NewRowEncoder(cols)})
		if w.flushes > 2 || w.writes > 2 {
			t.Errorf("%d rows: %d flushes, %d writes; want <= 2 each", n, w.flushes, w.writes)
		}
		if want := refBody(t, cols, n, cur.Stats()); !bytes.Equal(w.body.Bytes(), want) {
			t.Errorf("%d rows: body %q, want %q", n, w.body.Bytes(), want)
		}
	}
}

// TestStreamSlowCursorFlushesOnAge: rows that trickle in do not wait
// for a full batch — once a row has been pending past the flush
// interval, the next clock check sends it.
func TestStreamSlowCursorFlushesOnAge(t *testing.T) {
	w := newRecordingWriter()
	writesAfterCheck := 0
	cur := &genCursor{n: 3 * streamClockRows, failAt: -1, onNext: func(handedOut int) {
		switch handedOut {
		case streamClockRows - 1:
			time.Sleep(2 * streamFlushInterval)
		case streamClockRows + 1:
			writesAfterCheck = w.writes
		}
	}}
	streamServer().streamRows(w, cur, ndjsonRows{core.NewRowEncoder(colorsql.StarColumns())})
	if writesAfterCheck != 2 {
		t.Errorf("%d Writes by the row after the clock check, want 2 (first row, aged batch)", writesAfterCheck)
	}
}

// TestStreamErrorLine: a mid-stream failure ends the body with the
// rows that preceded it and one valid JSON error line, whatever bytes
// the message holds (Go's %q quoting is not JSON for control or
// non-ASCII bytes).
func TestStreamErrorLine(t *testing.T) {
	msg := "shard 2 (http://h/): read \"pg\x01\x7f\": caf\u00e9 \u2028 <eof> \xff\t&"
	w := newRecordingWriter()
	cols := colorsql.StarColumns()
	cur := &genCursor{n: 100, failAt: 40, err: errors.New(msg)}
	s := streamServer()
	s.streamRows(w, cur, ndjsonRows{core.NewRowEncoder(cols)})

	lines := strings.Split(strings.TrimRight(w.body.String(), "\n"), "\n")
	if len(lines) != 41 {
		t.Fatalf("%d lines, want 40 rows and the error line", len(lines))
	}
	for i, line := range lines[:40] {
		rec := genRecord(i)
		if want := string(core.AppendRowJSON(nil, cols, &rec)); line != want {
			t.Fatalf("row %d before the error: %s, want %s", i, line, want)
		}
	}
	var obj struct{ Error *string }
	if err := json.Unmarshal([]byte(lines[40]), &obj); err != nil || obj.Error == nil {
		t.Fatalf("error line %q is not a JSON {\"error\": ...} object: %v", lines[40], err)
	}
	if want := strings.ToValidUTF8(msg, "\ufffd"); *obj.Error != want {
		t.Errorf("error line decodes to %q, want %q", *obj.Error, want)
	}
	if ref, _ := json.Marshal(map[string]string{"error": msg}); lines[40] != string(ref) {
		t.Errorf("error line %s, encoding/json writes %s", lines[40], ref)
	}
	if s.requests.Load() != 0 {
		t.Error("a failed stream was counted as a served request")
	}
}

// TestStreamWriteFailureStops: once a Write fails (client gone or
// stalled past the deadline) the loop pulls no further rows.
func TestStreamWriteFailureStops(t *testing.T) {
	pulled := 0
	cur := &genCursor{n: 100000, failAt: -1, onNext: func(handedOut int) { pulled = handedOut }}
	w := &failingWriter{recordingWriter: newRecordingWriter(), failOn: 2}
	streamServer().streamRows(w, cur, ndjsonRows{core.NewRowEncoder(colorsql.StarColumns())})
	if w.writes != 2 {
		t.Errorf("%d Writes after the failing one", w.writes-2)
	}
	if pulled > 2000 {
		t.Errorf("%d rows pulled after the client went away", pulled)
	}
}

type failingWriter struct {
	*recordingWriter
	failOn int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if n, err := w.recordingWriter.Write(p); w.writes < w.failOn {
		return n, err
	}
	return 0, errors.New("write: i/o timeout")
}

// TestStreamSteadyStateAllocs: encoder plus stream loop allocate
// nothing per row — doubling the rows does not move the per-stream
// allocation count — and a LIMIT-10-sized answer does not pay for a
// batch-sized buffer.
func TestStreamSteadyStateAllocs(t *testing.T) {
	s := streamServer()
	enc := core.NewRowEncoder(colorsql.StarColumns())
	w := &discardWriter{hdr: http.Header{}}
	run := func(n int) func() {
		return func() { s.streamRows(w, &genCursor{n: n, failAt: -1}, ndjsonRows{enc}) }
	}
	run(30000)() // grow the pooled buffer
	small, large := testing.AllocsPerRun(5, run(10000)), testing.AllocsPerRun(5, run(30000))
	// Not exactly 0: the race detector makes sync.Pool drop buffers at
	// random, and regrowing one costs 16 allocations. One allocation per
	// batch would be 0.005 per row, one per row 1.
	if perRow := (large - small) / 20000; perRow > 0.002 {
		t.Errorf("allocations per stream: %v at 10000 rows, %v at 30000 — %v per row, want 0", small, large, perRow)
	}

	var before, after runtime.MemStats
	runtime.GC() // twice: empty the buffer pool, victim cache included
	runtime.GC()
	runtime.ReadMemStats(&before)
	run(10)()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > streamFlushBytes/2 {
		t.Errorf("a 10-row answer allocated %d bytes", got)
	}
}

type discardWriter struct{ hdr http.Header }

func (w *discardWriter) Header() http.Header         { return w.hdr }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) Flush()                      {}

// Like a real connection; without it ResponseController allocates an
// ErrNotSupported per call.
func (w *discardWriter) SetWriteDeadline(time.Time) error { return nil }

// livePlans are the plan numbers a summary can carry; 3, the retired
// Voronoi scan, is a gap no report fills.
var livePlans = []core.Plan{core.PlanAuto, core.PlanFullScan, core.PlanKdTree, core.PlanGrid, core.PlanPrunedScan}

// TestSummaryMatchesEncodingJSON: the typed summary is byte for byte
// what encoding/json wrote for the map[string]any it replaced, over
// reports chosen to hit every string escape and float format.
func TestSummaryMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []string{"a", "Z", " ", "|", "<", ">", "&", "\"", "\\", "/", "\n", "\r", "\t", "\b", "\f",
		"\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\u2029", "\u2027", "\ufffd", "\U0001f52d", "\xff", "\xc3", "\xe2\x80"}
	floats := []float64{0, math.Copysign(0, -1), 1, 0.25, 1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e-10, 1e20, 1e21, 1.5e300, -3e-8,
		0.1 + 0.2, 5e-324, math.MaxFloat64}
	for i := 0; i < 2000; i++ {
		var reason strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			reason.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		f := floats[rng.Intn(len(floats))]
		if i%3 == 0 {
			f = rng.Float64()
		} else if i%3 == 1 {
			f = math.Float64frombits(rng.Uint64())
			if math.IsNaN(f) || math.IsInf(f, 0) {
				f = 0.5
			}
		}
		rep := core.Report{
			Plan: livePlans[rng.Intn(len(livePlans))], PlanReason: reason.String(), EstimatedSelectivity: f,
			RowsReturned: rng.Int63(), RowsExamined: -rng.Int63(), DiskReads: int64(rng.Intn(3)),
			CacheHits: rng.Int63n(1000), PagesSkipped: rng.Int63n(1000), PagesScanned: rng.Int63n(1000),
			StripsDecoded: rng.Int63n(1000), FromCache: rng.Intn(2) == 0,
		}
		got := append(appendSummary([]byte(`{"summary":`), rep, true), "}\n"...)
		if want := refSummaryLine(t, rep); !bytes.Equal(got, want) {
			t.Fatalf("summary\n got  %s want %s", got, want)
		}
	}
}

// TestQueryJSONResponseMatchesEncodingJSON: the collected /query
// response — report fields, "points" and "rows" in one object — is
// byte for byte what json.Encoder wrote for the old map.
func TestQueryJSONResponseMatchesEncodingJSON(t *testing.T) {
	s := newTestServer(t)
	for _, q := range []string{
		"SELECT * WHERE r < 16 LIMIT 9",
		"SELECT objid, g, class WHERE g - r > 0.4 AND r < 18 ORDER BY g LIMIT 5",
		"SELECT * WHERE r < -5",
		"SELECT r LIMIT 0",
	} {
		req := httptest.NewRequest("GET", "/query?q="+url.QueryEscape(q), nil)
		w := httptest.NewRecorder()
		s.handleQuery(w, req)
		if w.Code != 200 {
			t.Fatalf("%q: status %d: %s", q, w.Code, w.Body)
		}
		// Decode, then re-encode the way the old handler did.
		var got struct {
			Plan                 string            `json:"plan"`
			PlanReason           string            `json:"planReason"`
			EstimatedSelectivity float64           `json:"estimatedSelectivity"`
			RowsReturned         int64             `json:"rowsReturned"`
			RowsExamined         int64             `json:"rowsExamined"`
			DiskReads            int64             `json:"diskReads"`
			PagesSkipped         int64             `json:"pagesSkipped"`
			PagesScanned         int64             `json:"pagesScanned"`
			StripsDecoded        int64             `json:"stripsDecoded"`
			FromCache            bool              `json:"fromCache"`
			Rows                 []json.RawMessage `json:"rows"`
			Points               []pointJSON       `json:"points"`
		}
		dec := json.NewDecoder(bytes.NewReader(w.Body.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("%q: %v in %s", q, err, w.Body)
		}
		if got.Rows == nil || got.Points == nil {
			t.Fatalf("%q: rows or points is null, want an array: %s", q, w.Body)
		}
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(map[string]any{
			"plan":                 got.Plan,
			"planReason":           got.PlanReason,
			"estimatedSelectivity": got.EstimatedSelectivity,
			"rowsReturned":         got.RowsReturned,
			"rowsExamined":         got.RowsExamined,
			"diskReads":            got.DiskReads,
			"pagesSkipped":         got.PagesSkipped,
			"pagesScanned":         got.PagesScanned,
			"stripsDecoded":        got.StripsDecoded,
			"fromCache":            got.FromCache,
			"rows":                 got.Rows,
			"points":               got.Points,
		})
		if !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
			t.Errorf("%q:\n got  %s want %s", q, w.Body.Bytes(), want.Bytes())
		}
		if int64(len(got.Rows)) != got.RowsReturned {
			t.Errorf("%q: %d rows, rowsReturned %d", q, len(got.Rows), got.RowsReturned)
		}
	}
}
