package vizhttp

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/colorsql"
	"repro/internal/core"
	"repro/internal/table"
	"repro/internal/vec"
	"repro/internal/viz"
)

// pointJSON is one object in the wire format.
type pointJSON struct {
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	Z        float64 `json:"z"`
	Class    string  `json:"class"`
	Redshift float32 `json:"redshift"`
}

// parseView extracts the 3-D query box and point budget.
func parseView(r *http.Request) (vec.Box, int, error) {
	parse3 := func(name string) (vec.Point, error) {
		parts := strings.Split(r.URL.Query().Get(name), ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("%s must be three comma-separated numbers", name)
		}
		p := make(vec.Point, 3)
		for i, part := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return nil, fmt.Errorf("%s[%d]: %w", name, i, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				// ParseFloat accepts "NaN" and "Inf", and the inverted-
				// box guard below is false for NaN on every axis — a
				// non-finite box would flow straight into grid.Sample.
				return nil, fmt.Errorf("%s[%d]: %v is not a finite coordinate", name, i, v)
			}
			p[i] = v
		}
		return p, nil
	}
	min, err := parse3("min")
	if err != nil {
		return vec.Box{}, 0, err
	}
	max, err := parse3("max")
	if err != nil {
		return vec.Box{}, 0, err
	}
	for i := range min {
		if min[i] > max[i] {
			return vec.Box{}, 0, fmt.Errorf("inverted box on axis %d", i)
		}
	}
	n := 1000
	if s := r.URL.Query().Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			return vec.Box{}, 0, fmt.Errorf("bad n %q", s)
		}
		n = v
	}
	if n > 1_000_000 {
		n = 1_000_000
	}
	return vec.NewBox(min, max), n, nil
}

func (s *Server) handlePoints(w http.ResponseWriter, r *http.Request) {
	view, n, err := parseView(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	recs, rep, err := s.db.SampleRegion(view, n)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if r.Header.Get("Accept") == FrameContentType {
		// The coordinator's sub-request: the columns the JSON writes.
		s.streamRows(w, core.SliceCursor(recs, rep), &FrameWriter{Cols: table.ColMags | table.ColClass | table.ColRedshift})
		return
	}
	s.countRequest(int64(len(recs)))

	out := make([]pointJSON, len(recs))
	for i := range recs {
		out[i] = pointJSON{
			X:        float64(recs[i].Mags[0]),
			Y:        float64(recs[i].Mags[1]),
			Z:        float64(recs[i].Mags[2]),
			Class:    recs[i].Class.String(),
			Redshift: recs[i].Redshift,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"count": len(out), "points": out})
}

func (s *Server) handleRender(w http.ResponseWriter, r *http.Request) {
	view, n, err := parseView(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	recs, _, err := s.db.SampleRegion(view, n)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	g := &viz.GeometrySet{}
	for i := range recs {
		g.Points = append(g.Points, viz.Point{
			Pos: viz.P3{float64(recs[i].Mags[0]), float64(recs[i].Mags[1]), float64(recs[i].Mags[2])},
			Tag: uint8(recs[i].Class),
		})
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "%d points in %v\n", len(recs), view)
	fmt.Fprint(w, viz.AsciiRenderer{W: 100, H: 32}.Render(g, view))
}

// handleQuery serves colorsql queries through the streaming cursor
// pipeline. Two input forms:
//
//	/query?q=SELECT+g,r+WHERE+g-r>0.4+ORDER+BY+r+LIMIT+20
//	/query?where=g-r>0.4&limit=20        (legacy: SELECT * + limit)
//
// format=ndjson streams one JSON object per row with chunked
// encoding — the first row is on the wire while the scan is still
// running, and closing the connection cancels the scan via the
// request context — followed by a final {"summary": ...} line.
// The default JSON response collects the rows first but still
// executes through the cursor, so a LIMIT bounds the pages read,
// not just the rows encoded. A request that Accepts FrameContentType —
// a coordinator's — streams the same rows as binary frames (frame.go).
//
// Admission happens after parsing (rejecting malformed input must not
// consume a slot) and is priced by the planner's zero-I/O estimate of
// this statement, so under saturation an expensive statement is shed
// before it costs the server anything. A result-cache hit is probed
// BEFORE admission: a cached answer does no I/O and no execution, so
// it is served immediately and is never shed — the X-Cache response
// header says which path a request took.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	src := r.URL.Query().Get("q")
	legacy := false
	if src == "" {
		src = r.URL.Query().Get("where")
		legacy = true
	}
	if src == "" {
		http.Error(w, "missing q (full SELECT statement) or where (predicate) parameter", http.StatusBadRequest)
		return
	}
	stmt, err := colorsql.ParseStatement(src, colorsql.DefaultVars(), table.Dim)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if legacy {
		// The where form has no LIMIT clause; the limit parameter (default
		// 100) caps it, and is now pushed into the scan rather than
		// applied after materializing every match.
		limit := 100
		if ls := r.URL.Query().Get("limit"); ls != "" {
			v, err := strconv.Atoi(ls)
			if err != nil || v < 0 {
				http.Error(w, fmt.Sprintf("bad limit %q", ls), http.StatusBadRequest)
				return
			}
			limit = v
		}
		stmt.Limit = limit
	}

	serve(s, "query", w, r,
		func() (core.Cursor, bool) { return s.db.ExecStatementCached(stmt, core.PlanAuto) },
		func() float64 { return s.db.EstimateStatementCost(stmt) },
		func() (core.Cursor, error) { return s.db.ExecStatement(r.Context(), stmt, core.PlanAuto) },
		func(cur core.Cursor) { s.writeQueryResponse(w, r, stmt, cur) })
}

// serve is the lifecycle every cost-aware endpoint runs: probe the
// result cache — a hit does no I/O and no execution, so it is answered
// at once, takes no admission slot and is never shed — otherwise admit
// at the planner's price (on rejection the 429 is already written),
// execute, and respond. respond sets X-Cache from the answer's own
// Report (setXCache), not from which branch ran: an execution that
// shared a concurrent identical one is a hit too.
func serve[T any](s *Server, endpoint string, w http.ResponseWriter, r *http.Request,
	probe func() (T, bool), cost func() float64, exec func() (T, error), respond func(T)) {
	ans, ok := probe()
	if ok {
		s.cacheServed.Add(1)
	} else {
		release, admitted := s.admit(endpoint, w, r, cost())
		if !admitted {
			return
		}
		defer release()
		var err error
		if ans, err = exec(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	respond(ans)
}

// setXCache says which path the answer took: "hit" covers both a
// direct cache hit and a singleflight-shared answer, since neither
// did I/O of its own.
func setXCache(w http.ResponseWriter, rep core.Report) {
	if rep.FromCache {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
}

// writeQueryResponse renders one statement's cursor as the /query
// response (JSON or NDJSON) and closes it.
func (s *Server) writeQueryResponse(w http.ResponseWriter, r *http.Request, stmt colorsql.Statement, cur core.Cursor) {
	defer cur.Close()
	setXCache(w, cur.Stats())

	if r.Header.Get("Accept") == FrameContentType {
		s.streamRows(w, cur, &FrameWriter{Cols: core.ColumnSet(stmt.OutputColumns())})
		return
	}
	enc := core.NewRowEncoder(stmt.OutputColumns())
	if r.URL.Query().Get("format") == "ndjson" {
		s.streamRows(w, cur, ndjsonRows{enc})
		return
	}

	rows := []byte(`,"rows":[`)
	points := []pointJSON{}
	for n := 0; cur.Next(); n++ {
		rec := cur.Record()
		if n > 0 {
			rows = append(rows, ',')
		}
		rows = enc.AppendRow(rows, rec)
		if stmt.Star {
			// Legacy pointJSON view for SELECT * responses, built
			// straight from the record so values match the old endpoint
			// bit for bit.
			points = append(points, pointJSON{
				X:        float64(rec.Mags[0]),
				Y:        float64(rec.Mags[1]),
				Z:        float64(rec.Mags[2]),
				Class:    rec.Class.String(),
				Redshift: rec.Redshift,
			})
		}
	}
	rep := cur.Stats()
	if err := cur.Err(); err != nil {
		status := http.StatusInternalServerError
		if r.Context().Err() != nil {
			status = http.StatusRequestTimeout
		}
		http.Error(w, err.Error(), status)
		return
	}
	s.countRequest(rep.RowsReturned)
	s.countZoneStats(rep)

	w.Header().Set("Content-Type", "application/json")
	rows = append(rows, ']')
	pts, _ := json.Marshal(points) // finite floats and class names: cannot fail
	body := make([]byte, 0, len(pts)+len(rows)+1024)
	body = appendSummary(body, rep, false, []byte(`,"points":`), pts, rows)
	w.Write(append(body, '\n'))
}

// The streaming flush policy. The first row goes out at once (first-row
// latency is independent of result cardinality); later rows when
// streamFlushBytes are pending or the oldest pending row has waited
// streamFlushInterval — the clock is read every streamClockRows-th
// row, since one read costs a tenth of a row — and whatever is
// pending at the end leaves in one write with the summary line.
const (
	streamFlushBytes    = 32 << 10
	streamFlushInterval = 4 * time.Millisecond
	streamClockRows     = 16
)

// streamBufs recycles streamRows' pending-rows buffers: a buffer
// grows on demand to about streamFlushBytes, so a small answer
// neither allocates a batch-sized buffer nor regrows a pooled one.
var streamBufs = sync.Pool{New: func() any { return new([]byte) }}

// rowFormat is one wire rendering of a row stream: NDJSON for clients,
// binary frames (FrameWriter) for the coordinator.
type rowFormat interface {
	ContentType() string
	Begin(dst []byte) []byte
	Row(dst []byte, rec *table.Record) []byte
	Seal(dst []byte) []byte // completes the pending rows before a write
	// End closes the stream: the cursor's exact stats, or err after the
	// rows that preceded the failure.
	End(dst []byte, rep core.Report, err error) []byte
}

// ndjsonRows is one JSON object per row, then a summary or error line.
type ndjsonRows struct{ enc *core.RowEncoder }

func (ndjsonRows) ContentType() string     { return "application/x-ndjson" }
func (ndjsonRows) Begin(dst []byte) []byte { return dst }
func (ndjsonRows) Seal(dst []byte) []byte  { return dst }
func (f ndjsonRows) Row(dst []byte, rec *table.Record) []byte {
	return append(f.enc.AppendRow(dst, rec), '\n')
}
func (ndjsonRows) End(dst []byte, rep core.Report, err error) []byte {
	if err != nil {
		dst = appendJSONString(append(dst, `{"error":`...), err.Error())
	} else {
		dst = appendSummary(append(dst, `{"summary":`...), rep, true)
	}
	return append(dst, "}\n"...)
}

// streamRows writes the cursor's rows in format f, batched per the
// flush policy above, then the stream's end.
//
// Backpressure contract: the rolling deadline Config.StreamWriteTimeout
// is armed before every call that can block — each batch's Write and
// Flush, and through the last Write the flush net/http does when the
// handler returns. A consumer that stops reading makes that call fail
// when the deadline fires, the handler returns, and the deferred
// cursor Close releases the scan's pins — a stalled client holds an
// admission slot and pool pages for at most one deadline, not forever.
// Arming it also overrides the server-wide absolute write timeout
// for this response (http.Server.WriteTimeout caps the whole
// response, killing legitimate long streams, while saying nothing
// about per-write progress). Recorders and exotic writers may not
// support deadlines; the stream then simply runs without them.
func (s *Server) streamRows(w http.ResponseWriter, cur core.Cursor, f rowFormat) {
	w.Header().Set("Content-Type", f.ContentType())
	w.Header().Set("X-Content-Type-Options", "nosniff")
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	bp := streamBufs.Get().(*[]byte)
	buf := f.Begin((*bp)[:0])
	defer func() {
		*bp = buf
		streamBufs.Put(bp)
	}()
	write := func() error {
		if s.cfg.StreamWriteTimeout > 0 {
			rc.SetWriteDeadline(time.Now().Add(s.cfg.StreamWriteTimeout))
		}
		_, err := w.Write(f.Seal(buf))
		buf = buf[:0]
		return err
	}

	var flushed time.Time
	for n := 0; cur.Next(); n++ {
		buf = f.Row(buf, cur.Record())
		if n == 0 || len(buf) >= streamFlushBytes ||
			n%streamClockRows == 0 && time.Since(flushed) >= streamFlushInterval {
			if write() != nil {
				// Client went away or stalled past the write deadline; the
				// deferred Close cancels the scan.
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			flushed = time.Now()
		}
	}
	rep, err := cur.Stats(), cur.Err()
	if err == nil {
		s.countRequest(rep.RowsReturned)
		s.countZoneStats(rep)
	}
	buf = f.End(buf, rep, err)
	write()
}

// parseMags parses one "m1,m2,m3,m4,m5" magnitude vector.
func parseMags(raw string) (vec.Point, error) {
	parts := strings.Split(raw, ",")
	if len(parts) != table.Dim {
		return nil, fmt.Errorf("mags needs %d comma-separated numbers, got %q", table.Dim, raw)
	}
	p := make(vec.Point, table.Dim)
	for i, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("mags[%d]: %w", i, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// A NaN query breaks every distance comparison and would
			// return k arbitrary records as a 200.
			return nil, fmt.Errorf("mags[%d]: %v is not a finite magnitude", i, v)
		}
		p[i] = v
	}
	return p, nil
}

// neighborJSON is one /knn result record: unlike the 3-D viz
// pointJSON it carries the object identity and all five magnitudes,
// so callers can identify the returned objects and verify the 5-D
// ordering themselves.
type neighborJSON struct {
	ObjID    int64      `json:"objId"`
	Mags     [5]float64 `json:"mags"`
	Class    string     `json:"class"`
	Redshift float32    `json:"redshift"`
}

// knnResultJSON is one query's slice of the /knn response.
type knnResultJSON struct {
	Neighbors      []neighborJSON `json:"neighbors"`
	LeavesExamined int64          `json:"leavesExamined"`
	RowsExamined   int64          `json:"rowsExamined"`
	DiskReads      int64          `json:"diskReads"`
}

// handleKnn serves batched nearest-neighbour queries: POST a JSON
// body {"points": [[5 mags]...], "k": n} and get, per query in input
// order, the k neighbours plus that query's exact cost report — each
// query its statement ORDER BY dist(p) LIMIT k. Admission is priced per batch — points × the
// planner's per-query kNN estimate — so a 10k-point k=1000 monster
// sheds under saturation while single-point probes queue.
func (s *Server) handleKnn(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a JSON body {\"points\": [[m1..m5]...], \"k\": n}", http.StatusMethodNotAllowed)
		return
	}
	var in struct {
		Points [][]float64 `json:"points"`
		K      int         `json:"k"`
	}
	// 10k points × 5 coordinates fit comfortably in 4 MiB; cap the
	// body before decoding so an oversized request cannot exhaust
	// memory.
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20)).Decode(&in); err != nil {
		http.Error(w, "bad JSON body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if in.K == 0 {
		in.K = 10
	}
	if in.K < 1 || in.K > 1000 {
		http.Error(w, fmt.Sprintf("k %d out of [1,1000]", in.K), http.StatusBadRequest)
		return
	}
	if len(in.Points) == 0 || len(in.Points) > 10_000 {
		http.Error(w, fmt.Sprintf("points count %d out of [1,10000]", len(in.Points)), http.StatusBadRequest)
		return
	}
	qs := make([]vec.Point, len(in.Points))
	for i, p := range in.Points {
		if len(p) != table.Dim {
			http.Error(w, fmt.Sprintf("points[%d] has %d coordinates, want %d", i, len(p), table.Dim), http.StatusBadRequest)
			return
		}
		qs[i] = vec.Point(p)
	}

	serve(s, "knn", w, r,
		func() (a knnAnswer, ok bool) {
			a.recs, a.reports, ok = s.db.NearestNeighborsBatchCached(qs, in.K)
			return a, ok
		},
		func() float64 { return s.db.EstimateKNNCost(in.K, len(qs)) },
		func() (a knnAnswer, err error) {
			a.recs, a.reports, err = s.db.NearestNeighborsBatch(r.Context(), qs, in.K)
			return a, err
		},
		func(a knnAnswer) { s.writeKnnResponse(w, in.K, qs, a.recs, a.reports) })
}

// knnAnswer is one kNN batch's answer: per query, the neighbours and
// the exact cost report.
type knnAnswer struct {
	recs    [][]table.Record
	reports []core.Report
}

// writeKnnResponse renders one kNN batch as the /knn response and
// folds its reports into the serving counters.
func (s *Server) writeKnnResponse(w http.ResponseWriter, k int, qs []vec.Point, recs [][]table.Record, reports []core.Report) {
	results := make([]knnResultJSON, len(recs))
	var leaves, rows, returned int64
	for i, nbs := range recs {
		out := make([]neighborJSON, len(nbs))
		for j := range nbs {
			nj := neighborJSON{
				ObjID:    nbs[j].ObjID,
				Class:    nbs[j].Class.String(),
				Redshift: nbs[j].Redshift,
			}
			for d := 0; d < 5; d++ {
				nj.Mags[d] = float64(nbs[j].Mags[d])
			}
			out[j] = nj
		}
		results[i] = knnResultJSON{
			Neighbors:      out,
			LeavesExamined: reports[i].LeavesExamined,
			RowsExamined:   reports[i].RowsExamined,
			DiskReads:      reports[i].DiskReads,
		}
		leaves += reports[i].LeavesExamined
		rows += reports[i].RowsExamined
		returned += reports[i].RowsReturned
	}
	s.countRequest(returned)
	s.knnQueries.Add(int64(len(qs)))
	s.knnLeaves.Add(leaves)
	s.knnRows.Add(rows)

	setXCache(w, reports[0])
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"k":          k,
		"queries":    len(qs),
		"plan":       reports[0].Plan.String(),
		"planReason": reports[0].PlanReason,
		"fromCache":  reports[0].FromCache,
		"results":    results,
	})
}

// handlePhotoz serves photometric redshift estimates: repeat the
// mags parameter for a batch, e.g. /photoz?mags=18,17,17,16,16&mags=...
// Each estimate is its reference kNN statement plus a local fit; the
// response includes the batch's fit-fallback count (degenerate
// neighbourhoods).
func (s *Server) handlePhotoz(w http.ResponseWriter, r *http.Request) {
	raws := r.URL.Query()["mags"]
	if len(raws) == 0 {
		http.Error(w, "missing mags parameter (m1,m2,m3,m4,m5; repeatable)", http.StatusBadRequest)
		return
	}
	if len(raws) > 10_000 {
		http.Error(w, fmt.Sprintf("batch of %d exceeds 10000", len(raws)), http.StatusBadRequest)
		return
	}
	qs := make([]vec.Point, len(raws))
	for i, raw := range raws {
		p, err := parseMags(raw)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		qs[i] = p
	}

	serve(s, "photoz", w, r,
		func() (a photozAnswer, ok bool) {
			a.zs, a.rep, ok = s.db.EstimateRedshiftBatchCached(qs)
			return a, ok
		},
		func() float64 { return s.db.EstimatePhotoZCost(len(qs)) },
		func() (a photozAnswer, err error) {
			a.zs, a.rep, err = s.db.EstimateRedshiftBatch(r.Context(), qs)
			return a, err
		},
		func(a photozAnswer) { s.writePhotozResponse(w, a.zs, a.rep) })
}

// photozAnswer is one photo-z batch's answer.
type photozAnswer struct {
	zs  []float64
	rep core.Report
}

// writePhotozResponse renders one photo-z batch as the /photoz
// response and counts the estimates it computed.
func (s *Server) writePhotozResponse(w http.ResponseWriter, zs []float64, rep core.Report) {
	s.countRequest(int64(len(zs)))
	if !rep.FromCache {
		s.photozEstimates.Add(rep.RowsReturned)
		s.photozFitFallbacks.Add(rep.FitFallbacks)
	}
	setXCache(w, rep)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"redshifts":      zs,
		"queries":        len(zs),
		"fitFallbacks":   rep.FitFallbacks,
		"leavesExamined": rep.LeavesExamined,
		"rowsExamined":   rep.RowsExamined,
		"diskReads":      rep.DiskReads,
		"fromCache":      rep.FromCache,
	})
}
