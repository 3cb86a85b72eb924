package vizhttp

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/colorsql"
	"repro/internal/core"
	"repro/internal/table"
)

// This file is the serving half of the online-ingest write path:
// POST /insert acknowledges durable insert batches (WAL-backed; rows
// are queryable immediately from the memtable), and GET /sky serves
// the §5.2 rectangular sky cut through the ra/dec cell index.

// insertRowJSON is one record of the JSON insert body.
type insertRowJSON struct {
	ObjID    int64     `json:"objId"`
	Mags     []float64 `json:"mags"`
	Ra       float64   `json:"ra"`
	Dec      float64   `json:"dec"`
	Redshift *float64  `json:"redshift"` // present ⇒ HasZ
	Class    string    `json:"class"`
}

// maxInsertBatch bounds one request's rows: the WAL group-commits a
// batch as one record, and an unbounded batch would let one request
// monopolize the log and the memtable.
const maxInsertBatch = 10_000

// handleInsert serves POST /insert. Two body forms:
//
//	Content-Type: application/json
//	  {"rows": [{"objId":1,"mags":[..5..],"ra":..,"dec":..,
//	             "redshift":..,"class":"star"}, ...]}
//
//	anything else (text/plain, no content type)
//	  INSERT INTO catalog VALUES (objid, u, g, r, i, z[, ra, dec[, z[, class]]]), ...
//
// The 200 response carries the WAL sequence that made the batch
// durable: by the time the client reads it, the rows survive any
// crash and are visible to every subsequently opened cursor.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST an INSERT statement or a JSON body {\"rows\": [...]}", http.StatusMethodNotAllowed)
		return
	}
	recs, err := parseInsertBody(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// Admission: inserts are priced per row. They contend on the WAL
	// and memtable, not the buffer pool, so the class has its own
	// limiter; shedding writes never blocks reads and vice versa.
	release, ok := s.admit("insert", w, r, float64(len(recs)))
	if !ok {
		return
	}
	defer release()

	seq, err := s.db.Insert(recs)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.inserts.Add(1)
	s.insertedRows.Add(int64(len(recs)))

	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"inserted": len(recs),
		"seq":      seq,
	})
}

// parseInsertBody decodes either body form into records.
func parseInsertBody(r *http.Request) ([]table.Record, error) {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, 4<<20))
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var in struct {
			Rows []insertRowJSON `json:"rows"`
		}
		if err := json.Unmarshal(body, &in); err != nil {
			return nil, fmt.Errorf("bad JSON body: %w", err)
		}
		if len(in.Rows) == 0 || len(in.Rows) > maxInsertBatch {
			return nil, fmt.Errorf("rows count %d out of [1,%d]", len(in.Rows), maxInsertBatch)
		}
		recs := make([]table.Record, len(in.Rows))
		for i, row := range in.Rows {
			rec, err := row.toRecord()
			if err != nil {
				return nil, fmt.Errorf("rows[%d]: %w", i, err)
			}
			recs[i] = rec
		}
		return recs, nil
	}
	st, err := colorsql.ParseInsert(string(body), table.Dim)
	if err != nil {
		return nil, err
	}
	if len(st.Rows) > maxInsertBatch {
		return nil, fmt.Errorf("rows count %d exceeds %d", len(st.Rows), maxInsertBatch)
	}
	return st.Rows, nil
}

// toRecord converts one JSON row, validating shape (value validation
// — finite magnitudes, known class — happens in core.Insert).
func (row *insertRowJSON) toRecord() (table.Record, error) {
	var rec table.Record
	if len(row.Mags) != table.Dim {
		return rec, fmt.Errorf("mags has %d values, want %d", len(row.Mags), table.Dim)
	}
	rec.ObjID = row.ObjID
	for i, v := range row.Mags {
		rec.Mags[i] = float32(v)
	}
	rec.Ra = float32(row.Ra)
	rec.Dec = float32(row.Dec)
	if row.Redshift != nil {
		rec.Redshift = float32(*row.Redshift)
		rec.HasZ = true
	}
	if row.Class != "" {
		c, ok := table.ParseClass(row.Class)
		if !ok {
			return rec, fmt.Errorf("unknown class %q", row.Class)
		}
		rec.Class = c
	}
	return rec, nil
}

// parseSkyRange parses one "lo,hi" pair of finite degrees.
func parseSkyRange(name, raw string) (float64, float64, error) {
	parts := strings.Split(raw, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("%s must be two comma-separated degrees, got %q", name, raw)
	}
	var out [2]float64
	for i, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return 0, 0, fmt.Errorf("%s[%d]: %w", name, i, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, 0, fmt.Errorf("%s[%d]: %v is not a finite coordinate", name, i, v)
		}
		out[i] = v
	}
	if out[0] > out[1] {
		return 0, 0, fmt.Errorf("%s: inverted range [%g,%g]", name, out[0], out[1])
	}
	return out[0], out[1], nil
}

// handleSky serves GET /sky?ra=lo,hi&dec=lo,hi[&limit=n]: catalog
// rows inside the rectangular sky cut, read through the catalog's sky
// cell index (core.QuerySkyBox) under snapshot isolation, memtable rows
// included. The counters say how many pages the cut read and skipped.
// A request that Accepts FrameContentType — a coordinator's — gets the
// same rows and counters as binary frames (frame.go).
func (s *Server) handleSky(w http.ResponseWriter, r *http.Request) {
	raLo, raHi, err := parseSkyRange("ra", r.URL.Query().Get("ra"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	decLo, decHi, err := parseSkyRange("dec", r.URL.Query().Get("dec"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	limit := 10_000
	if ls := r.URL.Query().Get("limit"); ls != "" {
		v, err := strconv.Atoi(ls)
		if err != nil || v < 1 {
			http.Error(w, fmt.Sprintf("bad limit %q", ls), http.StatusBadRequest)
			return
		}
		limit = min(v, 1_000_000)
	}

	release, ok := s.admit("sky", w, r, 0)
	if !ok {
		return
	}
	defer release()

	box := table.SkyBoxPred{RaMin: raLo, RaMax: raHi, DecMin: decLo, DecMax: decHi}
	const cols = table.ColObjID | table.ColRa | table.ColDec | table.ColClass | table.ColRedshift
	cur, err := s.db.QuerySkyBox(r.Context(), box, cols)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	cur = core.Limit(cur, limit)
	defer cur.Close()
	if r.Header.Get("Accept") == FrameContentType {
		s.streamRows(w, cur, &FrameWriter{Cols: cols})
		return
	}

	var points []byte
	n := 0
	for ; cur.Next(); n++ {
		if n > 0 {
			points = append(points, ',')
		}
		points = appendSkyPoint(points, cur.Record())
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
	s.countRequest(int64(n))
	s.countZoneStats(rep)

	w.Header().Set("Content-Type", "application/json")
	w.Write(appendSkyBody(make([]byte, 0, len(points)+128), n, rep, points))
}

// appendSkyBody appends the /sky response: count points, given as
// their comma-separated objects, and the cut's page counters. Its bytes
// are what json.NewEncoder writes for the same map: keys sorted, a
// trailing newline (TestSkyBodyMatchesEncodingJSON).
func appendSkyBody(dst []byte, count int, rep core.Report, points []byte) []byte {
	dst = strconv.AppendInt(append(dst, `{"count":`...), int64(count), 10)
	dst = strconv.AppendInt(append(dst, `,"diskReads":`...), rep.DiskReads, 10)
	dst = strconv.AppendInt(append(dst, `,"pagesScanned":`...), rep.PagesScanned, 10)
	dst = strconv.AppendInt(append(dst, `,"pagesSkipped":`...), rep.PagesSkipped, 10)
	dst = append(append(append(dst, `,"points":[`...), points...), ']')
	dst = strconv.AppendInt(append(dst, `,"rowsExamined":`...), rep.RowsExamined, 10)
	return append(dst, "}\n"...)
}

// appendSkyPoint appends one /sky point: its keys in the order objId,
// ra, dec, class, redshift; its floats as encoding/json writes a
// float32.
func appendSkyPoint(dst []byte, rec *table.Record) []byte {
	dst = strconv.AppendInt(append(dst, `{"objId":`...), rec.ObjID, 10)
	dst = table.AppendJSONFloat32(append(dst, `,"ra":`...), rec.Ra)
	dst = table.AppendJSONFloat32(append(dst, `,"dec":`...), rec.Dec)
	dst = appendJSONString(append(dst, `,"class":`...), rec.Class.String())
	dst = table.AppendJSONFloat32(append(dst, `,"redshift":`...), rec.Redshift)
	return append(dst, '}')
}
