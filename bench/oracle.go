package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"

	"repro/internal/colorsql"
	"repro/internal/table"
	"repro/internal/vec"
)

// oracle recomputes answers from the generated records with a slice
// scan, Union.Contains and a sort. It shares no code path with the
// planner, the indexes or the page format.
type oracle struct {
	recs []table.Record
	pts  []vec.Point // magnitudes as the engine sees them: float64 of float32
	byID map[int64]int
	base int // rows [0, base) are the catalog; the rest were inserted
}

func newOracle(recs []table.Record) *oracle {
	o := &oracle{byID: make(map[int64]int, len(recs))}
	o.add(recs)
	o.base = len(recs)
	return o
}

// add makes rows visible to later checks: the catalog at start, then
// every acknowledged insert.
func (o *oracle) add(recs []table.Record) {
	for i := range recs {
		o.byID[recs[i].ObjID] = len(o.recs)
		o.recs = append(o.recs, recs[i])
		o.pts = append(o.pts, recs[i].Point())
	}
}

// check verifies one response body against the oracle and returns a
// hash of the rows it carried. The hash covers row content only, so a
// single store and a cluster serving the same rows hash equal; it is
// 0 when the statement leaves the choice of rows to the server.
func (o *oracle) check(op *op, body []byte) (uint64, error) {
	switch op.ep {
	case epQuery:
		return o.checkQuery(op, body)
	case epKnn:
		return o.checkKnn(op, body)
	case epPhotoz:
		return o.checkPhotoz(body)
	case epSky:
		return o.checkSky(op, body)
	default:
		return o.checkInsert(op, body)
	}
}

// rowIndexes resolves response objids to oracle rows, rejecting
// unknown and repeated ids.
func (o *oracle) rowIndexes(ids []int64) ([]int, error) {
	seen := make(map[int64]bool, len(ids))
	idx := make([]int, len(ids))
	for i, id := range ids {
		j, ok := o.byID[id]
		if !ok {
			return nil, fmt.Errorf("row %d: objid %d is not in the catalog", i, id)
		}
		if seen[id] {
			return nil, fmt.Errorf("row %d: objid %d returned twice", i, id)
		}
		seen[id] = true
		idx[i] = j
	}
	return idx, nil
}

var objidPrefix = []byte(`{"objid":`)

func (o *oracle) checkQuery(op *op, body []byte) (uint64, error) {
	stmt, err := colorsql.ParseStatement(op.stmt, colorsql.DefaultVars(), table.Dim)
	if err != nil {
		return 0, err
	}
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	var summary struct {
		Summary *struct {
			RowsReturned int `json:"rowsReturned"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &summary); err != nil || summary.Summary == nil {
		return 0, fmt.Errorf("stream does not end in a summary line: %.80q", lines[len(lines)-1])
	}
	rows := lines[:len(lines)-1]
	if summary.Summary.RowsReturned != len(rows) {
		return 0, fmt.Errorf("summary says %d rows, stream carried %d", summary.Summary.RowsReturned, len(rows))
	}

	// Every projection in the workloads leads with objid.
	ids := make([]int64, len(rows))
	h := fnv.New64a()
	for i, line := range rows {
		if !bytes.HasPrefix(line, objidPrefix) {
			return 0, fmt.Errorf("row %d does not lead with objid: %.80q", i, line)
		}
		rest := line[len(objidPrefix):]
		end := bytes.IndexAny(rest, ",}")
		if end < 0 {
			return 0, fmt.Errorf("row %d: malformed: %.80q", i, line)
		}
		if ids[i], err = strconv.ParseInt(string(rest[:end]), 10, 64); err != nil {
			return 0, fmt.Errorf("row %d: %w", i, err)
		}
		h.Write(line)
		h.Write([]byte{'\n'})
	}
	got, err := o.rowIndexes(ids)
	if err != nil {
		return 0, err
	}

	if ord := stmt.Order; ord != nil && ord.Dist != nil && !ord.Desc && !stmt.HasWhere && stmt.Limit > 0 {
		// The engine serves this shape as kNN.
		return h.Sum64(), o.checkNearest(ord.Dist, stmt.Limit, got, ids)
	}

	var matches []int
	for i, p := range o.pts {
		if !stmt.HasWhere || stmt.Where.Contains(p) {
			matches = append(matches, i)
		}
	}
	want := len(matches)
	if stmt.Limit >= 0 {
		want = min(want, stmt.Limit)
	}
	if len(got) != want {
		return 0, fmt.Errorf("%d rows, oracle has %d (matches %d, limit %d)", len(got), want, len(matches), stmt.Limit)
	}
	for i, j := range got {
		if stmt.HasWhere && !stmt.Where.Contains(o.pts[j]) {
			return 0, fmt.Errorf("row %d (objid %d) does not satisfy the predicate", i, ids[i])
		}
	}
	if stmt.Order == nil {
		if want < len(matches) {
			// Any LIMIT of the matches is a right answer, and a single
			// store and a cluster pick different ones: no hash.
			return 0, nil
		}
		return h.Sum64(), nil
	}
	// Ties may come back in any order: compare the key sequence.
	keys := make([]float64, len(matches))
	for i, j := range matches {
		keys[i] = stmt.Order.Key(o.pts[j])
	}
	sort.Float64s(keys)
	for i, j := range got {
		wantKey := keys[i]
		if stmt.Order.Desc {
			wantKey = keys[len(keys)-1-i]
		}
		if k := stmt.Order.Key(o.pts[j]); k != wantKey {
			return 0, fmt.Errorf("row %d (objid %d): order key %v, oracle has %v", i, ids[i], k, wantKey)
		}
	}
	// float32 keys tie, and a single store and a cluster break ties
	// differently: hash the rows as a set, and when LIMIT cut the
	// answer leave out the last key's tie group, whose members the
	// server chooses.
	keep := rows
	if want < len(matches) {
		lastKey := stmt.Order.Key(o.pts[got[len(got)-1]])
		for len(keep) > 0 && stmt.Order.Key(o.pts[got[len(keep)-1]]) == lastKey {
			keep = keep[:len(keep)-1]
		}
	}
	keep = append([][]byte(nil), keep...)
	sort.Slice(keep, func(a, b int) bool { return bytes.Compare(keep[a], keep[b]) < 0 })
	h.Reset()
	for _, line := range keep {
		h.Write(line)
	}
	return h.Sum64(), nil
}

// checkNearest checks a k-nearest answer: got are the returned rows,
// nearest first. Catalog rows must be exactly the nearest catalog
// rows. Inserted rows may appear or not: at this commit kNN does not
// search the rows a minor compaction appended past the kd-tree's
// prefix (core.NearestNeighbors calls Searcher.Search, not
// SearchTailMerged), so an inserted row drops out of kNN answers
// between its compaction and the next full one. README.md records
// the defect; with no inserted rows this is the exact check.
func (o *oracle) checkNearest(p vec.Point, k int, got []int, ids []int64) error {
	if want := min(k, len(o.pts)); len(got) != want {
		return fmt.Errorf("%d neighbours, want %d", len(got), want)
	}
	order := colorsql.OrderBy{Dist: p}
	dists := make([]float64, 0, len(got)+1) // the nearest catalog distances, ascending
	for i := 0; i < o.base; i++ {
		d := order.Key(o.pts[i])
		if len(dists) == len(got) && d >= dists[len(dists)-1] {
			continue
		}
		at := sort.SearchFloat64s(dists, d)
		dists = append(dists, 0)
		copy(dists[at+1:], dists[at:])
		dists[at] = d
		dists = dists[:min(len(dists), len(got))]
	}
	last, catalogRows := math.Inf(-1), 0
	for i, j := range got {
		d := order.Key(o.pts[j])
		if d < last {
			return fmt.Errorf("neighbour %d (objid %d) is nearer than the one before it", i, ids[i])
		}
		last = d
		if j >= o.base {
			continue
		}
		if d != dists[catalogRows] {
			return fmt.Errorf("neighbour %d (objid %d) at squared distance %v, oracle has %v", i, ids[i], d, dists[catalogRows])
		}
		catalogRows++
	}
	return nil
}

func hashIDs(ids []int64) uint64 {
	h := fnv.New64a()
	for _, id := range ids {
		binary.Write(h, binary.LittleEndian, id)
	}
	return h.Sum64()
}

func (o *oracle) checkKnn(op *op, body []byte) (uint64, error) {
	var resp struct {
		Results []struct {
			Neighbors []struct {
				ObjID int64 `json:"objId"`
			} `json:"neighbors"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, err
	}
	if len(resp.Results) != 1 {
		return 0, fmt.Errorf("%d results for one point", len(resp.Results))
	}
	ids := make([]int64, len(resp.Results[0].Neighbors))
	for i, nb := range resp.Results[0].Neighbors {
		ids[i] = nb.ObjID
	}
	got, err := o.rowIndexes(ids)
	if err != nil {
		return 0, err
	}
	return hashIDs(ids), o.checkNearest(vec.Point(op.point[:]), op.k, got, ids)
}

// checkPhotoz cannot recompute the local polynomial fit without
// reimplementing it; it checks the shape and that the estimate is a
// plausible redshift. The hash pins the value against the other
// topology.
func (o *oracle) checkPhotoz(body []byte) (uint64, error) {
	var resp struct {
		Redshifts []float64 `json:"redshifts"`
		Queries   int       `json:"queries"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, err
	}
	if len(resp.Redshifts) != 1 || resp.Queries != 1 {
		return 0, fmt.Errorf("%d redshifts, %d queries for one point", len(resp.Redshifts), resp.Queries)
	}
	if z := resp.Redshifts[0]; math.IsNaN(z) || z < -1 || z > 10 {
		return 0, fmt.Errorf("redshift %v is not plausible", z)
	}
	return math.Float64bits(resp.Redshifts[0]), nil
}

func (o *oracle) checkSky(op *op, body []byte) (uint64, error) {
	var resp struct {
		Count  int `json:"count"`
		Points []struct {
			ObjID int64 `json:"objId"`
		} `json:"points"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, err
	}
	if resp.Count != len(resp.Points) {
		return 0, fmt.Errorf("count says %d rows, body carried %d", resp.Count, len(resp.Points))
	}
	ids := make([]int64, len(resp.Points))
	for i, p := range resp.Points {
		ids[i] = p.ObjID
	}
	got, err := o.rowIndexes(ids)
	if err != nil {
		return 0, err
	}
	box := table.SkyBoxPred{RaMin: op.box[0], RaMax: op.box[1], DecMin: op.box[2], DecMax: op.box[3]}
	matches := 0
	for i := range o.recs {
		if box.Contains(float64(o.recs[i].Ra), float64(o.recs[i].Dec)) {
			matches++
		}
	}
	if want := min(matches, op.limit); len(got) != want {
		return 0, fmt.Errorf("%d rows, oracle has %d", len(got), want)
	}
	for i, j := range got {
		if !box.Contains(float64(o.recs[j].Ra), float64(o.recs[j].Dec)) {
			return 0, fmt.Errorf("row %d (objid %d) is outside the box", i, ids[i])
		}
	}
	if len(got) < matches {
		return 0, nil // a LIMIT of an unordered answer: no hash
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return hashIDs(ids), nil
}

func (o *oracle) checkInsert(op *op, body []byte) (uint64, error) {
	var resp struct {
		Inserted int `json:"inserted"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, err
	}
	if resp.Inserted != len(op.rows) {
		return 0, fmt.Errorf("acknowledged %d rows of %d", resp.Inserted, len(op.rows))
	}
	o.add(op.rows)
	return uint64(resp.Inserted), nil
}
