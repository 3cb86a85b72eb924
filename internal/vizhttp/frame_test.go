package vizhttp

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/table"
)

// sameBits compares two records through their encodings, so NaN
// magnitudes and the sign of zero count.
func sameBits(a, b *table.Record) bool {
	var ea, eb [table.RecordSize]byte
	a.Encode(ea[:])
	b.Encode(eb[:])
	return ea == eb
}

// encodeStream renders recs as a complete stream, a rows frame sealed
// after every per rows (per < 1: one frame).
func encodeStream(cols table.ColumnSet, recs []table.Record, per int, rep core.Report) []byte {
	fw := FrameWriter{Cols: cols}
	b := fw.Begin(nil)
	for i := range recs {
		b = fw.Row(b, &recs[i])
		if per > 0 && (i+1)%per == 0 {
			b = fw.Seal(b)
		}
	}
	return fw.End(b, rep, nil)
}

// decodeStream reads a stream to its end: the rows of every intact
// frame before it, and the summary or the error that ended it.
func decodeStream(stream []byte) (recs []table.Record, rep *core.Report, err error) {
	fr, err := NewFrameReader(bytes.NewReader(stream))
	for err == nil && rep == nil {
		var block []table.Record
		block, rep, err = fr.Next()
		recs = append(recs, block...)
	}
	return recs, rep, err
}

// FuzzFrameRoundTrip: any records under any column set come back from
// the wire as Record.Project(cols) of what went in, every float32 bit
// pattern intact, however the rows were split into frames; the summary
// comes back whole.
func FuzzFrameRoundTrip(f *testing.F) {
	special := make([]byte, 0, 2*table.RecordSize)
	for _, rec := range []table.Record{
		{ObjID: -1, Mags: [5]float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32},
			Ra: math.MaxFloat32, Dec: -90, Redshift: math.Float32frombits(0x7fa00001), HasZ: true, Class: table.Quasar, LeafID: 7},
		{ObjID: math.MaxInt64, Class: table.Outlier, RandomID: 1 << 31, Layer: 3, ContainedBy: 9, CellID: 11},
	} {
		var buf [table.RecordSize]byte
		rec.Encode(buf[:])
		special = append(special, buf[:]...)
	}
	f.Add(special, uint16(table.ColAll), uint8(1), int64(5))
	f.Add(special, uint16(table.ColMags|table.ColObjID), uint8(0), int64(0))
	f.Add([]byte{}, uint16(0), uint8(3), int64(-1))
	f.Fuzz(func(t *testing.T, raw []byte, colBits uint16, per uint8, counter int64) {
		cols := table.ColumnSet(colBits)
		recs := make([]table.Record, len(raw)/table.RecordSize)
		for i := range recs {
			recs[i].Decode(raw[i*table.RecordSize:])
			recs[i].Class %= table.NumClasses // an unknown class is an error, tested apart
		}
		rep := core.Report{Plan: livePlans[uint64(counter)%uint64(len(livePlans))], EstimatedSelectivity: math.Float64frombits(uint64(counter)),
			RowsReturned: counter, RowsExamined: counter + 1, DiskReads: counter + 2, CacheHits: counter + 3,
			PagesSkipped: counter + 4, PagesScanned: counter + 5, StripsDecoded: counter + 6, LeavesExamined: counter + 7}

		got, gotRep, err := decodeStream(encodeStream(cols, recs, int(per), rep))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(recs) {
			t.Fatalf("%d rows in, %d out", len(recs), len(got))
		}
		for i := range recs {
			if want := recs[i].Project(cols); !sameBits(&got[i], &want) {
				t.Fatalf("row %d under %04x: got %+v, want %+v", i, colBits, got[i], want)
			}
		}
		if math.Float64bits(gotRep.EstimatedSelectivity) != math.Float64bits(rep.EstimatedSelectivity) {
			t.Fatalf("selectivity bits changed")
		}
		gotRep.EstimatedSelectivity, rep.EstimatedSelectivity = 0, 0
		if *gotRep != rep {
			t.Fatalf("summary: got %+v, want %+v", *gotRep, rep)
		}
	})
}

// faultRecs is a small catalog for the damaged-stream tests.
func faultRecs(n int) []table.Record {
	recs := make([]table.Record, n)
	for i := range recs {
		recs[i] = table.Record{ObjID: int64(i + 1), Mags: [5]float32{15, 16, 17, 18, float32(i)}, Class: table.Galaxy}
	}
	return recs
}

// requirePrefix asserts a damaged stream ended in an error after some
// whole-frame prefix of the rows — never a summary, never a row that
// was not sent.
func requirePrefix(t *testing.T, label string, stream []byte, sent []table.Record) {
	t.Helper()
	got, rep, err := decodeStream(stream)
	if err == nil || rep != nil {
		t.Fatalf("%s: damaged stream read cleanly (%d rows, summary %v)", label, len(got), rep)
	}
	if len(got) > len(sent) {
		t.Fatalf("%s: %d rows out of %d sent", label, len(got), len(sent))
	}
	for i := range got {
		if !sameBits(&got[i], &sent[i]) {
			t.Fatalf("%s: row %d is not the row sent", label, i)
		}
	}
}

// TestFrameStreamCutAnywhere: a multi-block stream cut at every byte
// offset is an error saying so.
func TestFrameStreamCutAnywhere(t *testing.T) {
	recs := faultRecs(7)
	stream := encodeStream(table.ColAll, recs, 3, core.Report{RowsReturned: 7})
	for cut := 0; cut < len(stream); cut++ {
		requirePrefix(t, "cut", stream[:cut], recs)
		if _, _, err := decodeStream(stream[:cut]); !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("cut at %d of %d: %v", cut, len(stream), err)
		}
	}
	if got, rep, err := decodeStream(stream); err != nil || rep == nil || len(got) != len(recs) {
		t.Fatalf("intact stream: %d rows, summary %v, err %v", len(got), rep, err)
	}
}

// TestFrameStreamBitFlip: one flipped bit anywhere — header, a frame's
// kind, length, payload or checksum, the summary — is an error.
func TestFrameStreamBitFlip(t *testing.T) {
	recs := faultRecs(7)
	stream := encodeStream(table.ColAll, recs, 3, core.Report{RowsReturned: 7})
	for i := range stream {
		for bit := 0; bit < 8; bit++ {
			damaged := bytes.Clone(stream)
			damaged[i] ^= 1 << bit
			requirePrefix(t, "flip", damaged, recs)
		}
	}
}

// TestFrameStreamEndings: rows with no summary after them, an error
// frame after rows, bytes after the summary and a class the table does
// not know.
func TestFrameStreamEndings(t *testing.T) {
	recs := faultRecs(4)
	fw := FrameWriter{Cols: table.ColAll}
	rows := fw.Begin(nil)
	for i := range recs {
		rows = fw.Row(rows, &recs[i])
	}
	rows = fw.Seal(rows)

	requirePrefix(t, "no summary", rows, recs)

	failed := fw.End(bytes.Clone(rows), core.Report{}, errors.New("page 7 unreadable"))
	got, _, err := decodeStream(failed)
	if err == nil || err.Error() != "page 7 unreadable" || len(got) != len(recs) {
		t.Fatalf("error frame after rows: %d rows, err %v", len(got), err)
	}

	trailing := append(fw.End(bytes.Clone(rows), core.Report{}, nil), 0)
	requirePrefix(t, "bytes after summary", trailing, recs)

	bad := []table.Record{{ObjID: 1, Class: table.NumClasses}}
	if got, _, err := decodeStream(encodeStream(table.ColAll, bad, 0, core.Report{})); err == nil || len(got) != 0 {
		t.Fatalf("unknown class: %d rows, err %v", len(got), err)
	}
}

// TestFrameStreamRejectsOlderVersion: a stream whose header is intact
// but names version 1 — whose summary frame had nine fields — is
// refused before any frame is read, and the error says which header
// the reader wanted.
func TestFrameStreamRejectsOlderVersion(t *testing.T) {
	stream := encodeStream(table.ColAll, faultRecs(2), 0, core.Report{RowsReturned: 2})
	stream[3] = 1
	binary.LittleEndian.PutUint32(stream[6:], crc32.ChecksumIEEE(stream[:6]))
	_, err := NewFrameReader(bytes.NewReader(stream))
	if err == nil || !strings.Contains(err.Error(), "not a frame stream this reader knows") || !strings.Contains(err.Error(), `want "RQF\x02"`) {
		t.Fatalf("version 1 header: %v", err)
	}
}

// TestSkyAndPointsFramesMatchJSON: the frame answer of /sky and of
// /points holds the rows and counters of the endpoint's JSON answer —
// /sky under and over its limit — which is what lets the coordinator
// read them as frames and still write its clients the same bytes.
func TestSkyAndPointsFramesMatchJSON(t *testing.T) {
	s := newTestServer(t)
	get := func(path string, frames bool) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest("GET", path, nil)
		if frames {
			req.Header.Set("Accept", FrameContentType)
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, w.Code, w.Body)
		}
		return w
	}
	framed := func(path string) ([]table.Record, core.Report) {
		t.Helper()
		w := get(path, true)
		if ct := w.Header().Get("Content-Type"); ct != FrameContentType {
			t.Fatalf("%s: content type %q", path, ct)
		}
		recs, rep, err := decodeStream(w.Body.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return recs, *rep
	}

	for _, path := range []string{
		"/sky?ra=0,360&dec=-90,90&limit=7",
		"/sky?ra=100,140&dec=-20,20",
		"/sky?ra=100,140&dec=-20,20&limit=1000000",
		"/sky?ra=1,1&dec=1,1",
	} {
		get(path, false) // the first cut builds the sky index; compare warm answers
		want := get(path, false).Body.Bytes()
		recs, rep := framed(path)
		var points []byte
		for i := range recs {
			if i > 0 {
				points = append(points, ',')
			}
			points = appendSkyPoint(points, &recs[i])
		}
		if got := appendSkyBody(nil, len(recs), rep, points); !bytes.Equal(got, want) {
			t.Fatalf("%s: frames render as\n%s\nJSON answer is\n%s", path, got, want)
		}
		if rep.RowsReturned != int64(len(recs)) {
			t.Fatalf("%s: summary rowsReturned %d for %d rows", path, rep.RowsReturned, len(recs))
		}
	}

	for _, path := range []string{"/points?min=10,10,10&max=30,30,30&n=100", "/points?min=14,14,14&max=16,16,16&n=5000"} {
		var want struct {
			Count  int         `json:"count"`
			Points []pointJSON `json:"points"`
		}
		if err := json.Unmarshal(get(path, false).Body.Bytes(), &want); err != nil {
			t.Fatal(err)
		}
		recs, rep := framed(path)
		got := make([]pointJSON, len(recs))
		for i, rec := range recs {
			got[i] = pointJSON{X: float64(rec.Mags[0]), Y: float64(rec.Mags[1]), Z: float64(rec.Mags[2]),
				Class: rec.Class.String(), Redshift: rec.Redshift}
		}
		if want.Count == 0 || len(got) != want.Count || !reflect.DeepEqual(got, want.Points) {
			t.Fatalf("%s: %d framed points, JSON has %d, or they differ", path, len(got), want.Count)
		}
		if rep.Plan != core.PlanGrid || rep.RowsReturned != int64(len(recs)) {
			t.Fatalf("%s: summary %+v", path, rep)
		}
	}
}
