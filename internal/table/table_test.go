package table

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pagestore"
	"repro/internal/vec"
)

func newTable(t *testing.T, pool int) *Table {
	t.Helper()
	s, err := pagestore.Open(t.TempDir(), pool)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	tb, err := Create(s, "mag.tbl")
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func randomRecord(rng *rand.Rand, id int64) Record {
	r := Record{
		ObjID:       id,
		Ra:          rng.Float32() * 360,
		Dec:         rng.Float32()*180 - 90,
		Redshift:    rng.Float32(),
		HasZ:        rng.Intn(2) == 0,
		Class:       Class(rng.Intn(int(NumClasses))),
		RandomID:    rng.Uint32(),
		Layer:       uint16(rng.Intn(10)),
		ContainedBy: rng.Uint32(),
		CellID:      rng.Uint32(),
		LeafID:      rng.Uint32(),
	}
	for i := range r.Mags {
		r.Mags[i] = rng.Float32()*10 + 14
	}
	return r
}

func TestRecordEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := randomRecord(rand.New(rand.NewSource(seed)), seed)
		var buf [RecordSize]byte
		r.Encode(buf[:])
		var got Record
		got.Decode(buf[:])
		return got == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestAppendGetScan(t *testing.T) {
	tb := newTable(t, 16)
	rng := rand.New(rand.NewSource(3))
	n := RecordsPerPage*3 + 17 // several pages plus a partial tail
	want := make([]Record, n)
	for i := range want {
		want[i] = randomRecord(rng, int64(i))
	}
	if err := tb.AppendAll(want); err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != uint64(n) {
		t.Fatalf("NumRows = %d, want %d", tb.NumRows(), n)
	}

	var rec Record
	for _, id := range []RowID{0, RowID(RecordsPerPage - 1), RowID(RecordsPerPage), RowID(n - 1)} {
		if err := tb.Get(id, &rec); err != nil {
			t.Fatal(err)
		}
		if rec != want[id] {
			t.Errorf("Get(%d) mismatch", id)
		}
	}

	count := 0
	err := tb.Scan(func(id RowID, r *Record) bool {
		if *r != want[id] {
			t.Fatalf("scan row %d mismatch", id)
		}
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Errorf("scan visited %d rows, want %d", count, n)
	}
}

func TestGetOutOfRange(t *testing.T) {
	tb := newTable(t, 4)
	var rec Record
	if err := tb.Get(0, &rec); err == nil {
		t.Error("expected error on empty table")
	}
}

func TestScanEarlyStop(t *testing.T) {
	tb := newTable(t, 8)
	recs := make([]Record, 100)
	for i := range recs {
		recs[i] = Record{ObjID: int64(i)}
	}
	if err := tb.AppendAll(recs); err != nil {
		t.Fatal(err)
	}
	count := 0
	tb.Scan(func(id RowID, r *Record) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestScanRange(t *testing.T) {
	tb := newTable(t, 8)
	n := RecordsPerPage*2 + 5
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{ObjID: int64(i)}
	}
	if err := tb.AppendAll(recs); err != nil {
		t.Fatal(err)
	}
	lo, hi := RowID(RecordsPerPage-2), RowID(RecordsPerPage+3)
	var got []int64
	err := tb.ScanRange(lo, hi, func(id RowID, r *Record) bool {
		got = append(got, r.ObjID)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != int(hi-lo) {
		t.Fatalf("range visited %d rows, want %d", len(got), hi-lo)
	}
	for i, v := range got {
		if v != int64(lo)+int64(i) {
			t.Errorf("range row %d = %d", i, v)
		}
	}
	// Range clamped to table end.
	var tail []int64
	tb.ScanRange(RowID(n-2), RowID(n+100), func(id RowID, r *Record) bool {
		tail = append(tail, r.ObjID)
		return true
	})
	if len(tail) != 2 {
		t.Errorf("clamped range visited %d rows", len(tail))
	}
}

func TestGetManySharesPages(t *testing.T) {
	tb := newTable(t, 64)
	n := RecordsPerPage * 4
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{ObjID: int64(i)}
	}
	if err := tb.AppendAll(recs); err != nil {
		t.Fatal(err)
	}
	tb.Store().DropCache()

	// All ids from one page: must cost exactly 1 disk read.
	ids := make([]RowID, 0, RecordsPerPage)
	for i := 0; i < RecordsPerPage; i++ {
		ids = append(ids, RowID(i))
	}
	before := tb.Store().Stats()
	if err := tb.GetMany(ids, func(id RowID, r *Record) bool {
		if r.ObjID != int64(id) {
			t.Fatalf("row %d has ObjID %d", id, r.ObjID)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	d := tb.Store().Stats().Sub(before)
	if d.DiskReads != 1 {
		t.Errorf("GetMany over one page cost %d disk reads", d.DiskReads)
	}
}

func TestOpenExisting(t *testing.T) {
	dir := t.TempDir()
	s, err := pagestore.Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := Create(s, "t.tbl")
	n := RecordsPerPage + 3
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{ObjID: int64(i)}
	}
	tb.AppendAll(recs)
	s.Close()

	s2, err := pagestore.Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tb2, err := OpenExisting(s2, "t.tbl")
	if err != nil {
		t.Fatal(err)
	}
	if tb2.NumRows() != uint64(n) {
		t.Fatalf("reopened NumRows = %d, want %d", tb2.NumRows(), n)
	}
	var rec Record
	tb2.Get(RowID(n-1), &rec)
	if rec.ObjID != int64(n-1) {
		t.Errorf("last row = %d", rec.ObjID)
	}
}

func TestAppendResumesPartialPage(t *testing.T) {
	tb := newTable(t, 8)
	if err := tb.AppendAll([]Record{{ObjID: 1}}); err != nil {
		t.Fatal(err)
	}
	// Second AppendAll opens a fresh Appender which must resume the
	// partially filled tail page.
	if err := tb.AppendAll([]Record{{ObjID: 2}}); err != nil {
		t.Fatal(err)
	}
	if tb.NumPages() != 1 {
		t.Errorf("two rows should fit one page, got %d pages", tb.NumPages())
	}
	var rec Record
	tb.Get(1, &rec)
	if rec.ObjID != 2 {
		t.Errorf("resumed append row = %d", rec.ObjID)
	}
}

func TestPointRoundTrip(t *testing.T) {
	var r Record
	p := vec.Point{1, 2, 3, 4, 5}
	r.SetPoint(p)
	if !r.Point().Equal(p) {
		t.Errorf("Point round trip = %v", r.Point())
	}
}

func TestScanMags(t *testing.T) {
	tb := newTable(t, 8)
	rng := rand.New(rand.NewSource(9))
	recs := make([]Record, 200)
	for i := range recs {
		recs[i] = randomRecord(rng, int64(i))
	}
	tb.AppendAll(recs)
	i := 0
	err := tb.ScanMags(func(id RowID, m *[Dim]float64) bool {
		for j := range m {
			if float32(m[j]) != recs[id].Mags[j] {
				t.Fatalf("row %d mag %d = %v", id, j, m[j])
			}
		}
		i++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(recs) {
		t.Errorf("visited %d rows", i)
	}
}

func TestCodecsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, c := range []Codec{NativeCodec{}, GobCodec{}} {
		for i := 0; i < 50; i++ {
			r := randomRecord(rng, int64(i))
			buf, err := c.Encode(nil, &r)
			if err != nil {
				t.Fatal(err)
			}
			var got Record
			rest, err := c.Decode(buf, &got)
			if err != nil {
				t.Fatalf("%s: %v", c.Name(), err)
			}
			if len(rest) != 0 {
				t.Fatalf("%s left %d bytes", c.Name(), len(rest))
			}
			if got != r {
				t.Fatalf("%s round trip mismatch", c.Name())
			}
		}
	}
}

func TestBlobCodecDecodesMags(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r := randomRecord(rng, 1)
	buf, err := BlobCodec{}.Encode(nil, &r)
	if err != nil {
		t.Fatal(err)
	}
	var got Record
	if _, err := (BlobCodec{}).Decode(buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.Mags != r.Mags {
		t.Errorf("blob mags = %v, want %v", got.Mags, r.Mags)
	}
	if got.ObjID != 0 {
		t.Errorf("blob codec should not decode ObjID, got %d", got.ObjID)
	}
}

func TestCodecShortBuffers(t *testing.T) {
	var r Record
	if _, err := (NativeCodec{}).Decode([]byte{1, 2}, &r); err == nil {
		t.Error("native short buffer should fail")
	}
	if _, err := (GobCodec{}).Decode([]byte{1}, &r); err == nil {
		t.Error("gob short buffer should fail")
	}
	if _, err := (BlobCodec{}).Decode([]byte{1}, &r); err == nil {
		t.Error("blob short buffer should fail")
	}
}
