package core

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/colorsql"
	"repro/internal/sky"
	"repro/internal/table"
)

// refAppendRowJSON is the per-row serialiser RowEncoder replaced, kept
// verbatim as the reference the compiled encoder must reproduce byte
// for byte: it re-quotes every column name and re-dispatches on the
// column kind for every row.
func refAppendRowJSON(dst []byte, cols []colorsql.Column, rec *table.Record) []byte {
	dst = append(dst, '{')
	for i, c := range cols {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendQuote(dst, c.Name)
		dst = append(dst, ':')
		switch c.Kind {
		case colorsql.ColMag:
			dst = strconv.AppendFloat(dst, float64(rec.Mags[c.Axis]), 'g', -1, 32)
		case colorsql.ColObjID:
			dst = strconv.AppendInt(dst, rec.ObjID, 10)
		case colorsql.ColRa:
			dst = strconv.AppendFloat(dst, float64(rec.Ra), 'g', -1, 32)
		case colorsql.ColDec:
			dst = strconv.AppendFloat(dst, float64(rec.Dec), 'g', -1, 32)
		case colorsql.ColRedshift:
			dst = strconv.AppendFloat(dst, float64(rec.Redshift), 'g', -1, 32)
		case colorsql.ColClass:
			dst = strconv.AppendQuote(dst, rec.Class.String())
		}
	}
	return append(dst, '}')
}

// edgeFloats are the float32 values whose shortest decimal is easiest
// to get wrong: signed zeros, the denormal range, the extremes, and
// values on either side of the 'g' format's exponent cutoffs.
var edgeFloats = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, 1.1754942e-38,
	math.MaxFloat32, -math.MaxFloat32,
	1e-5, 9.9999e-5, 1e-4, 1e20, 1e21, 1.0000001e21, 16777216, 0.1, -17.25, 359.99997,
}

func randFloat32(rng *rand.Rand) float32 {
	switch rng.Intn(4) {
	case 0:
		return edgeFloats[rng.Intn(len(edgeFloats))]
	case 1:
		// Any finite bit pattern.
		for {
			if f := math.Float32frombits(rng.Uint32()); !math.IsNaN(float64(f)) && !math.IsInf(float64(f), 0) {
				return f
			}
		}
	default:
		return float32(12 + 16*rng.Float64())
	}
}

func randRecord(rng *rand.Rand) table.Record {
	rec := table.Record{
		ObjID:    rng.Int63() - rng.Int63(),
		Ra:       randFloat32(rng),
		Dec:      randFloat32(rng),
		Redshift: randFloat32(rng),
		// One past NumClasses exercises the unnamed-class fallback.
		Class: table.Class(rng.Intn(int(table.NumClasses) + 2)),
	}
	if rng.Intn(8) == 0 {
		rec.ObjID = []int64{0, -1, math.MinInt64, math.MaxInt64}[rng.Intn(4)]
	}
	for i := range rec.Mags {
		rec.Mags[i] = randFloat32(rng)
	}
	return rec
}

// checkEncoder compares the compiled encoder against the reference on
// one projection and record, through both of its entry points.
func checkEncoder(t *testing.T, cols []colorsql.Column, rec *table.Record) {
	t.Helper()
	enc := NewRowEncoder(cols)
	want := refAppendRowJSON(nil, cols, rec)
	if got := enc.AppendRow(nil, rec); !bytes.Equal(got, want) {
		t.Fatalf("cols %v rec %+v:\n encoder   %s\n reference %s", cols, *rec, got, want)
	}
	// Appending must extend dst, not clobber it.
	if got := enc.AppendRow([]byte("x\n"), rec); !bytes.Equal(got[2:], want) || string(got[:2]) != "x\n" {
		t.Fatalf("AppendRow clobbered its destination: %s", got)
	}
	if got := AppendRowJSON(nil, cols, rec); !bytes.Equal(got, want) {
		t.Fatalf("AppendRowJSON wrapper diverged: %s vs %s", got, want)
	}
	for i, c := range cols {
		want := refAppendRowJSON(nil, []colorsql.Column{c}, rec)
		want = want[len(strconv.Quote(c.Name))+2 : len(want)-1]
		if got := enc.AppendValue(nil, i, rec); !bytes.Equal(got, want) {
			t.Fatalf("AppendValue(%d) = %s, reference %s", i, got, want)
		}
	}
}

// TestRowEncoderMatchesReference is the "exact same bytes before and
// after" contract of the row path: every subset of the star columns,
// in shuffled order, over random and edge-case records.
func TestRowEncoderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	star := colorsql.StarColumns()
	for mask := 0; mask < 1<<len(star); mask++ {
		var cols []colorsql.Column
		for i, c := range star {
			if mask&(1<<i) != 0 {
				cols = append(cols, c)
			}
		}
		rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		for n := 0; n < 4; n++ {
			rec := randRecord(rng)
			checkEncoder(t, cols, &rec)
		}
	}
	// Every edge float in every float column, every class.
	for _, f := range edgeFloats {
		for c := table.Class(0); c <= table.NumClasses; c++ {
			rec := table.Record{ObjID: -42, Mags: [table.Dim]float32{f, -f, f, f, f}, Ra: f, Dec: -f, Redshift: f, Class: c}
			checkEncoder(t, star, &rec)
		}
	}
	// Repeated and aliased columns keep their written names.
	stmt := mustStatement(t, "SELECT r, r, objid, class, r")
	rec := randRecord(rng)
	checkEncoder(t, stmt.OutputColumns(), &rec)
}

// FuzzRowEncoder drives the same differential from fuzzed field
// values and a fuzzed projection (one star-column index per byte of
// order).
func FuzzRowEncoder(f *testing.F) {
	f.Add(int64(-7), uint32(0x80000000), uint32(1), uint32(0x7f7fffff), uint32(0), uint8(3), []byte{0, 9, 3, 3})
	f.Add(int64(math.MinInt64), uint32(0x00800000), uint32(0x3dcccccd), uint32(0x41a00000), uint32(0x007fffff), uint8(200), []byte{9})
	f.Fuzz(func(t *testing.T, id int64, a, b, c, d uint32, class uint8, order []byte) {
		fl := func(bits uint32) float32 {
			v := math.Float32frombits(bits)
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return 0
			}
			return v
		}
		rec := table.Record{
			ObjID: id, Mags: [table.Dim]float32{fl(a), fl(b), fl(c), fl(d), fl(a ^ b)},
			Ra: fl(c ^ d), Dec: fl(b ^ c), Redshift: fl(a ^ d), Class: table.Class(class),
		}
		star := colorsql.StarColumns()
		cols := make([]colorsql.Column, 0, len(order))
		for _, o := range order {
			cols = append(cols, star[int(o)%len(star)])
		}
		checkEncoder(t, cols, &rec)
	})
}

// TestRowEncoderZeroAllocs: in steady state — destination already
// grown — encoding a row allocates nothing.
func TestRowEncoderZeroAllocs(t *testing.T) {
	enc := NewRowEncoder(colorsql.StarColumns())
	rec := randRecord(rand.New(rand.NewSource(1)))
	rec.Class = table.Quasar // an unnamed class formats through fmt
	buf := enc.AppendRow(nil, &rec)
	if n := testing.AllocsPerRun(100, func() { buf = enc.AppendRow(buf[:0], &rec) }); n != 0 {
		t.Errorf("AppendRow allocates %v times per row", n)
	}
}

// TestDuplicateObjIDSemantics pins what the engine does with two
// physical rows sharing one ObjID: rows are never merged. Whatever the
// WHERE — none, one clause, or a DNF union both copies satisfy twice
// over — each physical row is visited once and both come back, so
// adding a disjunct never shrinks an answer. The same holds when a
// copy sits in the memtable.
func TestDuplicateObjIDSemantics(t *testing.T) {
	recs, err := sky.Generate(sky.DefaultParams(600, 5))
	if err != nil {
		t.Fatal(err)
	}
	dup := recs[17]
	dup.Mags[2] += 0.5 // a different physical row, same identity
	recs = append(recs, dup)
	db := openDB(t, 0)
	if err := db.IngestRecords(recs); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildKdIndex(0); err != nil {
		t.Fatal(err)
	}

	count := func(src string, plan Plan) (rows, dups int) {
		t.Helper()
		got, _ := collectStatement(t, db, src, plan)
		for i := range got {
			if got[i].ObjID == dup.ObjID {
				dups++
			}
		}
		return len(got), dups
	}
	check := func(label string, wantRows, wantDups int) {
		t.Helper()
		for _, plan := range []Plan{PlanAuto, PlanFullScan} {
			for _, tc := range []struct {
				src         string
				rows, copys int
			}{
				{"SELECT *", wantRows, wantDups},
				{"SELECT * WHERE r < 40", wantRows, wantDups},
				{"SELECT objid, r WHERE r < 40 ORDER BY r", wantRows, wantDups},
				{"SELECT * WHERE r < 40 OR g < 40", wantRows, wantDups},
			} {
				rows, dups := count(tc.src, plan)
				if rows != tc.rows || dups != tc.copys {
					t.Errorf("%s, plan %v, %q: %d rows with %d copies of the shared ObjID, want %d with %d",
						label, plan, tc.src, rows, dups, tc.rows, tc.copys)
				}
			}
		}
	}
	check("paged", 601, 2)

	// A pushed-down LIMIT is exact: nothing above it can shrink the
	// answer below the bound.
	for _, where := range []string{"r < 40", "r < 40 OR g < 40"} {
		if rows, _ := count("SELECT * WHERE "+where+" LIMIT 601", PlanAuto); rows != 601 {
			t.Errorf("%q LIMIT 601 over 601 matching rows returned %d", where, rows)
		}
	}

	third := dup
	third.Mags[2] += 0.5
	if _, err := db.Insert([]table.Record{third}); err != nil {
		t.Fatal(err)
	}
	check("paged + memtable", 602, 3)
}
