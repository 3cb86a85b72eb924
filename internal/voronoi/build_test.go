package voronoi

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/pagestore"
	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vec"
)

// TestBuildWritesReferenceBytes: the one-pass build writes the
// clustered copy and its directory exactly as the old pair did — rows
// stably sorted by their nearest seed, Table.Rewrite's per-row Get and
// append in that order, then Table.Update setting CellID in place —
// kept here as the reference. Update re-encoded the whole row and
// widened its page zone by magnitudes the append had already covered,
// so setting CellID before the append writes the same bytes.
func TestBuildWritesReferenceBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := pagestore.Open(dir, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tb, err := table.Create(s, "mag.tbl")
	if err != nil {
		t.Fatal(err)
	}
	if err := sky.GenerateTable(tb, sky.DefaultParams(5000, 42)); err != nil {
		t.Fatal(err)
	}
	ix, err := Build(tb, "new.vor", sky.Domain(), DefaultParams(tb.NumRows(), 7))
	if err != nil {
		t.Fatal(err)
	}

	var cellOf []uint32
	err = tb.ScanMags(func(_ table.RowID, m *[table.Dim]float64) bool {
		cellOf = append(cellOf, uint32(ix.searcher.NearestOne(vec.Point(m[:]))))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	perm := make([]table.RowID, len(cellOf))
	for i := range perm {
		perm[i] = table.RowID(i)
	}
	sort.SliceStable(perm, func(a, b int) bool { return cellOf[perm[a]] < cellOf[perm[b]] })
	ref, err := table.Create(s, "ref.vor")
	if err != nil {
		t.Fatal(err)
	}
	a := ref.NewAppender()
	refDir := make([]rowRange, len(ix.Seeds))
	for pos, old := range perm {
		var rec table.Record
		if err := tb.Get(old, &rec); err != nil {
			t.Fatal(err)
		}
		c := cellOf[old]
		rec.CellID = c
		if err := a.Append(&rec); err != nil {
			t.Fatal(err)
		}
		if refDir[c].count == 0 {
			refDir[c] = rowRange{start: table.RowID(pos), count: 1}
		} else {
			refDir[c].count++
		}
	}
	a.Close()

	if !reflect.DeepEqual(ix.dir, refDir) {
		t.Error("the cell directories differ")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "new.vor"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(dir, "ref.vor"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || !bytes.Equal(got, want) {
		t.Errorf("the clustered copies differ (%d and %d bytes)", len(got), len(want))
	}
}
