package grid

import (
	"bytes"
	"math/rand"
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

// referenceBuild is the grid build as it ran before the one-pass copy,
// kept as the reference its bytes are checked against: row tags from
// a magnitude scan, the clustered order by sort.Slice over
// (layer, code, rank), then Table.Rewrite's per-row Get and append in
// that order followed by Table.Update setting each row's index columns
// in place. Update re-encoded the whole row and widened its page zone
// by magnitudes Rewrite's append had already covered, so setting the
// columns before the append writes the same bytes.
func referenceBuild(t *testing.T, tb *table.Table, name string, p Params) (*table.Table, map[cellKey]rowRange) {
	t.Helper()
	n := int(tb.NumRows())
	rank := rand.New(rand.NewSource(p.Seed)).Perm(n)
	growth := 1 << uint(p.ProjDim)
	layers := planLayers(n, p.Base, growth, p.MaxLayers)
	proj := FirstAxes(p.ProjDim)
	type rowTag struct {
		row   table.RowID
		layer uint16
		code  uint64
		rank  uint32
	}
	tags := make([]rowTag, n)
	var projs []float64
	dom := p.Domain.Clone()
	i := 0
	err := tb.ScanMags(func(id table.RowID, m *[table.Dim]float64) bool {
		pt := proj(m)
		dom.ExtendPoint(pt)
		projs = append(projs, pt...)
		tags[i] = rowTag{row: id, rank: uint32(rank[i])}
		i++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tags {
		tg := &tags[i]
		layer := layerOfRank(int(tg.rank), p.Base, growth, len(layers))
		code, err := cellCode(projs[i*p.ProjDim:(i+1)*p.ProjDim], dom, layers[layer-1].res)
		if err != nil {
			t.Fatal(err)
		}
		tg.layer, tg.code = uint16(layer), code
	}
	order := make([]int, n)
	for j := range order {
		order[j] = j
	}
	sort.Slice(order, func(a, b int) bool {
		ta, tb := tags[order[a]], tags[order[b]]
		if ta.layer != tb.layer {
			return ta.layer < tb.layer
		}
		if ta.code != tb.code {
			return ta.code < tb.code
		}
		return ta.rank < tb.rank
	})
	ref, err := table.Create(tb.Store(), name)
	if err != nil {
		t.Fatal(err)
	}
	a := ref.NewAppender()
	defer a.Close()
	dir := make(map[cellKey]rowRange)
	for pos, j := range order {
		tg := tags[j]
		var rec table.Record
		if err := tb.Get(tg.row, &rec); err != nil {
			t.Fatal(err)
		}
		rec.RandomID, rec.Layer, rec.ContainedBy = tg.rank, tg.layer, uint32(tg.code)
		if err := a.Append(&rec); err != nil {
			t.Fatal(err)
		}
		key := cellKey{layer: int(tg.layer), code: tg.code}
		r, ok := dir[key]
		if !ok {
			r.start = table.RowID(pos)
		}
		r.count++
		dir[key] = r
	}
	return ref, dir
}

// TestBuildWritesReferenceBytes: the one-pass build writes the
// clustered copy, its zone maps and its directory exactly as the old
// rewrite-then-update pair did, over several layers.
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
	if err := sky.GenerateTable(tb, sky.DefaultParams(20000, 42)); err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(vec.NewBox(sky.Domain().Min[:3], sky.Domain().Max[:3]), 7)
	p.Base = 64
	ix, err := Build(tb, "new.grid", p)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumLayers() < 3 {
		t.Fatalf("%d layers; the case wants several", ix.NumLayers())
	}
	ref, refDir := referenceBuild(t, tb, "ref.grid", p)
	if !reflect.DeepEqual(ix.dir, refDir) {
		t.Error("the cell directories differ")
	}
	if !reflect.DeepEqual(ix.Table().ZoneMaps().Snapshot(), ref.ZoneMaps().Snapshot()) {
		t.Error("the zone maps differ")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(filepath.Join(dir, "new.grid"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "ref.grid"))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Errorf("the clustered copies differ (%d and %d bytes)", len(a), len(b))
	}
}

// TestPersistIsDeterministic: two builds over the same rows persist
// byte-identical index files, whatever order the directory map yields.
func TestPersistIsDeterministic(t *testing.T) {
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
	if err := sky.GenerateTable(tb, sky.DefaultParams(20000, 42)); err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(vec.NewBox(sky.Domain().Min[:3], sky.Domain().Max[:3]), 7)
	p.Base = 64
	var files [2][]byte
	for i, name := range []string{"a", "b"} {
		ix, err := Build(tb, name+".grid", p)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Persist(name + ".idx"); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if files[i], err = os.ReadFile(filepath.Join(dir, name+".idx")); err != nil {
			t.Fatal(err)
		}
	}
	if len(files[0]) == 0 || !bytes.Equal(files[0], files[1]) {
		t.Errorf("two builds persisted different index bytes (%d and %d bytes)", len(files[0]), len(files[1]))
	}
}

func TestInvert(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 7, 1000} {
		p := make([]uint32, n)
		for i, v := range rng.Perm(n) {
			p[i] = uint32(v)
		}
		want := make([]uint32, n)
		for i, v := range p {
			want[v] = uint32(i)
		}
		if got := invert(p); !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: invert = %v, want %v", n, got, want)
		}
	}
}
