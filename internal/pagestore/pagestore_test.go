package pagestore

import (
	"errors"
	"fmt"
	"testing"
)

func newStore(t *testing.T, pool int) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), pool)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestAllocGetRoundTrip(t *testing.T) {
	s := newStore(t, 8)
	f, err := s.CreateFile("t.dat")
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Alloc(f)
	if err != nil {
		t.Fatal(err)
	}
	copy(p.Data, []byte("hello pages"))
	p.MarkDirty()
	id := p.ID
	p.Release()

	got, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Release()
	if string(got.Data[:11]) != "hello pages" {
		t.Errorf("page content = %q", got.Data[:11])
	}
}

// TestClosedStoreRefusesPages: once Close has run, Get, GetScan, Alloc
// and NumPages — bare and scoped — name the closed store, where they
// used to report an unknown file or index past the released files.
func TestClosedStoreRefusesPages(t *testing.T) {
	s, err := Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.CreateFile("t.dat")
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Alloc(f)
	if err != nil {
		t.Fatal(err)
	}
	id := p.ID
	p.Release()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sc := s.Scoped()
	for name, op := range map[string]func() error{
		"Get":         func() error { _, err := s.Get(id); return err },
		"GetScan":     func() error { _, err := s.GetScan(id); return err },
		"Alloc":       func() error { _, err := s.Alloc(f); return err },
		"NumPages":    func() error { _, err := s.NumPages(f); return err },
		"Scope.Get":   func() error { _, err := sc.Get(id); return err },
		"Scope.Alloc": func() error { _, err := sc.Alloc(f); return err },
	} {
		if err := op(); !errors.Is(err, errClosed) || err.Error() != "pagestore: store closed" {
			t.Errorf("%s on a closed store: err = %v", name, err)
		}
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := s.CreateFile("t.dat")
	for i := 0; i < 10; i++ {
		p, err := s.Alloc(f)
		if err != nil {
			t.Fatal(err)
		}
		p.Data[0] = byte(i)
		p.MarkDirty()
		p.Release()
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	f2, n, err := s2.OpenFile("t.dat")
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("reopened file has %d pages, want 10", n)
	}
	for i := 0; i < 10; i++ {
		p, err := s2.Get(PageID{File: f2, Num: PageNum(i)})
		if err != nil {
			t.Fatal(err)
		}
		if p.Data[0] != byte(i) {
			t.Errorf("page %d content = %d", i, p.Data[0])
		}
		p.Release()
	}
}

func TestEvictionWritesDirtyPages(t *testing.T) {
	s := newStore(t, 2)
	f, _ := s.CreateFile("t.dat")
	// Fill 5 pages through a 2-frame pool: forces evictions.
	for i := 0; i < 5; i++ {
		p, err := s.Alloc(f)
		if err != nil {
			t.Fatal(err)
		}
		p.Data[0] = byte(10 + i)
		p.MarkDirty()
		p.Release()
	}
	st := s.Stats()
	if st.Evictions < 3 {
		t.Errorf("evictions = %d, want >= 3", st.Evictions)
	}
	for i := 0; i < 5; i++ {
		p, err := s.Get(PageID{File: f, Num: PageNum(i)})
		if err != nil {
			t.Fatal(err)
		}
		if p.Data[0] != byte(10+i) {
			t.Errorf("page %d lost its data: %d", i, p.Data[0])
		}
		p.Release()
	}
}

func TestHitMissAccounting(t *testing.T) {
	s := newStore(t, 8)
	f, _ := s.CreateFile("t.dat")
	p, _ := s.Alloc(f)
	id := p.ID
	p.MarkDirty()
	p.Release()

	before := s.Stats()
	p2, _ := s.Get(id) // still resident: hit
	p2.Release()
	mid := s.Stats().Sub(before)
	if mid.Hits != 1 || mid.Misses != 0 || mid.DiskReads != 0 {
		t.Errorf("resident get: %+v", mid)
	}

	if err := s.DropCache(); err != nil {
		t.Fatal(err)
	}
	before = s.Stats()
	p3, err := s.Get(id) // cold: miss + disk read
	if err != nil {
		t.Fatal(err)
	}
	p3.Release()
	cold := s.Stats().Sub(before)
	if cold.Misses != 1 || cold.DiskReads != 1 || cold.Hits != 0 {
		t.Errorf("cold get: %+v", cold)
	}
}

func TestLRUOrder(t *testing.T) {
	s := newStore(t, 3)
	f, _ := s.CreateFile("t.dat")
	var ids []PageID
	for i := 0; i < 3; i++ {
		p, _ := s.Alloc(f)
		p.MarkDirty()
		ids = append(ids, p.ID)
		p.Release()
	}
	// Touch page 0 so page 1 becomes LRU.
	p, _ := s.Get(ids[0])
	p.Release()
	// Allocating one more must evict page 1, not page 0.
	p4, _ := s.Alloc(f)
	p4.MarkDirty()
	p4.Release()

	before := s.Stats()
	g0, _ := s.Get(ids[0])
	g0.Release()
	if d := s.Stats().Sub(before); d.Hits != 1 {
		t.Errorf("page 0 should have stayed resident: %+v", d)
	}
	before = s.Stats()
	g1, _ := s.Get(ids[1])
	g1.Release()
	if d := s.Stats().Sub(before); d.Misses != 1 {
		t.Errorf("page 1 should have been evicted: %+v", d)
	}
}

func TestPinnedPagesAreNotEvicted(t *testing.T) {
	s := newStore(t, 2)
	f, _ := s.CreateFile("t.dat")
	a, _ := s.Alloc(f)
	a.MarkDirty()
	b, _ := s.Alloc(f)
	b.MarkDirty()
	// Both frames pinned; a third allocation must fail.
	if _, err := s.Alloc(f); err == nil {
		t.Fatal("expected pool-exhausted error with all pages pinned")
	}
	a.Release()
	// Now one frame is evictable.
	c, err := s.Alloc(f)
	if err != nil {
		t.Fatalf("allocation after release failed: %v", err)
	}
	c.Release()
	b.Release()
}

func TestGetBeyondEOF(t *testing.T) {
	s := newStore(t, 2)
	f, _ := s.CreateFile("t.dat")
	if _, err := s.Get(PageID{File: f, Num: 0}); err == nil {
		t.Error("expected error for page beyond EOF")
	}
	if _, err := s.Get(PageID{File: 99, Num: 0}); err == nil {
		t.Error("expected error for unknown file")
	}
}

func TestDoubleCreateFails(t *testing.T) {
	s := newStore(t, 2)
	if _, err := s.CreateFile("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateFile("x"); err == nil {
		t.Error("expected duplicate create to fail")
	}
}

func TestOpenFileIdempotent(t *testing.T) {
	s := newStore(t, 2)
	id, _ := s.CreateFile("x")
	id2, _, err := s.OpenFile("x")
	if err != nil {
		t.Fatal(err)
	}
	if id != id2 {
		t.Errorf("OpenFile returned %d, want %d", id2, id)
	}
}

func TestInvalidPoolSize(t *testing.T) {
	if _, err := Open(t.TempDir(), 0); err == nil {
		t.Error("expected error for zero pool")
	}
}

func TestManyFiles(t *testing.T) {
	s := newStore(t, 16)
	for i := 0; i < 5; i++ {
		f, err := s.CreateFile(fmt.Sprintf("f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.Alloc(f)
		if err != nil {
			t.Fatal(err)
		}
		p.Data[0] = byte(i)
		p.MarkDirty()
		p.Release()
	}
	for i := 0; i < 5; i++ {
		f, n, err := s.OpenFile(fmt.Sprintf("f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatalf("file f%d has %d pages", i, n)
		}
		p, _ := s.Get(PageID{File: f, Num: 0})
		if p.Data[0] != byte(i) {
			t.Errorf("file f%d page content = %d", i, p.Data[0])
		}
		p.Release()
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{DiskReads: 10, Hits: 5}
	b := Stats{DiskReads: 4, Hits: 2}
	d := a.Sub(b)
	if d.DiskReads != 6 || d.Hits != 3 {
		t.Errorf("Sub = %+v", d)
	}
}
