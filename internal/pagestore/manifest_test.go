package pagestore

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildStore writes a couple of paged files and closes the store,
// leaving a valid manifest behind.
func buildStore(t *testing.T, dir string) {
	t.Helper()
	s, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a.tbl", "b.idx"} {
		f, err := s.CreateFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			p, err := s.Alloc(f)
			if err != nil {
				t.Fatal(err)
			}
			p.Data[0] = byte(i)
			p.MarkDirty()
			p.Release()
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir)
	s, err := OpenExisting(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	files := s.ManifestFiles()
	if len(files) != 2 || files["a.tbl"] != 3 || files["b.idx"] != 3 {
		t.Fatalf("manifest files = %v", files)
	}
	if !s.HasFile("a.tbl") || s.HasFile("nope") {
		t.Error("HasFile misreports manifest contents")
	}
	f, pages, err := s.OpenFile("a.tbl")
	if err != nil || pages != 3 {
		t.Fatalf("OpenFile: pages=%d err=%v", pages, err)
	}
	p, err := s.Get(PageID{File: f, Num: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.Data[0] != 2 {
		t.Errorf("page content lost: %d", p.Data[0])
	}
	p.Release()
}

// The store epoch must advance exactly when the manifest is
// rewritten: a fresh build persists epoch 1, a read-only session
// leaves it untouched, and a mutating session bumps it.
func TestManifestEpoch(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir) // fresh store: Close writes epoch 1

	s, err := OpenExisting(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Epoch(); got != 1 {
		t.Fatalf("epoch after first build = %d, want 1", got)
	}
	// Read-only session: Close must not rewrite or bump.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = OpenExisting(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Epoch(); got != 1 {
		t.Fatalf("epoch after read-only session = %d, want 1", got)
	}
	// Mutating session: the rewrite bumps to 2, visible both in
	// memory after Flush and on the next open.
	f, _, err := s.OpenFile("a.tbl")
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Alloc(f)
	if err != nil {
		t.Fatal(err)
	}
	p.MarkDirty()
	p.Release()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Epoch(); got != 2 {
		t.Fatalf("epoch after mutating flush = %d, want 2", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = OpenExisting(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Epoch(); got != 2 {
		t.Fatalf("epoch after reopen = %d, want 2", got)
	}
}

func TestOpenExistingNoManifest(t *testing.T) {
	_, err := OpenExisting(t.TempDir(), 8)
	if err == nil || !strings.Contains(err.Error(), "not built") {
		t.Fatalf("err = %v, want not-built error", err)
	}
}

func TestOpenExistingTruncatedManifest(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir)
	if err := os.Truncate(filepath.Join(dir, ManifestName), 9); err != nil {
		t.Fatal(err)
	}
	_, err := OpenExisting(dir, 8)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want truncated-manifest error", err)
	}
}

func TestOpenExistingChecksumMismatch(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir)
	path := filepath.Join(dir, ManifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[10] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenExisting(dir, 8)
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("err = %v, want checksum-mismatch error", err)
	}
}

func TestOpenExistingVersionSkew(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir)
	// Re-encode the manifest with a future format version; the CRC is
	// valid, so only the version check can reject it.
	buf := encodeManifest(FormatVersion+1, 1, 0, 0, map[string]PageNum{"a.tbl": 3, "b.idx": 3})
	if err := os.WriteFile(filepath.Join(dir, ManifestName), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenExisting(dir, 8)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("err = %v, want version-skew error", err)
	}
}

func TestOpenExistingTornFile(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir)
	// Tear the last page of a listed file.
	if err := os.Truncate(filepath.Join(dir, "a.tbl"), 3*PageSize-100); err != nil {
		t.Fatal(err)
	}
	_, err := OpenExisting(dir, 8)
	if err == nil || !strings.Contains(err.Error(), "truncated or torn") {
		t.Fatalf("err = %v, want torn-file error", err)
	}
}

func TestOpenExistingMissingFile(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir)
	if err := os.Remove(filepath.Join(dir, "b.idx")); err != nil {
		t.Fatal(err)
	}
	_, err := OpenExisting(dir, 8)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("err = %v, want missing-file error", err)
	}
}

// Regression: NumPages and Alloc on an unknown FileID must return an
// error like Get does, not panic with an index out of range.
func TestUnknownFileIDIsErrorNotPanic(t *testing.T) {
	s, err := Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.NumPages(FileID(99)); err == nil || !strings.Contains(err.Error(), "unknown file") {
		t.Errorf("NumPages(99): err = %v, want unknown-file error", err)
	}
	if _, err := s.Alloc(FileID(99)); err == nil || !strings.Contains(err.Error(), "unknown file") {
		t.Errorf("Alloc(99): err = %v, want unknown-file error", err)
	}
	sc := s.Scoped()
	if _, err := sc.Alloc(FileID(99)); err == nil {
		t.Error("scoped Alloc(99) did not error")
	}
}
