package pagedio

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pagestore"
)

func newStore(t *testing.T, pool int) *pagestore.Store {
	t.Helper()
	s, err := pagestore.Open(t.TempDir(), pool)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func writeStream(t *testing.T, s *pagestore.Store, name string, payload []byte) {
	t.Helper()
	w, err := Create(s, name)
	if err != nil {
		t.Fatal(err)
	}
	// Write in awkward chunk sizes to cross page boundaries mid-call.
	for off := 0; off < len(payload); {
		end := off + 3000
		if end > len(payload) {
			end = len(payload)
		}
		if _, err := w.Write(payload[off:end]); err != nil {
			t.Fatal(err)
		}
		off = end
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTrip(t *testing.T) {
	s := newStore(t, 8)
	payload := bytes.Repeat([]byte("the quick brown fox "), 2000) // ~40 KB, several pages
	writeStream(t, s, "stream", payload)

	r, err := Open(s, "stream")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %d bytes vs %d", len(got), len(payload))
	}
}

func TestReadsGoThroughBufferPool(t *testing.T) {
	s := newStore(t, 8)
	payload := bytes.Repeat([]byte{7}, 3*pagestore.PageSize)
	writeStream(t, s, "stream", payload)
	if err := s.DropCache(); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	r, err := Open(s, "stream")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, r); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	delta := s.Stats().Sub(before)
	// Header + 4 payload pages (3*PageSize bytes = 4 pages? exactly 3
	// pages of payload plus header = 4 physical reads).
	if delta.DiskReads != 4 {
		t.Errorf("stream read cost %d disk reads, want 4 (header + 3 payload pages)", delta.DiskReads)
	}
}

func TestUnclosedStreamUnreadable(t *testing.T) {
	s := newStore(t, 8)
	w, err := Create(s, "stream")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("half-written")); err != nil {
		t.Fatal(err)
	}
	// No Close: header magic never finalized.
	if _, err := Open(s, "stream"); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("open of unfinalized stream: err = %v, want bad-magic error", err)
	}
	w.Close()
}

func TestChecksumMismatch(t *testing.T) {
	dir := t.TempDir()
	s, err := pagestore.Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{42}, 2*pagestore.PageSize)
	writeStream(t, s, "stream", payload)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte on disk.
	path := filepath.Join(dir, "stream")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[pagestore.PageSize+100] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := pagestore.Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	r, err := Open(s2, "stream")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(r); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt stream Close: err = %v, want checksum mismatch", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	dir := t.TempDir()
	s, err := pagestore.Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	writeStream(t, s, "stream", bytes.Repeat([]byte{1}, 3*pagestore.PageSize))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Chop off the last page.
	path := filepath.Join(dir, "stream")
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-pagestore.PageSize); err != nil {
		t.Fatal(err)
	}

	s2, err := pagestore.Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	r, err := Open(s2, "stream")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(r); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated stream read: err = %v, want truncation error", err)
	}
}

// TestCreateRefusesOpenFile: a stream is never rewritten over a file
// the store has open — persisted structures move to a new generation's
// file instead — and the refusal leaves the first stream intact.
func TestCreateRefusesOpenFile(t *testing.T) {
	s := newStore(t, 8)
	payload := bytes.Repeat([]byte{1}, 5*pagestore.PageSize)
	writeStream(t, s, "stream", payload)
	if _, err := Create(s, "stream"); err == nil || !strings.Contains(err.Error(), "already open") {
		t.Fatalf("Create over an open stream: err = %v, want already-open error", err)
	}

	r, err := Open(s, "stream")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("stream after refused rewrite: %d bytes, want the original %d", len(got), len(payload))
	}
}

func TestEmptyPayload(t *testing.T) {
	s := newStore(t, 8)
	writeStream(t, s, "stream", nil)
	r, err := Open(s, "stream")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty stream returned %d bytes", len(got))
	}
}
