package pagestore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func walPayload(i int) []byte {
	return bytes.Repeat([]byte{byte(i + 1)}, 10+i*7)
}

// TestWALRoundTrip appends records and recovers them across reopen.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, recs, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh wal recovered %d records", len(recs))
	}
	for i := 0; i < 5; i++ {
		seq, err := w.Append(walPayload(i))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d: seq = %d", i, seq)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, recs, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(recs) != 5 {
		t.Fatalf("recovered %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || !bytes.Equal(r.Payload, walPayload(i)) {
			t.Fatalf("record %d: seq %d payload %x", i, r.Seq, r.Payload)
		}
	}
	// The sequence continues after the recovered tail.
	if seq, err := w2.Append([]byte("x")); err != nil || seq != 6 {
		t.Fatalf("post-recovery append: seq %d err %v", seq, err)
	}
}

// TestWALKillPointMatrix truncates the log at EVERY byte offset —
// every record boundary and every mid-record position — and asserts
// recovery returns exactly the records whose bytes fully survived,
// in order, with the torn tail discarded.
func TestWALKillPointMatrix(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	bounds := []int64{0}
	for i := 0; i < n; i++ {
		if _, err := w.Append(walPayload(i)); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, w.Size())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, WALName)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	complete := func(cut int64) int {
		k := 0
		for k+1 < len(bounds) && bounds[k+1] <= cut {
			k++
		}
		return k
	}
	for cut := int64(0); cut <= int64(len(full)); cut++ {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, WALName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, recs, err := OpenWAL(sub)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		want := complete(cut)
		if len(recs) != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(recs), want)
		}
		for i, r := range recs {
			if r.Seq != uint64(i+1) || !bytes.Equal(r.Payload, walPayload(i)) {
				t.Fatalf("cut %d: record %d corrupt", cut, i)
			}
		}
		// The torn tail is gone: a fresh append lands on a clean
		// boundary and survives the next recovery.
		if _, err := w2.Append([]byte("tail")); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		w2.Close()
		_, recs2, err := OpenWAL(sub)
		if err != nil {
			t.Fatalf("cut %d: second reopen: %v", cut, err)
		}
		if len(recs2) != want+1 || !bytes.Equal(recs2[want].Payload, []byte("tail")) {
			t.Fatalf("cut %d: post-recovery append lost", cut)
		}
	}
}

// TestWALRotate drops records at or below the durable sequence and
// keeps the uncovered tail byte-identical.
func TestWALRotate(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := w.Append(walPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Rotate(4); err != nil {
		t.Fatal(err)
	}
	// Appends continue after rotation.
	if seq, err := w.Append([]byte("post")); err != nil || seq != 7 {
		t.Fatalf("post-rotate append: seq %d err %v", seq, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("recovered %d records, want 3", len(recs))
	}
	if recs[0].Seq != 5 || recs[1].Seq != 6 || recs[2].Seq != 7 {
		t.Fatalf("seqs = %d,%d,%d", recs[0].Seq, recs[1].Seq, recs[2].Seq)
	}
	if !bytes.Equal(recs[0].Payload, walPayload(4)) || !bytes.Equal(recs[2].Payload, []byte("post")) {
		t.Fatal("rotated payloads corrupt")
	}
}

// TestWALGroupCommit hammers Append from many goroutines and checks
// (a) every record survives with a unique sequence, (b) the fsync
// count stayed below the append count — the group commit actually
// batched.
func TestWALGroupCommit(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := w.Append([]byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Appends != workers*per {
		t.Fatalf("appends = %d, want %d", st.Appends, workers*per)
	}
	if st.Syncs >= st.Appends {
		t.Errorf("syncs %d >= appends %d: group commit never batched", st.Syncs, st.Appends)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != workers*per {
		t.Fatalf("recovered %d records, want %d", len(recs), workers*per)
	}
	seen := make(map[uint64]bool)
	for _, r := range recs {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
	}
}

// TestCommitNarrowsThenUnlinks retires a paged file through Commit:
// the manifest it renames in no longer lists the file, which stays
// readable while the doomed predicate spares it; a later Commit whose
// predicate accepts it drops its frames and unlinks it, together with
// debris on disk the store never opened. Commit spares what its
// predicate rejects, every file the directory holds, the manifest and
// the WAL; the reopened store is clean.
func TestCommitNarrowsThenUnlinks(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string) FileID {
		id, err := s.CreateFile(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.Alloc(id)
		if err != nil {
			t.Fatal(err)
		}
		p.Data[0] = byte(id) + 1
		p.MarkDirty()
		p.Release()
		return id
	}
	keep := mk("keep.tbl")
	doomed := mk("doomed.tbl")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"debris.tbl", "notes.txt", WALName} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	all := func(name string) bool { return name != "notes.txt" }
	if err := s.Commit([]string{"keep.tbl", "never-existed"}, all); err == nil {
		t.Fatal("Commit naming a file the store does not hold succeeded")
	}
	if !s.HasFile("doomed.tbl") {
		t.Fatal("a refused Commit changed the directory")
	}
	if err := s.Commit([]string{"keep.tbl"}, func(string) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if s.HasFile("doomed.tbl") {
		t.Fatal("doomed.tbl still in the directory after Commit")
	}
	if _, listed := s.ManifestFiles()["doomed.tbl"]; listed {
		t.Fatal("the manifest still lists doomed.tbl")
	}
	if p, err := s.Get(PageID{File: doomed, Num: 0}); err != nil || p.Data[0] != byte(doomed)+1 {
		t.Fatalf("a spared file taken out of the directory is unreadable: %v", err)
	} else {
		p.Release()
	}
	if err := s.Commit([]string{"keep.tbl"}, all); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"doomed.tbl", "debris.tbl"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("%s still on disk after Commit: %v", name, err)
		}
	}
	for _, name := range []string{"keep.tbl", "notes.txt", ManifestName, WALName} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("Commit removed %s: %v", name, err)
		}
	}
	if _, err := s.Get(PageID{File: doomed, Num: 0}); err == nil {
		t.Fatal("Get on an unlinked file succeeded")
	}
	if _, err := s.Alloc(doomed); err == nil {
		t.Fatal("Alloc on an unlinked file succeeded")
	}
	if p, err := s.Get(PageID{File: keep, Num: 0}); err != nil || p.Data[0] != byte(keep)+1 {
		t.Fatalf("surviving file unreadable: %v", err)
	} else {
		p.Release()
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenExisting(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.HasFile("doomed.tbl") {
		t.Fatal("unlinked file resurrected by reopen")
	}
}

// TestCommitKeepsPinnedFile: Commit never drops a file with a pinned
// page; the first Commit after the release unlinks it.
func TestCommitKeepsPinnedFile(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, err := s.CreateFile("t.tbl")
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Alloc(id)
	if err != nil {
		t.Fatal(err)
	}
	all := func(string) bool { return true }
	if err := s.Commit(nil, all); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "t.tbl")); err != nil {
		t.Fatalf("a file with a pinned page was unlinked: %v", err)
	}
	p.Release()
	if err := s.Commit(nil, all); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "t.tbl")); !os.IsNotExist(err) {
		t.Fatalf("t.tbl still on disk after its release and a commit: %v", err)
	}
	if got := s.PinnedPages(); got != 0 {
		t.Fatalf("PinnedPages = %d", got)
	}
}

// TestOpenExistingUncommittedTail: a file longer than the manifest
// records (crash between page appends and manifest commit) reopens
// with the tail truncated back to the committed length.
func TestOpenExistingUncommittedTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.CreateFile("t.tbl")
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Alloc(id)
	if err != nil {
		t.Fatal(err)
	}
	p.Data[0] = 0xaa
	p.MarkDirty()
	p.Release()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crashed append: two extra pages beyond the manifest.
	path := filepath.Join(dir, "t.tbl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 2*PageSize)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s2, err := OpenExisting(dir, 8)
	if err != nil {
		t.Fatalf("reopen with uncommitted tail: %v", err)
	}
	defer s2.Close()
	fid, pages, err := s2.OpenFile("t.tbl")
	if err != nil {
		t.Fatal(err)
	}
	if pages != 1 {
		t.Fatalf("pages = %d, want 1 (tail discarded)", pages)
	}
	if st, _ := os.Stat(path); st.Size() != PageSize {
		t.Fatalf("file size %d after reopen, want %d", st.Size(), PageSize)
	}
	pg, err := s2.Get(PageID{File: fid, Num: 0})
	if err != nil {
		t.Fatal(err)
	}
	if pg.Data[0] != 0xaa {
		t.Fatal("committed page corrupted by tail truncation")
	}
	pg.Release()
}

// TestManifestDurableSeqRoundTrip persists durableSeq/artifactGen and
// reads them back.
func TestManifestDurableSeqRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateFile("t.tbl"); err != nil {
		t.Fatal(err)
	}
	s.SetDurableSeq(42)
	s.SetArtifactGen(7)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenExisting(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.DurableSeq(); got != 42 {
		t.Fatalf("DurableSeq = %d, want 42", got)
	}
	if got := s2.ArtifactGen(); got != 7 {
		t.Fatalf("ArtifactGen = %d, want 7", got)
	}
}

// TestWALAppendDuringRotate races appenders against rotations. A
// rotation rewrites the log smaller, so any durability target
// expressed as a byte offset of the pre-rotation file can become
// unreachable forever; tracking targets by sequence keeps every
// staged Append able to return. (Regression: a waiter whose offset
// target predated a concurrent Rotate span forever in syncTo.)
func TestWALAppendDuringRotate(t *testing.T) {
	dir := t.TempDir()
	w, recs, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh wal recovered %d records", len(recs))
	}

	stop := make(chan struct{})
	errc := make(chan error, 4)
	var lastAcked atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := walPayload(g)
			for {
				select {
				case <-stop:
					return
				default:
				}
				seq, err := w.Append(payload)
				if err != nil {
					errc <- fmt.Errorf("append: %w", err)
					return
				}
				lastAcked.Store(seq)
			}
		}(g)
	}

	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		if err := w.Rotate(lastAcked.Load()); err != nil {
			close(stop)
			t.Fatalf("rotate: %v", err)
		}
	}
	close(stop)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("an Append staged before a rotation never returned — its durability target was lost in the rewrite")
	}
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The log recovers cleanly after the churn: only the post-rotation
	// tail survives, in sequence order.
	w2, recs, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			t.Fatalf("recovered sequence gap: %d then %d", recs[i-1].Seq, recs[i].Seq)
		}
	}
}
