package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/pagestore"
	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vec"
)

// The commit point's crash and liveness tests. Each asserts the same
// three things of the directory a schedule leaves: the crash image
// opens, it holds every acknowledged row, and after one commit the
// directory holds exactly the manifest, the WAL and the files the
// catalog names (checkCommittedDir).

// committedStore builds and persists a 3 000-row store with every index.
func committedStore(t *testing.T) *SpatialDB {
	t.Helper()
	db := buildFullDB(t, t.TempDir(), 3000)
	if err := db.Persist(); err != nil {
		t.Fatal(err)
	}
	return db
}

// gapMarker is the first ObjID of the crash tests' acknowledged
// inserts.
const gapMarker = 7_000_000_000

// insertAcked inserts n rows from id first, one batch each.
func insertAcked(t *testing.T, db *SpatialDB, first int64, n int) {
	t.Helper()
	for i := int64(0); i < int64(n); i++ {
		if _, err := db.Insert([]table.Record{insertTestRecord(first + i)}); err != nil {
			t.Fatal(err)
		}
	}
}

// openSkyCursor opens a /sky cut over most of the sky.
func openSkyCursor(t *testing.T, db *SpatialDB) Cursor {
	t.Helper()
	cur, err := db.QuerySkyBox(context.Background(), table.SkyBoxPred{RaMin: 0, RaMax: 300, DecMin: -60, DecMax: 60}, table.ColAll)
	if err != nil {
		t.Fatal(err)
	}
	return cur
}

// withCommitGap runs fn inside the gap of the at-th commit (1-based)
// until the returned restore is called.
func withCommitGap(at int, fn func()) (restore func()) {
	n := 0
	commitGap = func() {
		if n++; n == at {
			fn()
		}
	}
	return func() { commitGap = nil }
}

// copyDir copies every regular file of src into a fresh directory: the
// image a kill at this instant leaves on disk.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err == nil {
			_, err = io.Copy(out, in)
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}
		in.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// dirListing returns the sorted names in dir.
func dirListing(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	slices.Sort(names)
	return names
}

// catalogNamed derives from the engine's catalog the files a commit of
// it names: the catalog file, each table's file and zone sidecar, and
// each built index's serializations.
func catalogNamed(t *testing.T, db *SpatialDB) []string {
	t.Helper()
	eng := db.Engine()
	gen := eng.Store().ArtifactGen()
	names := []string{engine.GenName(engine.CatalogFileName, gen)}
	for _, n := range eng.TableNames() {
		tb, err := eng.Table(n)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, tb.Name())
		if tb.ZoneMaps() != nil {
			names = append(names, engine.GenName(n+".zones", gen))
		}
	}
	var artifacts []string
	if db.KdTree() != nil {
		artifacts = append(artifacts, kdIndexFile)
	}
	if db.Grid() != nil {
		artifacts = append(artifacts, gridIndexFile)
	}
	if db.PhotoZBuilt() {
		artifacts = append(artifacts, photozMetaFile, photozTreeFile)
	}
	for _, a := range artifacts {
		names = append(names, eng.ArtifactFile(a))
	}
	return names
}

// checkCommittedDir asserts that dir holds exactly the manifest, the
// WAL, the named files and extra.
func checkCommittedDir(t *testing.T, dir string, named []string, extra ...string) {
	t.Helper()
	want := append([]string{pagestore.ManifestName, pagestore.WALName}, extra...)
	want = append(want, named...)
	slices.Sort(want)
	if got := dirListing(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("directory after one commit:\n got %v\nwant %v", got, want)
	}
}

// checkAckedRows asserts that db holds baseRows rows plus every insert
// acknowledged from gapMarker up to gapMarker+acked.
func checkAckedRows(t *testing.T, db *SpatialDB, baseRows uint64, acked int) {
	t.Helper()
	if got, want := db.NumRows()+uint64(db.MemRows()), baseRows+uint64(acked); got != want {
		t.Fatalf("crash image holds %d rows, want %d", got, want)
	}
	ids := visibleInsertedIDs(t, db, gapMarker)
	for i := int64(0); i < int64(acked); i++ {
		if !ids[gapMarker+i] {
			t.Fatalf("acknowledged row %d lost (%d of %d visible)", gapMarker+i, len(ids), acked)
		}
	}
}

// checkNoPins asserts that no page is pinned.
func checkNoPins(t *testing.T, db *SpatialDB) {
	t.Helper()
	if got := db.Engine().Store().PinnedPages(); got != 0 {
		t.Fatalf("PinnedPages = %d at a quiescent point", got)
	}
}

// reopenAndCommit opens a crash image, checks its rows, runs one commit
// and checks the directory it leaves.
func reopenAndCommit(t *testing.T, img string, baseRows uint64, acked int, extra ...string) {
	t.Helper()
	re, err := OpenExisting(Config{Dir: img})
	if err != nil {
		t.Fatalf("crash image does not open: %v", err)
	}
	defer re.Close()
	checkAckedRows(t, re, baseRows, acked)
	if err := re.Persist(); err != nil {
		t.Fatal(err)
	}
	checkNoPins(t, re)
	checkCommittedDir(t, img, catalogNamed(t, re), extra...)
}

// TestCommitGapCrashImage kills the process — copies the directory —
// inside the gap between a commit's writes and its manifest rename.
// The first three cases are the schedule that once committed a torn
// generation: a cursor holds a superseded generation across a full
// compaction, rows are inserted, and the last cursor closes inside the
// gap of a minor compaction, of a rebuild and of Persist; a release
// must write nothing. The fourth is a second Persist on a reopened
// store, which once rewrote committed index files in place.
func TestCommitGapCrashImage(t *testing.T) {
	const acked = 50
	for _, tc := range []struct {
		name   string
		reopen bool // reopen the persisted store instead of holding a cursor
		at     int  // the commit of op whose gap hosts the kill
		op     func(*SpatialDB) error
	}{
		{"compact", false, 1, (*SpatialDB).Compact},
		{"rebuild", false, 2, (*SpatialDB).CompactFull}, // commit 1 is its minor compaction
		{"persist", false, 1, (*SpatialDB).Persist},
		{"second persist", true, 1, (*SpatialDB).Persist},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := committedStore(t)
			baseRows := db.NumRows()
			var cur Cursor
			if tc.reopen {
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				var err error
				if db, err = OpenExisting(Config{Dir: db.dir}); err != nil {
					t.Fatal(err)
				}
			} else {
				cur = openSkyCursor(t, db)
				if err := db.CompactFull(); err != nil {
					t.Fatal(err)
				}
			}
			defer db.Close()
			insertAcked(t, db, gapMarker, acked)

			var img string
			restore := withCommitGap(tc.at, func() {
				if cur != nil {
					cur.Close()
				}
				img = copyDir(t, db.dir)
			})
			err := tc.op(db)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			if img == "" {
				t.Fatalf("%s ran fewer than %d commits", tc.name, tc.at)
			}
			checkNoPins(t, db)
			reopenAndCommit(t, img, baseRows, acked)
		})
	}
}

// TestSupersededGenerationSwept: a kill while a cursor holds a
// superseded generation must not leak it. The image taken with the
// cursor open still holds the old generation's files on disk; the first
// commit after reopening unlinks them.
func TestSupersededGenerationSwept(t *testing.T) {
	db := committedStore(t)
	baseRows := db.NumRows()
	cur := openSkyCursor(t, db)
	if err := db.CompactFull(); err != nil {
		t.Fatal(err)
	}
	img := copyDir(t, db.dir)
	cur.Close()
	checkNoPins(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenExisting(Config{Dir: img})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	insertAcked(t, re, gapMarker, 5)
	if err := re.CompactFull(); err != nil {
		t.Fatal(err)
	}
	checkAckedRows(t, re, baseRows, 5)
	checkNoPins(t, re)
	checkCommittedDir(t, img, catalogNamed(t, re))
}

// TestStrayFilesSwept: debris of a known base in the directory — a
// generation no manifest lists — is gone after an open plus one commit,
// while files the store does not own stay untouched; a session that
// never commits writes nothing.
func TestStrayFilesSwept(t *testing.T) {
	db := committedStore(t)
	baseRows := db.NumRows()
	dir := db.dir
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	foreign := map[string][]byte{"ROUTING.json": []byte(`{"shards":[]}`), "notes.txt": []byte("keep me")}
	for name, data := range foreign {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stray := catalogTableName + "@99"
	if err := os.WriteFile(filepath.Join(dir, stray), make([]byte, pagestore.PageSize), 0o644); err != nil {
		t.Fatal(err)
	}

	listing := dirListing(t, dir)
	manifest, err := os.ReadFile(filepath.Join(dir, pagestore.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	ro, err := OpenExisting(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	checkAckedRows(t, ro, baseRows, 0)
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	if got := dirListing(t, dir); !reflect.DeepEqual(got, listing) {
		t.Fatalf("a session that never committed changed the directory:\n got %v\nwant %v", got, listing)
	}
	if got, err := os.ReadFile(filepath.Join(dir, pagestore.ManifestName)); err != nil || !bytes.Equal(got, manifest) {
		t.Fatalf("a session that never committed rewrote the manifest (err %v)", err)
	}

	re, err := OpenExisting(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	insertAcked(t, re, gapMarker, 1)
	if err := re.Compact(); err != nil {
		t.Fatal(err)
	}
	checkAckedRows(t, re, baseRows, 1)
	checkNoPins(t, re)
	checkCommittedDir(t, dir, catalogNamed(t, re), "ROUTING.json", "notes.txt")
	for name, data := range foreign {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s changed: %q, err %v", name, got, err)
		}
	}
}

// readerAnswers is what the pinned readers return for fixed probes.
type readerAnswers struct {
	knn    [][]int64
	photoZ []float64
	sample [][]int64
}

// readerProbes are the kNN and photo-z probes and the grid sample views
// of TestReadersPinAcrossFullCompaction.
type readerProbes struct {
	points []vec.Point
	views  []vec.Box
}

func (p readerProbes) knn(db *SpatialDB) ([][]int64, error) {
	recs, _, err := db.NearestNeighborsBatch(context.Background(), p.points, 8)
	if err != nil {
		return nil, err
	}
	out := make([][]int64, len(recs))
	for i, rs := range recs {
		for _, r := range rs {
			out[i] = append(out[i], r.ObjID)
		}
	}
	return out, nil
}

func (p readerProbes) photoZ(db *SpatialDB) ([]float64, error) {
	zs, _, err := db.EstimateRedshiftBatch(context.Background(), p.points)
	return zs, err
}

func (p readerProbes) sample(db *SpatialDB) ([][]int64, error) {
	out := make([][]int64, len(p.views))
	for i, v := range p.views {
		recs, _, err := db.SampleRegion(v, 60)
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			out[i] = append(out[i], r.ObjID)
		}
	}
	return out, nil
}

func (p readerProbes) all(t *testing.T, db *SpatialDB) readerAnswers {
	t.Helper()
	var a readerAnswers
	var err error
	if a.knn, err = p.knn(db); err == nil {
		if a.photoZ, err = p.photoZ(db); err == nil {
			a.sample, err = p.sample(db)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestReadersPinAcrossFullCompaction runs kNN batches, photo-z batches
// and grid samples in loops across repeated inserts and full
// compactions. Each holds a snapshot naming the files it reads, so no
// compaction unlinks a file under it: every answer is error-free and
// equals the same probe on a fresh build of the same rows — the grid's
// either side of the rebuild, since a minor compaction leaves the grid
// as it was. Afterwards no page is pinned, and closing the last cursor
// after a full compaction writes nothing.
func TestReadersPinAcrossFullCompaction(t *testing.T) {
	const rounds, batch = 3, 40
	p := sky.DefaultParams(2000, 42)
	p.SpectroFrac = 0.2
	rows, err := sky.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var probes readerProbes
	for i := 0; i < 24; i++ {
		m := rows[rng.Intn(len(rows))].Mags
		pt := make(vec.Point, table.Dim)
		for d := range pt {
			pt[d] = float64(m[d]) + rng.Float64()*0.2 - 0.1
		}
		probes.points = append(probes.points, pt)
	}
	for _, lo := range []float64{15, 17, 19} {
		probes.views = append(probes.views, vec.NewBox(vec.Point{lo, lo, lo}, vec.Point{lo + 3, lo + 3, lo + 3}))
	}
	// Inserted rows carry no redshift, so the photo-z reference — and
	// every estimate — stays that of the base rows.
	var extra [][]table.Record
	for r := 0; r < rounds; r++ {
		var b []table.Record
		for i := 0; i < batch; i++ {
			rec := rows[rng.Intn(len(rows))]
			rec.ObjID = int64(8_000_000_000 + r*batch + i)
			for d := range rec.Mags {
				rec.Mags[d] += float32(rng.Float64()*0.4 - 0.2)
			}
			rec.HasZ, rec.Redshift = false, 0
			b = append(b, rec)
		}
		extra = append(extra, b)
	}
	fresh := func(recs []table.Record) readerAnswers {
		db, err := Open(Config{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.IngestRecords(recs); err != nil {
			t.Fatal(err)
		}
		for _, build := range []func() error{
			func() error { return db.BuildKdIndex(0) },
			func() error { return db.BuildGridIndex(256, 7) },
			func() error { return db.BuildPhotoZ(16, 1) },
		} {
			if err := build(); err != nil {
				t.Fatal(err)
			}
		}
		return probes.all(t, db)
	}

	db, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.IngestRecords(rows); err != nil {
		t.Fatal(err)
	}
	for _, build := range []func() error{
		func() error { return db.BuildKdIndex(0) },
		func() error { return db.BuildGridIndex(256, 7) },
		func() error { return db.BuildPhotoZ(16, 1) },
		db.Persist,
	} {
		if err := build(); err != nil {
			t.Fatal(err)
		}
	}

	all := slices.Clone(rows)
	prev := fresh(all)
	if got := probes.all(t, db); !reflect.DeepEqual(got, prev) {
		t.Fatal("the built store answers unlike a fresh build of its rows")
	}
	for r := 0; r < rounds; r++ {
		if _, err := db.Insert(extra[r]); err != nil {
			t.Fatal(err)
		}
		all = append(all, extra[r]...)
		want := fresh(all)

		// Each reader loops until stopped, after it has run at least
		// once before and once after the compactions.
		var (
			wg     sync.WaitGroup
			mu     sync.Mutex
			errs   []string
			stop   = make(chan struct{})
			passes = make(chan struct{}, 3)
		)
		fail := func(format string, args ...any) {
			mu.Lock()
			errs = append(errs, fmt.Sprintf(format, args...))
			mu.Unlock()
		}
		reader := func(name string, run func() error) {
			defer wg.Done()
			for n := 0; ; n++ {
				if err := run(); err != nil {
					fail("round %d: %s: %v", r, name, err)
				}
				if n == 0 {
					passes <- struct{}{}
				}
				select {
				case <-stop:
					if err := run(); err != nil {
						fail("round %d: %s: %v", r, name, err)
					}
					return
				default:
				}
			}
		}
		wg.Add(3)
		go reader("knn", func() error {
			got, err := probes.knn(db)
			if err == nil && !reflect.DeepEqual(got, want.knn) {
				return fmt.Errorf("answers differ from a fresh build")
			}
			return err
		})
		go reader("photo-z", func() error {
			got, err := probes.photoZ(db)
			if err == nil && !reflect.DeepEqual(got, want.photoZ) {
				return fmt.Errorf("estimates differ from a fresh build")
			}
			return err
		})
		go reader("grid sample", func() error {
			// Each view is its own request, so each may land on either
			// side of a rebuild.
			got, err := probes.sample(db)
			for i := range got {
				if !reflect.DeepEqual(got[i], prev.sample[i]) && !reflect.DeepEqual(got[i], want.sample[i]) {
					return fmt.Errorf("view %d matches a fresh build of neither the old nor the new rows", i)
				}
			}
			return err
		})
		for i := 0; i < 3; i++ {
			<-passes
		}
		for i := 0; i < 2; i++ {
			if err := db.CompactFull(); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		wg.Wait()
		if len(errs) > 0 {
			t.Fatalf("%d reader failures, first: %s", len(errs), errs[0])
		}
		prev = want
	}
	checkNoPins(t, db)

	cur := openSkyCursor(t, db)
	if err := db.CompactFull(); err != nil {
		t.Fatal(err)
	}
	listing := dirListing(t, db.dir)
	manifest, err := os.ReadFile(filepath.Join(db.dir, pagestore.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	cur.Close()
	if got := dirListing(t, db.dir); !reflect.DeepEqual(got, listing) {
		t.Fatalf("closing the last cursor changed the directory:\n got %v\nwant %v", got, listing)
	}
	if got, err := os.ReadFile(filepath.Join(db.dir, pagestore.ManifestName)); err != nil || !bytes.Equal(got, manifest) {
		t.Fatalf("closing the last cursor rewrote the manifest (err %v)", err)
	}
	checkNoPins(t, db)
}
