package repro

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vec"
)

// BenchmarkEvictionChurn is the larger-than-RAM serving benchmark:
// the buffer pool holds a fraction of the database's pages, and the
// workload is the paper's serving mix under memory pressure —
// full-scan polyhedron queries (the pure-LRU cache polluter)
// running concurrently with batched kNN queries whose region-growing
// touches a stable hot set of clustered-table pages.
//
// pool=10pct is the pressure case ROADMAP's north star runs through:
// a scan-resistant pool keeps the kNN hot set resident while scans
// recycle probationary frames, so throughput and disk reads stay
// near the RAM-sized pool's; a pure-LRU pool re-faults the hot set
// after every scan. pool=ram is the no-pressure control.
//
// The database is built and persisted once, then cold-opened per
// pool size, so every run serves the same on-disk bytes.
func BenchmarkEvictionChurn(b *testing.B) {
	churnOnce.Do(func() { churnDir, churnPages, churnErr = buildChurnDB() })
	if churnErr != nil {
		b.Fatal(churnErr)
	}

	for _, cfg := range []struct {
		name string
		pool int
	}{
		{"pool=10pct", int(churnPages / 10)},
		{"pool=ram", int(churnPages) + 64},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			db, err := core.OpenExisting(core.Config{Dir: churnDir, PoolPages: cfg.pool})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()

			// Selective enough that the answer set is small, but the
			// forced full scan still sweeps every catalog page.
			scanPoly := vec.BoxPolyhedron(vec.NewBox(
				vec.Point{17.9, 17.6, 17.4, 17.3, 17.2},
				vec.Point{18.5, 18.2, 18.0, 17.9, 17.8}))
			// Two compact query neighbourhoods: the batches' region
			// growing touches a stable hot set of clustered-table pages
			// that comfortably fits a 10% pool — the set a polluting
			// scan must not evict.
			centers := []vec.Point{
				{18.2, 17.9, 17.7, 17.6, 17.5},
				{19.5, 19.1, 18.8, 18.6, 18.5},
			}
			knnQueries := make([]vec.Point, 16)
			for i := range knnQueries {
				c := centers[i%len(centers)]
				q := make(vec.Point, len(c))
				for d := range c {
					q[d] = c[d] + 0.01*float64(i/len(centers))
				}
				knnQueries[i] = q
			}

			// Warm the pool to steady state before measuring.
			if _, _, err := db.QueryPolyhedron(scanPoly, core.PlanFullScan); err != nil {
				b.Fatal(err)
			}
			if _, _, err := db.NearestNeighborsBatch(context.Background(), knnQueries, 10); err != nil {
				b.Fatal(err)
			}

			before := db.Engine().Store().Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// One round: a full scan with six kNN batches in flight
				// alongside it — the serving mix is lookup-heavy, and
				// the scan must not wipe the batches' hot pages.
				var wg sync.WaitGroup
				var scanErr, knnErr error
				wg.Add(2)
				go func() {
					defer wg.Done()
					_, _, scanErr = db.QueryPolyhedron(scanPoly, core.PlanFullScan)
				}()
				go func() {
					defer wg.Done()
					for j := 0; j < 6; j++ {
						if _, _, knnErr = db.NearestNeighborsBatch(context.Background(), knnQueries, 10); knnErr != nil {
							return
						}
					}
				}()
				wg.Wait()
				if scanErr != nil {
					b.Fatal(scanErr)
				}
				if knnErr != nil {
					b.Fatal(knnErr)
				}
			}
			b.StopTimer()
			d := db.Engine().Store().Stats().Sub(before)
			b.ReportMetric(float64(d.DiskReads)/float64(b.N), "diskreads/op")
			b.ReportMetric(float64(d.Evictions)/float64(b.N), "evictions/op")
		})
	}
}

// BenchmarkKnnMemtable is a k = 10 probe on an ingesting store: a
// 20 000-row indexed catalog with 1 000 / 4 000 / 16 000 acknowledged
// rows waiting in the memtable. The probe's paged half is the same at
// every size, so the growth in ns/op and B/op from one size to the next
// is what folding the memtable into the answer costs.
func BenchmarkKnnMemtable(b *testing.B) {
	db, err := core.Open(core.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if err := db.IngestSynthetic(sky.DefaultParams(20_000, 42)); err != nil {
		b.Fatal(err)
	}
	if err := db.BuildKdIndex(0); err != nil {
		b.Fatal(err)
	}
	fresh, err := sky.Generate(sky.DefaultParams(16_000, 43))
	if err != nil {
		b.Fatal(err)
	}
	probes := make([]vec.Point, 64)
	for i := range probes {
		probes[i] = fresh[i*97].Point()
	}
	for i := range fresh {
		fresh[i] = table.Record{ObjID: 900_000_000 + int64(i), Mags: fresh[i].Mags, Ra: fresh[i].Ra, Dec: fresh[i].Dec}
	}
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			for have := db.MemRows(); have < n; have = db.MemRows() {
				if _, err := db.Insert(fresh[have:min(have+1000, n)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := db.NearestNeighbors(probes[i%len(probes)], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var (
	churnOnce  sync.Once
	churnDir   string
	churnPages int64
	churnErr   error
)

// benchTempDirs collects the once-per-process on-disk fixtures the
// benchmark families build (this file's churn database, the
// cold-open database, the shared index fixture) so TestMain can
// remove them; without it every `go test -bench` run leaked them in
// the system temp dir.
var (
	benchDirsMu   sync.Mutex
	benchTempDirs []string
)

func registerBenchDir(dir string) {
	benchDirsMu.Lock()
	benchTempDirs = append(benchTempDirs, dir)
	benchDirsMu.Unlock()
}

func TestMain(m *testing.M) {
	code := m.Run()
	benchDirsMu.Lock()
	for _, d := range benchTempDirs {
		os.RemoveAll(d)
	}
	benchDirsMu.Unlock()
	os.Exit(code)
}

// buildChurnDB persists a catalog + kd-tree database for the churn
// benchmarks and returns its directory and total page count.
func buildChurnDB() (string, int64, error) {
	dir, err := os.MkdirTemp("", "repro-churn-*")
	if err != nil {
		return "", 0, err
	}
	registerBenchDir(dir)
	db, err := core.Open(core.Config{Dir: dir})
	if err != nil {
		return "", 0, err
	}
	if err := db.IngestSynthetic(sky.DefaultParams(benchRows, 42)); err != nil {
		return "", 0, err
	}
	if err := db.BuildKdIndex(0); err != nil {
		return "", 0, err
	}
	if err := db.Persist(); err != nil {
		return "", 0, err
	}
	var pages int64
	for _, p := range db.Engine().Store().ManifestFiles() {
		pages += int64(p)
	}
	if err := db.Close(); err != nil {
		return "", 0, err
	}
	if pages == 0 {
		return "", 0, fmt.Errorf("churn fixture persisted zero pages")
	}
	return dir, pages, nil
}
