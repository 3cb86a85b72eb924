package repro

import (
	"os"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sky"
	"repro/internal/vec"
)

// BenchmarkColdOpen* measures the build-once / serve-many lifecycle:
// attaching a fresh process to a persisted database (manifest +
// catalog + paged index structures, zero construction) versus
// rebuilding every index from the raw catalog — the restart cost the
// persistent format exists to eliminate. EXPERIMENTS.md records the
// measured ratio; cmd/experiments -exp coldopen prints the same
// comparison as a report.

const coldOpenRows = 20_000

var coldOpenDir = struct {
	sync.Once
	dir string
	err error
}{}

// persistedDir builds and persists the benchmark database once per
// process.
func persistedDir(b *testing.B) string {
	b.Helper()
	coldOpenDir.Do(func() {
		dir, err := os.MkdirTemp("", "repro-coldopen-bench-*")
		if err != nil {
			coldOpenDir.err = err
			return
		}
		registerBenchDir(dir)
		db, err := buildColdOpenDB(dir)
		if err != nil {
			coldOpenDir.err = err
			return
		}
		if err := db.Persist(); err != nil {
			coldOpenDir.err = err
			return
		}
		if err := db.Close(); err != nil {
			coldOpenDir.err = err
			return
		}
		coldOpenDir.dir = dir
	})
	if coldOpenDir.err != nil {
		b.Fatal(coldOpenDir.err)
	}
	return coldOpenDir.dir
}

func buildColdOpenDB(dir string) (*core.SpatialDB, error) {
	db, err := core.Open(core.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	p := sky.DefaultParams(coldOpenRows, 42)
	p.SpectroFrac = 0.05
	if err := db.IngestSynthetic(p); err != nil {
		return nil, err
	}
	if err := db.BuildKdIndex(0); err != nil {
		return nil, err
	}
	if err := db.BuildGridIndex(512, 42); err != nil {
		return nil, err
	}
	if err := db.BuildPhotoZ(16, 1); err != nil {
		return nil, err
	}
	return db, nil
}

// BenchmarkColdOpen: reassemble a serving SpatialDB from disk.
func BenchmarkColdOpen(b *testing.B) {
	dir := persistedDir(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := core.OpenExisting(core.Config{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		db.Close()
	}
}

// BenchmarkColdOpenFirstQuery: cold open plus the first kd-tree
// query — the end-to-end restart-to-first-answer latency.
func BenchmarkColdOpenFirstQuery(b *testing.B) {
	dir := persistedDir(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := core.OpenExisting(core.Config{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := db.QueryWhere("g - r > 0.3 AND r < 20", core.PlanAuto); err != nil {
			b.Fatal(err)
		}
		if _, _, err := db.NearestNeighbors(vec.Point{19.2, 18.8, 18.4, 18.2, 18.1}, 10); err != nil {
			b.Fatal(err)
		}
		db.Close()
	}
}

// BenchmarkFullRebuild: the pre-persistence lifecycle — ingest and
// rebuild every index in RAM on each start.
func BenchmarkFullRebuild(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp("", "repro-rebuild-bench-*")
		if err != nil {
			b.Fatal(err)
		}
		db, err := buildColdOpenDB(dir)
		if err != nil {
			b.Fatal(err)
		}
		db.Close()
		os.RemoveAll(dir)
	}
}
