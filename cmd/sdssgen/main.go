// Command sdssgen is the build-once half of the lifecycle: it
// materializes a synthetic SDSS-like catalog on disk, builds the
// spatial indexes over it, and persists everything — paged tables,
// paged index structures, engine catalog, and the checksummed store
// manifest — so cmd/spatialq and cmd/vizserver can cold-open the
// directory and serve without any construction:
//
//	sdssgen -dir /tmp/sdss -n 1000000 -seed 42 -spectro 0.01
//	sdssgen -dir /tmp/sdss -n 1000000 -indexes=false   # catalog only
//
// With -shards N it builds a sharded cluster instead: the catalog is
// partitioned by kd-subtree ranges into N self-contained shard stores
// (shard-0/ … shard-N-1/, each with its own indexes and a photo-z
// reference of its own spectroscopic rows) plus a compact ROUTING.json
// that a vizserver -coordinator cold-opens to route queries:
//
//	sdssgen -dir /tmp/cluster -n 1000000 -shards 3
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/pagestore"
	"repro/internal/shard"
	"repro/internal/sky"
	"repro/internal/table"
)

func main() {
	log.SetFlags(0)
	dir := flag.String("dir", "", "output directory (required)")
	n := flag.Int("n", 1_000_000, "number of objects")
	seed := flag.Int64("seed", 42, "generator seed")
	spectro := flag.Float64("spectro", 0.01, "spectroscopic (reference) fraction")
	indexes := flag.Bool("indexes", true, "build and persist the kd-tree, grid and photo-z structures")
	knnK := flag.Int("photoz-k", 24, "photo-z neighbourhood size (with -indexes)")
	shards := flag.Int("shards", 0, "partition the catalog into this many shard stores plus a routing table (0 = single store)")
	flag.Parse()
	if *dir == "" {
		log.Fatal("sdssgen: -dir is required")
	}

	if *shards > 0 {
		buildCluster(*dir, *n, *seed, *spectro, *indexes, *knnK, *shards)
		return
	}

	db, err := core.Open(core.Config{Dir: *dir})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	start := time.Now()
	p := sky.DefaultParams(*n, *seed)
	p.SpectroFrac = *spectro
	if err := db.IngestSynthetic(p); err != nil {
		log.Fatal(err)
	}
	tb, err := db.Catalog()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %s/magnitude.tbl: %d rows, %d pages (%d MiB) in %v\n",
		*dir, tb.NumRows(), tb.NumPages(), tb.NumPages()*pagestore.PageSize/(1<<20), time.Since(start).Round(time.Millisecond))

	if *indexes {
		build := func(name string, fn func() error) {
			t0 := time.Now()
			if err := fn(); err != nil {
				log.Fatalf("sdssgen: build %s: %v", name, err)
			}
			fmt.Printf("built %-8s in %v\n", name, time.Since(t0).Round(time.Millisecond))
		}
		build("kd-tree", func() error { return db.BuildKdIndex(0) })
		build("grid", func() error { return db.BuildGridIndex(1024, *seed) })
		build("photo-z", func() error { return db.BuildPhotoZ(*knnK, 1) })
	}

	t0 := time.Now()
	if err := db.Persist(); err != nil {
		log.Fatal(err)
	}
	// The kd build replaced the ingested table: what queries read from
	// here on is the catalog clustered on the tree's leaves.
	if tb, err = db.Catalog(); err != nil {
		log.Fatal(err)
	}
	files := db.Engine().Store().ManifestFiles()
	var pages pagestore.PageNum
	for _, p := range files {
		pages += p
	}
	fmt.Printf("persisted %d files, %d pages (%d MiB) in %v — serve with spatialq/vizserver -dir %s\n",
		len(files), pages, int(pages)*pagestore.PageSize/(1<<20), time.Since(t0).Round(time.Millisecond), *dir)

	if zm := tb.ZoneMaps(); zm != nil {
		// Zone tightness summary: mean per-page span of each magnitude
		// relative to its full catalog range, over the zones queries
		// read. Tight zones (small fractions) are what make pruning
		// effective: clustered on the kd-tree's leaves, the catalog's are
		// tight; in arrival order (-indexes=false) they are wide.
		var span, lo, hi [table.Dim]float64
		for d := 0; d < table.Dim; d++ {
			lo[d], hi[d] = +1e300, -1e300
		}
		for pg := 0; pg < zm.NumPages(); pg++ {
			z, _ := zm.Page(pg)
			for d := 0; d < table.Dim; d++ {
				span[d] += z.Max[d] - z.Min[d]
				lo[d] = min(lo[d], z.Min[d])
				hi[d] = max(hi[d], z.Max[d])
			}
		}
		fmt.Printf("zone maps: %d pages; mean span / range per band:", zm.NumPages())
		for d := 0; d < table.Dim; d++ {
			frac := 0.0
			if hi[d] > lo[d] {
				frac = span[d] / float64(zm.NumPages()) / (hi[d] - lo[d])
			}
			fmt.Printf(" %.3f", frac)
		}
		fmt.Println()
	}

	counts := map[table.Class]uint64{}
	var spec uint64
	if err := tb.Scan(func(_ table.RowID, r *table.Record) bool {
		counts[r.Class]++
		if r.HasZ {
			spec++
		}
		return true
	}); err != nil {
		log.Fatal(err)
	}
	for c := table.Star; c < table.NumClasses; c++ {
		fmt.Printf("  %-8s %9d (%.1f%%)\n", c, counts[c], 100*float64(counts[c])/float64(tb.NumRows()))
	}
	fmt.Printf("  %-8s %9d (%.2f%%)\n", "spectro", spec, 100*float64(spec)/float64(tb.NumRows()))
}

// buildCluster generates the catalog once and partitions it into
// shard stores plus ROUTING.json.
func buildCluster(dir string, n int, seed int64, spectro float64, indexes bool, knnK, shards int) {
	start := time.Now()
	p := sky.DefaultParams(n, seed)
	p.SpectroFrac = spectro
	recs, err := sky.Generate(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d rows in %v\n", len(recs), time.Since(start).Round(time.Millisecond))

	t0 := time.Now()
	rt, err := shard.BuildCluster(dir, recs, shard.BuildParams{
		Shards:  shards,
		Seed:    seed,
		Indexes: indexes,
		PhotoZK: knnK,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partitioned into %d shards (%d routing units) in %v\n",
		rt.NumShards(), len(rt.UnitShard), time.Since(t0).Round(time.Millisecond))
	for i := range rt.Shards {
		s := &rt.Shards[i]
		fmt.Printf("  shard %d: %s/%s — %d rows (%.1f%%), %d routing cells\n",
			i, dir, shard.ShardDir(i), s.Rows, 100*float64(s.Rows)/float64(rt.TotalRows), len(s.Cells))
	}
	fmt.Printf("routing table: %s/%s — serve each shard with vizserver -dir, then\n", dir, shard.RoutingFile)
	fmt.Printf("  vizserver -coordinator -dir %s -targets http://shard0,http://shard1,...\n", dir)
}
