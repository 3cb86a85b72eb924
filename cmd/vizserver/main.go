// Command vizserver is the database half of the paper's adaptive
// visualization system exposed over HTTP: clients send an
// axis-aligned view box and a point budget, the server answers from
// the layered uniform grid (§3.1) with n distribution-following
// points — the request shape of Figure 11's Producer plugins. The
// /query endpoint serves full colorsql statements — SELECT with
// projection, WHERE color cuts, ORDER BY (including dist() for
// nearest-first), LIMIT — through the cost-based planner and the
// streaming cursor pipeline: format=ndjson streams rows with chunked
// encoding as the scan produces them, a LIMIT bounds the pages read
// (not just the rows encoded), and a dropped connection cancels the
// scan mid-flight through the request context.
//
// The /knn and /photoz endpoints serve the §3.3 and §4.1
// applications: a POST /knn body carries many query points at once,
// each run as its statement ORDER BY dist(p) LIMIT k with exact
// per-query page accounting, and a /photoz probe is its reference kNN
// statement plus a local fit.
//
// The handlers live in internal/vizhttp, wired through per-endpoint
// QoS admission control: a bounded concurrent-query semaphore with a
// bounded timed wait queue, 429 + Retry-After load shedding when the
// queue is full or times out, and cost-based graceful degradation —
// under saturation, requests the planner prices above the -qos-expensive
// threshold are shed before execution. /stats reports the per-endpoint
// admission counters.
//
// A statement-keyed result cache (-result-cache-mb, default 8 MiB)
// serves repeated bounded-LIMIT statements, single-point kNN probes
// and small photo-z batches from memory: hits skip admission control
// entirely (X-Cache: hit), concurrent identical statements execute
// once and share the answer, and any persisted mutation invalidates
// the cache wholesale through the store epoch. /stats reports the
// per-namespace hit/miss/eviction counters under "qcache".
//
// Lifecycle: with -dir the server cold-opens a database persisted by
// sdssgen (or by a previous -build run) and does zero index
// construction at startup; -build ingests a synthetic catalog into
// -dir, builds every index, persists, and then serves. Without -dir
// it builds an ephemeral in-memory database, as before. SIGINT and
// SIGTERM drain in-flight requests and close the database cleanly
// (flushing the store manifest).
//
//	sdssgen   -dir /srv/sdss -n 1000000
//	vizserver -dir /srv/sdss -addr :8080
//	vizserver -dir /srv/sdss -build -n 200000   # build once, then serve
//	curl 'localhost:8080/points?min=14,14,14&max=24,24,24&n=1000'
//	curl 'localhost:8080/render?min=10,10,10&max=30,30,30&n=5000'
//	curl 'localhost:8080/query?where=g-r>0.4+AND+r<19&limit=5'
//	curl 'localhost:8080/query?format=ndjson' --data-urlencode 'q=SELECT objid,g,r WHERE g-r>0.4 AND r<19 ORDER BY r LIMIT 20' -G
//	curl 'localhost:8080/query?format=ndjson' --data-urlencode 'q=SELECT * ORDER BY dist(19.5,18.9,18.2,17.9,17.7) LIMIT 5' -G
//	curl -d '{"points":[[18.2,17.9,17.7,17.6,17.5]],"k":5}' 'localhost:8080/knn'
//	curl 'localhost:8080/photoz?mags=18.2,17.9,17.7,17.6,17.5'
//	curl 'localhost:8080/stats'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/sky"
	"repro/internal/vizhttp"
)

// The coordinator serves the same HTTP surface through the same
// handlers as a single store — enforced at compile time.
var _ vizhttp.Backend = (*shard.Coordinator)(nil)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", ":8080", "listen address")
	dir := flag.String("dir", "", "persisted database directory (empty = ephemeral in-memory build)")
	build := flag.Bool("build", false, "with -dir: ingest a synthetic catalog, build every index, persist, then serve")
	n := flag.Int("n", 200_000, "synthetic catalog size (ephemeral or -build mode)")
	seed := flag.Int64("seed", 42, "generator seed")
	qosConcurrent := flag.Int("qos-concurrent", 0, "max concurrently executing requests per endpoint (0 = 2×GOMAXPROCS, negative = no admission control)")
	qosQueue := flag.Int("qos-queue", 0, "max queued requests per endpoint (0 = 8×concurrent)")
	qosTimeout := flag.Duration("qos-timeout", 0, "max time a request waits in the admission queue (0 = 2s)")
	qosExpensive := flag.Float64("qos-expensive", 0, "planner cost above which a request is shed instead of queued under saturation (0 = 8×catalog scan, negative = off)")
	resultCacheMB := flag.Int64("result-cache-mb", 8, "statement result cache budget in MiB (0 = plan cache only); cached answers skip admission control")
	compactEvery := flag.Duration("compact-every", 2*time.Second, "background compaction interval for POST /insert ingest (0 = no background compactor; inserts stay in the WAL-backed memtable)")
	coordinator := flag.Bool("coordinator", false, "serve as a scatter-gather coordinator over -targets; -dir holds the routing table only (no store is opened)")
	targets := flag.String("targets", "", "comma-separated shard base URLs for -coordinator mode, one per routing-table shard in shard order")
	shardTimeout := flag.Duration("shard-timeout", 0, "coordinator: per-sub-request timeout (0 = 60s)")
	hedgeAfter := flag.Duration("hedge-after", 0, "coordinator: duplicate an idempotent sub-request not answered after this long (0 = 2s, negative = off)")
	debugAddr := flag.String("debug-addr", "", "optional separate listen address for net/http/pprof profiling endpoints")
	flag.Parse()
	if *build && *dir == "" {
		// Persisting into the ephemeral temp directory would delete the
		// build on exit — refuse rather than silently waste it.
		log.Fatal("vizserver: -build requires -dir (the persisted database must outlive the process)")
	}

	if *debugAddr != "" {
		// pprof registers on the default mux; the serving mux below is
		// dedicated, so profiling stays off the public listener.
		go func() {
			log.Printf("pprof listening on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	var backend vizhttp.Backend
	var db *core.SpatialDB
	if *coordinator {
		if *dir == "" {
			log.Fatal("vizserver: -coordinator requires -dir (the directory holding ROUTING.json)")
		}
		rt, err := shard.LoadRoutingTable(*dir)
		if err != nil {
			log.Fatal(err)
		}
		urls := strings.Split(*targets, ",")
		if *targets == "" {
			urls = nil
		}
		coord, err := shard.NewCoordinator(rt, urls, shard.Config{
			ShardTimeout: *shardTimeout,
			HedgeAfter:   *hedgeAfter,
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("coordinator: %d shards, %d routing units, %d rows total (no store opened)",
			rt.NumShards(), len(rt.UnitShard), rt.TotalRows)
		for i, s := range rt.Shards {
			log.Printf("  shard %d → %s (%d rows)", i, urls[i], s.Rows)
		}
		backend = coord
	} else {
		var cleanup func()
		var err error
		db, cleanup, err = openDB(*dir, *build, *n, *seed, *resultCacheMB<<20)
		if err != nil {
			log.Fatal(err)
		}
		defer cleanup()

		report := func(name string, built bool) string {
			if built {
				return name
			}
			return name + "(absent)"
		}
		log.Printf("catalog: %d rows; indexes: %s %s %s",
			db.NumRows(),
			report("grid", db.Grid() != nil), report("kdtree", db.KdTree() != nil),
			report("photoz", db.PhotoZBuilt()))
		if mem := db.MemRows(); mem > 0 {
			log.Printf("recovered %d acknowledged rows from the WAL into the memtable", mem)
		}
		if *compactEvery > 0 {
			db.StartCompactor(*compactEvery)
			log.Printf("background compactor: every %v", *compactEvery)
		}
		backend = vizhttp.CoreBackend(db)
	}

	s := vizhttp.NewBackend(backend, vizhttp.Config{
		MaxConcurrent: *qosConcurrent,
		MaxQueue:      *qosQueue,
		QueueTimeout:  *qosTimeout,
		ExpensiveCost: *qosExpensive,
	})

	srv := &http.Server{
		Addr:    *addr,
		Handler: s.Handler(),
		// A stuck or malicious client must not hold a connection (and
		// its goroutine) forever. Streaming responses are governed by
		// vizhttp's rolling per-write deadline instead of an absolute
		// response timeout, so WriteTimeout stays 0 here.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("listening on %s", *addr)

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("signal received; draining connections")
		shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		// Close the database after the last request: flushes dirty
		// pages and rewrites the manifest superblock. The coordinator
		// owns no store, so it has nothing to close.
		if db != nil {
			if err := db.Close(); err != nil {
				log.Printf("close database: %v", err)
			}
		}
		log.Printf("closed cleanly")
	}
}

// openDB resolves the lifecycle mode: cold open a persisted
// directory (default with -dir), build-once into -dir, or an
// ephemeral in-memory build. The returned cleanup removes the
// ephemeral directory.
func openDB(dir string, build bool, n int, seed int64, resultCacheBytes int64) (*core.SpatialDB, func(), error) {
	cleanup := func() {}
	switch {
	case dir != "" && !build:
		db, err := core.OpenExisting(core.Config{Dir: dir, ResultCacheBytes: resultCacheBytes})
		if err != nil {
			return nil, cleanup, fmt.Errorf("%w\n(build it first: sdssgen -dir %s, or vizserver -dir %s -build)", err, dir, dir)
		}
		log.Printf("cold-opened %s: no index construction", dir)
		return db, cleanup, nil
	case dir == "":
		tmp, err := os.MkdirTemp("", "vizserver-*")
		if err != nil {
			return nil, cleanup, err
		}
		cleanup = func() { os.RemoveAll(tmp) }
		dir = tmp
	}
	db, err := core.Open(core.Config{Dir: dir, ResultCacheBytes: resultCacheBytes})
	if err != nil {
		return nil, cleanup, err
	}
	if err := db.IngestSynthetic(sky.DefaultParams(n, seed)); err != nil {
		return nil, cleanup, err
	}
	if err := db.BuildKdIndex(0); err != nil {
		return nil, cleanup, err
	}
	if err := db.BuildGridIndex(1024, seed); err != nil {
		return nil, cleanup, err
	}
	if err := db.BuildPhotoZ(24, 1); err != nil {
		return nil, cleanup, err
	}
	if build {
		if err := db.Persist(); err != nil {
			return nil, cleanup, err
		}
		log.Printf("built and persisted %s", dir)
	}
	return db, cleanup, nil
}
