package main

import (
	"context"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vizhttp"
)

// Frozen sizes. The pool sizes are absolute, so a -rows sweep grows
// the database against a fixed pool.
const (
	defaultRows = 200_000 // 1961 pages ≈ 15 MiB per clustered copy, ≈ 62 MiB persisted

	residentPool = 16384 // 128 MiB: the whole database stays resident
	scanPool     = 256   // 2 MiB against 15 MiB per clustered copy
	ingestPool   = 4096

	defaultCacheBytes = 8 << 20 // vizserver's -result-cache-mb default
	hotCacheBytes     = 2 << 20

	ingestCompactEvery = time.Second
	scatterShards      = 3
)

// storeConfig is how a workload opens its store(s).
type storeConfig struct {
	poolPages    int
	cacheBytes   int64
	compactEvery time.Duration
	shards       int // 0: single store
}

var storeConfigs = map[string]storeConfig{
	"interactive": {poolPages: residentPool, cacheBytes: defaultCacheBytes},
	"scan":        {poolPages: scanPool},
	"hot":         {poolPages: residentPool, cacheBytes: hotCacheBytes},
	"ingest":      {poolPages: ingestPool, cacheBytes: defaultCacheBytes, compactEvery: ingestCompactEvery},
	"scatter":     {poolPages: residentPool, cacheBytes: defaultCacheBytes, shards: scatterShards},
}

// rig is one workload's system under test: the open store(s), the
// HTTP servers on loopback listeners, and the generated catalog the
// oracle checks against.
type rig struct {
	cfg   storeConfig
	dir   string
	recs  []table.Record
	dbs   []*core.SpatialDB
	entry *vizhttp.Server // the server the clients talk to
	coord *shard.Coordinator
	url   string
	srvs  []*http.Server
	tr    *tracer // nil in an untraced run

	coldOpen time.Duration
}

// buildStore generates nothing: it loads recs into a fresh store at
// dir, builds every index, persists and closes, like sdssgen.
func buildStore(dir string, recs []table.Record, seed int64) error {
	db, err := core.Open(core.Config{Dir: dir})
	if err != nil {
		return err
	}
	steps := []func() error{
		func() error { return db.IngestRecords(recs) },
		func() error { return db.BuildKdIndex(0) },
		func() error { return db.BuildGridIndex(1024, seed) },
		func() error { return db.BuildVoronoiIndex(0, seed) },
		func() error { return db.BuildPhotoZ(24, 1) },
		db.Persist,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			db.Close()
			return err
		}
	}
	return db.Close()
}

// setUp generates the catalog, builds and persists the database under
// dir, cold-opens it and starts serving. Everything it does is set-up
// time.
func setUp(workload string, seed int64, rows int, dir string, traced bool) (*rig, error) {
	r := &rig{cfg: storeConfigs[workload], dir: dir}
	if traced {
		r.tr = newTracer()
	}
	recs, err := sky.Generate(sky.DefaultParams(rows, seed))
	if err != nil {
		return nil, err
	}
	r.recs = recs

	var dbDirs []string
	if r.cfg.shards == 0 {
		if err := buildStore(dir, recs, seed); err != nil {
			return nil, fmt.Errorf("build store: %w", err)
		}
		dbDirs = []string{dir}
	} else {
		if _, err := shard.BuildCluster(dir, recs, shard.BuildParams{Shards: r.cfg.shards, Seed: seed, Indexes: true}); err != nil {
			return nil, fmt.Errorf("build cluster: %w", err)
		}
		for i := 0; i < r.cfg.shards; i++ {
			dbDirs = append(dbDirs, filepath.Join(dir, shard.ShardDir(i)))
		}
	}

	t0 := time.Now()
	var shardURLs []string
	for i, d := range dbDirs {
		db, err := core.OpenExisting(core.Config{Dir: d, PoolPages: r.cfg.poolPages, ResultCacheBytes: r.cfg.cacheBytes})
		if err != nil {
			r.close()
			return nil, fmt.Errorf("cold open %s: %w", d, err)
		}
		r.dbs = append(r.dbs, db)
		if r.cfg.compactEvery > 0 {
			db.StartCompactor(r.cfg.compactEvery)
		}
		node := "entry"
		if r.cfg.shards > 0 {
			node = fmt.Sprintf("shard%d", i)
		}
		r.entry, r.url, err = r.serve(vizhttp.CoreBackend(db), r.tracedNode(node))
		if err != nil {
			r.close()
			return nil, err
		}
		shardURLs = append(shardURLs, r.url)
	}
	if r.cfg.shards > 0 {
		if err := r.startCoordinator(shardURLs); err != nil {
			r.close()
			return nil, err
		}
	}
	r.coldOpen = time.Since(t0)
	return r, nil
}

// tracedNode returns the tracing wrapper for one server, nil in an
// untraced run.
func (r *rig) tracedNode(node string) *tracedServer {
	if r.tr == nil {
		return nil
	}
	return &tracedServer{tr: r.tr, node: node}
}

// serve mounts a vizhttp server over backend on a fresh loopback
// listener. With ts set, the backend and the handler are wrapped.
func (r *rig) serve(backend vizhttp.Backend, ts *tracedServer) (*vizhttp.Server, string, error) {
	if ts != nil {
		backend = tracedBackend{Backend: backend, s: ts}
	}
	vs := vizhttp.NewBackend(backend, vizhttp.Config{})
	h := vs.Handler()
	if ts != nil {
		h = ts.handler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	r.srvs = append(r.srvs, srv)
	go srv.Serve(ln) // returns ErrServerClosed at Shutdown
	return vs, "http://" + ln.Addr().String(), nil
}

// startCoordinator cold-opens the routing table and serves the
// coordinator as the entry server.
func (r *rig) startCoordinator(shardURLs []string) error {
	rt, err := shard.LoadRoutingTable(r.dir)
	if err != nil {
		return err
	}
	cfg := shard.Config{}
	ts := r.tracedNode("entry")
	if ts != nil {
		// Same pooling as the coordinator's own default client.
		base := http.DefaultTransport.(*http.Transport).Clone()
		base.MaxIdleConnsPerHost = 64
		cfg.Client = &http.Client{Transport: &tracedTransport{base: base, s: ts}}
	}
	r.coord, err = shard.NewCoordinator(rt, shardURLs, cfg)
	if err != nil {
		return err
	}
	r.entry, r.url, err = r.serve(r.coord, ts)
	return err
}

// stopServing shuts the listeners down and waits for their handlers.
func (r *rig) stopServing() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range r.srvs {
		if err := s.Shutdown(ctx); err != nil {
			s.Close()
		}
	}
	r.srvs = nil
}

// closeStores closes every open store.
func (r *rig) closeStores() error {
	var first error
	for _, db := range r.dbs {
		if err := db.Close(); err != nil && first == nil {
			first = err
		}
	}
	r.dbs = nil
	return first
}

// close stops serving, closes the stores and removes the database.
func (r *rig) close() {
	r.stopServing()
	r.closeStores()
	os.RemoveAll(r.dir)
}

// diskBytes sums the regular files under the database directory.
func (r *rig) diskBytes() (int64, error) {
	var total int64
	err := filepath.WalkDir(r.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
