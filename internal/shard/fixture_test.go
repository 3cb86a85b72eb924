package shard

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/colorsql"
	"repro/internal/core"
	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vizhttp"
)

// The package fixture: one synthetic catalog built twice — once as a
// single store, once partitioned into a 3-shard cluster — from the
// exact same record slice. Every equivalence test compares the
// coordinator's answers against the single store's.
var (
	fixtureRecs []table.Record
	singleDir   string
	clusterDir  string
)

const (
	fixtureRows   = 4000
	fixtureSeed   = 7
	fixtureShards = 3
)

func TestMain(m *testing.M) {
	root, err := os.MkdirTemp("", "shard-fixture-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := func() int {
		defer os.RemoveAll(root)
		singleDir = filepath.Join(root, "single")
		clusterDir = filepath.Join(root, "cluster")

		p := sky.DefaultParams(fixtureRows, fixtureSeed)
		p.SpectroFrac = 0.05
		fixtureRecs, err = sky.Generate(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}

		db, err := core.Open(core.Config{Dir: singleDir})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		for _, build := range []func() error{
			func() error { return db.IngestRecords(fixtureRecs) },
			func() error { return db.BuildKdIndex(0) },
			func() error { return db.BuildGridIndex(1024, fixtureSeed) },
			func() error { return db.BuildPhotoZ(24, 1) },
			db.Persist,
			db.Close,
		} {
			if err := build(); err != nil {
				fmt.Fprintln(os.Stderr, "single fixture:", err)
				return 1
			}
		}

		if _, err := BuildCluster(clusterDir, fixtureRecs, BuildParams{
			Shards: fixtureShards,
			Seed:   fixtureSeed,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "cluster fixture:", err)
			return 1
		}
		return m.Run()
	}()
	os.Exit(code)
}

// cluster is one running test cluster: shard stores behind real
// vizhttp servers, and a coordinator over them.
type cluster struct {
	coord   *Coordinator
	rt      *RoutingTable
	targets []string
	servers []*httptest.Server
	dbs     []*core.SpatialDB
	closed  bool
}

// startCluster opens the fixture's shard stores, serves each through
// vizhttp over a real HTTP listener, and builds a coordinator.
// Everything is torn down via t.Cleanup.
func startCluster(t *testing.T, cfg Config) *cluster {
	t.Helper()
	return startClusterAt(t, clusterDir, cfg, core.Config{})
}

// startClusterAt is startCluster over any BuildCluster output, its
// shards opened under dbCfg (Dir is each shard's own).
func startClusterAt(t *testing.T, clusterDir string, cfg Config, dbCfg core.Config) *cluster {
	t.Helper()
	rt, err := LoadRoutingTable(clusterDir)
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{rt: rt}
	t.Cleanup(c.close)
	for i := 0; i < rt.NumShards(); i++ {
		dbCfg.Dir = filepath.Join(clusterDir, ShardDir(i))
		db, err := core.OpenExisting(dbCfg)
		if err != nil {
			t.Fatalf("open shard %d: %v", i, err)
		}
		c.dbs = append(c.dbs, db)
		srv := httptest.NewServer(vizhttp.New(db, vizhttp.Config{}).Handler())
		c.servers = append(c.servers, srv)
		c.targets = append(c.targets, srv.URL)
	}
	coord, err := NewCoordinator(rt, c.targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.coord = coord
	return c
}

// closeServers stops the shard servers once every request in flight
// has finished; the stores stay open.
func (c *cluster) closeServers() {
	for _, srv := range c.servers {
		srv.Close()
	}
}

// close stops the servers and closes the stores, once.
func (c *cluster) close() {
	if c.closed {
		return
	}
	c.closed = true
	c.closeServers()
	for _, db := range c.dbs {
		db.Close()
	}
}

// openSingle cold-opens the single-store fixture.
func openSingle(t *testing.T) *core.SpatialDB {
	t.Helper()
	db, err := core.OpenExisting(core.Config{Dir: singleDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// mustParse compiles one statement.
func mustParse(t *testing.T, src string) colorsql.Statement {
	t.Helper()
	stmt, err := colorsql.ParseStatement(src, colorsql.DefaultVars(), table.Dim)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return stmt
}

// renderRows drains a cursor into the exact per-row JSON the HTTP
// layer would serialize — the byte-identity currency of the
// equivalence tests.
func renderRows(t *testing.T, stmt colorsql.Statement, cur core.Cursor) []string {
	t.Helper()
	defer cur.Close()
	cols := stmt.OutputColumns()
	var rows []string
	for cur.Next() {
		rows = append(rows, string(core.AppendRowJSON(nil, cols, cur.Record())))
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	return rows
}
