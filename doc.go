// Package repro is a from-scratch Go reproduction of "Spatial
// Indexing of Large Multidimensional Databases" (Csabai et al., CIDR
// 2007): a database engine with layered-grid and kd-tree spatial
// indexes over a 5-dimensional astronomical color space, the sampled
// Voronoi tessellation its science callers build on demand, the
// scientific applications built on them (photometric redshifts,
// spectral similarity, basin-spanning-tree classification, outlier
// detection), and the adaptive visualization pipeline.
//
// A WHERE runs one access path: the planner of internal/planner walks
// the kd-tree once, estimates the query's selectivity, and prices the
// index scan that walk yields over the leaf-clustered catalog. The
// paper's Figure 5 trade-off does not arise here: the index scan reads
// a subset of the full scan's pages in the same ascending order, so it
// never reads more (Figure 5's experiment measures the two converging
// to 1x at full selectivity, with no crossover). Every statement
// executes on the request's own goroutine, so its counters are exact
// and repeatable; requests run concurrently.
//
// Execution is streaming end to end: every path emits rows through
// a Volcano-style pull cursor (core.Cursor) with exact per-cursor
// page stats, colorsql parses full SELECT / WHERE / ORDER BY /
// LIMIT statements with limit and projection pushdown, and a
// context.Context threads from the HTTP handlers into the table
// scans so a disconnected client stops page I/O mid-flight.
//
// The public entry point is internal/core.SpatialDB; see README.md
// for the architecture, DESIGN.md for the system inventory and
// experiment index, and EXPERIMENTS.md for paper-vs-measured
// results. The root package holds the cross-cutting benchmark suite
// (bench_test.go, one family per table/figure of the paper) and the
// end-to-end integration tests.
package repro
