package repro

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"testing"
	"time"

	"repro/internal/colorsql"
	"repro/internal/core"
	"repro/internal/sky"
	"repro/internal/table"
	"repro/internal/vizhttp"
)

// BenchmarkTopKQuery measures the streaming statement pipeline's
// work-bounded top-k: ORDER BY over a colour cut with a LIMIT keeps a
// k-row heap instead of sorting every match and visits the cut's pages
// best zone key first, so it reads the pages that can hold the answer
// and skips the rest by the k-th key. The k=10 and k=100 cases rank a
// selective cut; deep ranks a cut matching ≈ 25 % of the rows by its
// colour, DESC, which is the bench's deep_topk shape. The fixture is the
// persisted churn database (catalog + kd-tree), cold-opened once.
func BenchmarkTopKQuery(b *testing.B) {
	churnOnce.Do(func() { churnDir, churnPages, churnErr = buildChurnDB() })
	if churnErr != nil {
		b.Fatal(churnErr)
	}
	db, err := core.OpenExisting(core.Config{Dir: churnDir})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()

	for _, c := range []struct{ name, q string }{
		{"k=10", "SELECT * WHERE g - r > 0.2 AND r < 21 ORDER BY g - r LIMIT 10"},
		{"k=100", "SELECT * WHERE g - r > 0.2 AND r < 21 ORDER BY g - r LIMIT 100"},
		{"deep", "SELECT objid, g, r WHERE g - r > 0.9 AND r < 20 ORDER BY g - r DESC LIMIT 50"},
	} {
		b.Run(c.name, func(b *testing.B) {
			var rows, pages int64
			for i := 0; i < b.N; i++ {
				cur, err := db.QueryStatement(context.Background(), c.q, core.PlanAuto)
				if err != nil {
					b.Fatal(err)
				}
				n := int64(0)
				for cur.Next() {
					n++
				}
				if err := cur.Err(); err != nil {
					b.Fatal(err)
				}
				cur.Close()
				rows, pages = n, cur.Stats().PagesScanned
			}
			b.ReportMetric(float64(rows), "rows")
			b.ReportMetric(float64(pages), "pages/query")
		})
	}
}

// BenchmarkLimitPushdown contrasts the pushed-down LIMIT (the scan
// stops at the page holding the k-th match) against draining the
// same selection in full — the first-rows-fast behavior interactive
// exploration rides on.
func BenchmarkLimitPushdown(b *testing.B) {
	churnOnce.Do(func() { churnDir, churnPages, churnErr = buildChurnDB() })
	if churnErr != nil {
		b.Fatal(churnErr)
	}
	db, err := core.OpenExisting(core.Config{Dir: churnDir})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()

	for _, src := range []struct{ name, q string }{
		{"limit=10", "SELECT * WHERE g - r > 0.2 AND r < 21 LIMIT 10"},
		{"unlimited", "SELECT * WHERE g - r > 0.2 AND r < 21"},
	} {
		b.Run(src.name, func(b *testing.B) {
			var pages int64
			for i := 0; i < b.N; i++ {
				cur, err := db.QueryStatement(context.Background(), src.q, core.PlanAuto)
				if err != nil {
					b.Fatal(err)
				}
				for cur.Next() {
				}
				if err := cur.Err(); err != nil {
					b.Fatal(err)
				}
				rep := cur.Stats()
				cur.Close()
				pages = rep.DiskReads + rep.CacheHits
			}
			b.ReportMetric(float64(pages), "pages/query")
		})
	}
}

// BenchmarkRowEncoder is the serialisation layer's own number: one
// row encoded into an already-grown buffer by the compiled
// per-statement encoder. ns/op is ns/row. "objid+g+r" and "cut_half"
// are the projections the benchmark's scan workload streams.
func BenchmarkRowEncoder(b *testing.B) {
	recs, err := sky.Generate(sky.DefaultParams(1024, 42))
	if err != nil {
		b.Fatal(err)
	}
	star := colorsql.StarColumns()
	for _, proj := range []struct {
		name string
		cols []colorsql.Column
	}{
		{"star", star},
		{"objid+r", []colorsql.Column{star[0], star[3]}},
		{"objid+g+r", []colorsql.Column{star[0], star[2], star[3]}},
		{"cut_half", star[:8]}, // objid, u, g, r, i, z, ra, dec
	} {
		b.Run(proj.name, func(b *testing.B) {
			enc := core.NewRowEncoder(proj.cols)
			buf := make([]byte, 0, 512)
			b.ReportAllocs()
			b.ResetTimer()
			for n := b.N; n > 0; n -= len(recs) {
				for i := range recs[:min(n, len(recs))] {
					buf = enc.AppendRow(buf[:0], &recs[i])
				}
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}

// discardResponse is an http.ResponseWriter for measuring a handler
// without a socket: it flushes and takes deadlines like a connection
// and throws the body away.
type discardResponse struct {
	hdr   http.Header
	bytes int64
}

func (w *discardResponse) Header() http.Header { return w.hdr }
func (w *discardResponse) WriteHeader(int)     {}
func (w *discardResponse) Flush()              {}

func (w *discardResponse) SetWriteDeadline(time.Time) error { return nil }

func (w *discardResponse) Write(p []byte) (int, error) {
	w.bytes += int64(len(p))
	return len(p), nil
}

// BenchmarkStreamNDJSON measures the NDJSON wire path through the real
// /query handler into a discarding writer, as rows/s. "cached" serves
// a result-cache hit — a slice cursor, so parse, encode and batched
// writes are all there is; "scan100k" streams a 100 000-row
// single-clause cut, adding the cursor pipeline beneath (page reads,
// strip decode, predicate) and no dedup set.
func BenchmarkStreamNDJSON(b *testing.B) {
	dir, err := os.MkdirTemp("", "repro-stream-*")
	if err != nil {
		b.Fatal(err)
	}
	registerBenchDir(dir)
	db, err := core.Open(core.Config{Dir: dir, ResultCacheBytes: 8 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if err := db.IngestSynthetic(sky.DefaultParams(100_000, 42)); err != nil {
		b.Fatal(err)
	}
	h := vizhttp.New(db, vizhttp.Config{}).Handler()

	for _, tc := range []struct {
		name, q string
		rows    int64
	}{
		{"cached", "SELECT * WHERE r < 90 LIMIT 4096", 4096},
		{"scan100k", "SELECT * WHERE r < 90", 100_000},
	} {
		b.Run(tc.name, func(b *testing.B) {
			target := "/query?format=ndjson&q=" + url.QueryEscape(tc.q)
			serve := func() *discardResponse {
				w := &discardResponse{hdr: http.Header{}}
				h.ServeHTTP(w, httptest.NewRequest("GET", target, nil))
				return w
			}
			w := serve() // warm the pool, and the result cache where it applies
			if w.bytes < tc.rows*int64(table.RecordSize) {
				b.Fatalf("%d body bytes for %d rows", w.bytes, tc.rows)
			}
			b.ReportAllocs()
			b.SetBytes(w.bytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
			b.ReportMetric(float64(tc.rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
