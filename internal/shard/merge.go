package shard

import (
	"context"
	"fmt"

	"repro/internal/colorsql"
	"repro/internal/core"
	"repro/internal/table"
)

// This file is the merge layer: per-shard NDJSON streams come in,
// one core.Cursor goes out. Two merge disciplines mirror the
// single-store execution exactly:
//
//   - scan merge: unordered statements concatenate the shard streams
//     in shard order. Under a multi-clause WHERE the single store
//     dedups by ObjID across union clauses, so the merge dedups by
//     ObjID across shard boundaries too; a single clause or a
//     no-WHERE full-catalog scan visits each physical row once and
//     does not dedup in the single store, so neither does the merge.
//   - order merge: ORDER BY statements arrive locally sorted from
//     each shard (each with the LIMIT pushed down), and a k-way merge
//     on the recomputed ordering key — the same float64 key the
//     single store's top-k heap uses — reassembles the global order.
//
// Failure semantics: any shard error (transport, HTTP status,
// mid-stream {"error": ...} line, stream truncated before its
// summary) surfaces through Err() naming the shard and its URL. A
// merge never reports clean completion unless every targeted stream
// closed cleanly; the only early stop is an exact LIMIT, where the
// unread remainder is provably not part of the answer.

// shardStream is one shard's in-flight sub-query. The fetch goroutine
// fills rows and sets err/summary before closing the channel, so a
// reader that observes the close also observes both.
type shardStream struct {
	shard   int
	rows    chan table.Record
	summary core.Report
	err     error
}

// startQueryStream launches one shard's /query fetch.
func (c *Coordinator) startQueryStream(ctx context.Context, shard int, query string) *shardStream {
	s := &shardStream{shard: shard, rows: make(chan table.Record, 128)}
	c.requests[shard].Add(1)
	go func() {
		start := c.now()
		err := c.fetchQueryNDJSON(ctx, shard, query, func(rec table.Record) error {
			select {
			case s.rows <- rec:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}, &s.summary)
		// A cancellation we caused ourselves (LIMIT early stop, caller
		// disconnect) is not a shard failure: keep it out of the error
		// counter and the fan-out latency histogram.
		if ctx.Err() == nil {
			c.hists[shard].Record(c.now().Sub(start))
			if err != nil {
				c.errors[shard].Add(1)
			}
		}
		s.err = err
		close(s.rows)
	}()
	return s
}

// scatterCursor is the shared state of both merge disciplines.
type scatterCursor struct {
	cancel  context.CancelFunc
	streams []*shardStream
	c       *Coordinator

	// dedup is non-nil for multi-clause WHERE statements (mirrors the
	// single store's union dedup); limit < 0 means unbounded.
	dedup map[int64]bool
	limit int64

	cur     table.Record
	emitted int64
	agg     core.Report
	err     error
	done    bool
}

func (sc *scatterCursor) Record() *table.Record { return &sc.cur }
func (sc *scatterCursor) Err() error            { return sc.err }

func (sc *scatterCursor) Stats() core.Report {
	rep := sc.agg
	rep.RowsReturned = sc.emitted
	return rep
}

func (sc *scatterCursor) Close() error {
	sc.done = true
	sc.cancel()
	return nil
}

// foldSummary accumulates one finished shard's exact counters; the
// coordinator-wide diskReads total feeds /stats.
func (sc *scatterCursor) foldSummary(rep core.Report) {
	sc.agg.Plan = rep.Plan
	if rep.EstimatedSelectivity != 0 {
		sc.agg.EstimatedSelectivity = rep.EstimatedSelectivity
	}
	sc.agg.RowsExamined += rep.RowsExamined
	sc.agg.DiskReads += rep.DiskReads
	sc.agg.CacheHits += rep.CacheHits
	sc.agg.PagesSkipped += rep.PagesSkipped
	sc.agg.PagesScanned += rep.PagesScanned
	sc.agg.StripsDecoded += rep.StripsDecoded
	sc.c.diskReads.Add(rep.DiskReads)
}

// fail records the first failure and cancels every sub-request.
func (sc *scatterCursor) fail(err error) {
	if sc.err == nil {
		sc.err = err
	}
	sc.done = true
	sc.cancel()
}

// admits reports whether a row passes the cross-shard dedup.
func (sc *scatterCursor) admits(rec *table.Record) bool {
	if sc.dedup == nil {
		return true
	}
	if sc.dedup[rec.ObjID] {
		return false
	}
	sc.dedup[rec.ObjID] = true
	return true
}

// scanMergeCursor concatenates shard streams in shard order.
type scanMergeCursor struct {
	scatterCursor
	idx int
}

func (sc *scanMergeCursor) Next() bool {
	if sc.done {
		return false
	}
	if sc.limit >= 0 && sc.emitted >= sc.limit {
		// Exact LIMIT reached: the unread remainder is not part of the
		// answer, so stopping here is not truncation.
		sc.done = true
		sc.cancel()
		return false
	}
	for sc.idx < len(sc.streams) {
		s := sc.streams[sc.idx]
		rec, ok := <-s.rows
		if !ok {
			if s.err != nil {
				sc.fail(s.err)
				return false
			}
			sc.foldSummary(s.summary)
			sc.idx++
			continue
		}
		if !sc.admits(&rec) {
			continue
		}
		sc.cur = rec
		sc.emitted++
		return true
	}
	sc.done = true
	sc.cancel()
	return false
}

// orderMergeCursor k-way merges locally sorted shard streams on the
// statement's ordering key, recomputed exactly as the single store
// computes it (float64 over the float32 magnitudes). Ties break by
// shard index, then by per-shard arrival order (which each shard's
// own top-k already fixed).
type orderMergeCursor struct {
	scatterCursor
	order *colorsql.OrderBy
	heads []mergeHead
	ready bool
}

type mergeHead struct {
	rec table.Record
	key float64
	ok  bool
}

// advance refills stream i's head. Returns false on stream failure.
func (oc *orderMergeCursor) advance(i int) bool {
	s := oc.streams[i]
	rec, ok := <-s.rows
	if !ok {
		if s.err != nil {
			oc.fail(s.err)
			return false
		}
		oc.foldSummary(s.summary)
		oc.heads[i].ok = false
		return true
	}
	oc.heads[i] = mergeHead{rec: rec, key: oc.key(&rec), ok: true}
	return true
}

// key computes the ordering key for one record — the exact
// counterpart of the single store's orderKey.
func (oc *orderMergeCursor) key(rec *table.Record) float64 {
	m := make([]float64, len(rec.Mags))
	for i := range rec.Mags {
		m[i] = float64(rec.Mags[i])
	}
	return oc.order.Key(m)
}

func (oc *orderMergeCursor) Next() bool {
	if oc.done {
		return false
	}
	if oc.limit >= 0 && oc.emitted >= oc.limit {
		oc.done = true
		oc.cancel()
		return false
	}
	if !oc.ready {
		oc.heads = make([]mergeHead, len(oc.streams))
		for i := range oc.streams {
			if !oc.advance(i) {
				return false
			}
		}
		oc.ready = true
	}
	for {
		best := -1
		for i := range oc.heads {
			if !oc.heads[i].ok {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			if oc.order.Desc {
				if oc.heads[i].key > oc.heads[best].key {
					best = i
				}
			} else if oc.heads[i].key < oc.heads[best].key {
				best = i
			}
		}
		if best < 0 {
			oc.done = true
			oc.cancel()
			return false
		}
		rec := oc.heads[best].rec
		if !oc.advance(best) {
			return false
		}
		if !oc.admits(&rec) {
			continue
		}
		oc.cur = rec
		oc.emitted++
		return true
	}
}

// emptyCursor answers statements that short-circuit before any
// fan-out (LIMIT 0, routing-proven-empty).
type emptyCursor struct {
	rep core.Report
}

func (e *emptyCursor) Next() bool            { return false }
func (e *emptyCursor) Record() *table.Record { return nil }
func (e *emptyCursor) Err() error            { return nil }
func (e *emptyCursor) Close() error          { return nil }
func (e *emptyCursor) Stats() core.Report    { return e.rep }

// recsCursor replays an eagerly merged answer (/sky fan-out).
type recsCursor struct {
	recs []table.Record
	rep  core.Report
	pos  int
}

func (rc *recsCursor) Next() bool {
	if rc.pos >= len(rc.recs) {
		return false
	}
	rc.pos++
	return true
}

func (rc *recsCursor) Record() *table.Record { return &rc.recs[rc.pos-1] }
func (rc *recsCursor) Err() error            { return nil }
func (rc *recsCursor) Close() error          { return nil }

func (rc *recsCursor) Stats() core.Report {
	rep := rc.rep
	rep.RowsReturned = int64(rc.pos)
	return rep
}

// scatterReason renders the merged PlanReason, e.g.
// "scatter-gather over 2/3 shards (1 pruned by routing table)".
func scatterReason(targeted, total int) string {
	if targeted == total {
		return fmt.Sprintf("scatter-gather over %d/%d shards", targeted, total)
	}
	return fmt.Sprintf("scatter-gather over %d/%d shards (%d pruned by routing table)",
		targeted, total, total-targeted)
}
