package shard

import (
	"context"
	"fmt"

	"repro/internal/colorsql"
	"repro/internal/core"
	"repro/internal/table"
)

// This file is the merge layer: per-shard frame streams come in, one
// core.Cursor goes out. Two merge disciplines mirror the single-store
// execution exactly:
//
//   - scan merge: unordered statements concatenate the shard streams
//     in shard order. Shards partition the catalog's physical rows, and
//     a shard — like the single store — emits each of its rows at most
//     once whatever the WHERE, so the concatenation holds every
//     matching row exactly once: rows are never merged, and the merge
//     keeps no memory of what it emitted. With a LIMIT a target is
//     opened only when the one before it ended short, and asked only
//     for the rows still missing.
//   - order merge: ORDER BY statements arrive locally sorted from
//     each shard (each with the LIMIT pushed down), and a k-way merge
//     on the recomputed ordering key — the same float64 key the
//     single store's top-k heap uses, ties broken on ObjID as it breaks
//     them — reassembles the global order.
//
// Either merge reads every stream it opened on to its summary and
// folds it, at an exact LIMIT too, so the merged counters are the sum
// of the shards' own.
//
// Failure semantics: any shard error (transport, HTTP status, error
// frame, damaged frame, stream cut before its summary) surfaces through
// Err() naming the shard and its URL. A merge never reports clean
// completion unless every stream it opened closed cleanly.

// shardStream is one shard's in-flight sub-query. The fetch goroutine
// sends decoded blocks and sets err/summary before closing the
// channel, so a reader that observes the close also observes both.
// Blocks, not rows, cross the channel: one send per frame. Four slots
// let a small answer (two frames) finish without the fetch blocking and
// bound how far a shard the merge has not reached can run ahead.
type shardStream struct {
	blocks  chan []table.Record
	summary core.Report
	err     error

	block []table.Record // the block being read, and the position in it
	pos   int
}

// startQueryStream launches one shard's /query fetch.
func (c *Coordinator) startQueryStream(ctx context.Context, shard int, query string) *shardStream {
	s := &shardStream{blocks: make(chan []table.Record, 4)}
	go func() {
		s.err = c.observe(ctx, shard, func() (err error) {
			s.summary, err = c.fetch(ctx, shard, queryPath(query), func(block []table.Record) error {
				select {
				case s.blocks <- block:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			})
			return err
		})
		close(s.blocks)
	}()
	return s
}

// next returns the stream's next row, or nil once it has ended — err
// and summary are then set.
func (s *shardStream) next() *table.Record {
	for s.pos == len(s.block) {
		block, ok := <-s.blocks
		if !ok {
			return nil
		}
		s.block, s.pos = block, 0
	}
	s.pos++
	return &s.block[s.pos-1]
}

// scatterCursor is the shared state of both merge disciplines.
type scatterCursor struct {
	ctx     context.Context
	cancel  context.CancelFunc
	sub     colorsql.Statement // what the shards are asked
	targets []int
	streams []*shardStream // one per target; nil until opened
	c       *Coordinator

	limit int64 // < 0 means unbounded

	cur     *table.Record
	emitted int64
	agg     core.Report
	err     error
	done    bool
}

func (sc *scatterCursor) Record() *table.Record { return sc.cur }
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

// foldSummary accumulates the exact counters of target i's finished
// stream; the coordinator-wide diskReads total feeds /stats. The
// estimated selectivity is the catalog-wide one, Σ sel_i · rows_i /
// TotalRows with the rows from the routing table, summed over the
// shards whose summaries arrived: a shard an early LIMIT never opened
// contributes nothing.
func (sc *scatterCursor) foldSummary(i int, rep core.Report) {
	sc.agg.Plan = rep.Plan
	if total := sc.c.rt.TotalRows; total > 0 {
		sc.agg.EstimatedSelectivity += rep.EstimatedSelectivity * float64(sc.c.rt.Shards[sc.targets[i]].Rows) / float64(total)
	}
	sc.agg.Add(rep)
	sc.c.diskReads.Add(rep.DiskReads)
}

// fail records the first failure and cancels every sub-request.
func (sc *scatterCursor) fail(err error) {
	if sc.err == nil {
		sc.err = err
	}
	sc.Close()
}

// scanMergeCursor concatenates shard streams in shard order. Without
// a LIMIT every stream is open from the start; with one, target idx is
// opened when the cursor reaches it, for the rows the LIMIT still lacks
// — the rows of asking every target for the LIMIT at once.
type scanMergeCursor struct {
	scatterCursor
	idx int
}

func (sc *scanMergeCursor) Next() bool {
	for !sc.done {
		// At an exact LIMIT the unread remainder is not part of the
		// answer, so stopping is not truncation. The open stream was
		// asked for just the missing rows and is at its own end: read on
		// to its summary.
		full := sc.limit >= 0 && sc.emitted >= sc.limit
		if sc.idx == len(sc.streams) || full && sc.streams[sc.idx] == nil {
			break
		}
		s := sc.streams[sc.idx]
		if s == nil {
			sub := sc.sub
			sub.Limit = int(sc.limit - sc.emitted)
			s = sc.c.startQueryStream(sc.ctx, sc.targets[sc.idx], sub.String())
			sc.streams[sc.idx] = s
		}
		rec := s.next()
		if rec == nil {
			if s.err != nil {
				sc.fail(s.err)
				return false
			}
			sc.foldSummary(sc.idx, s.summary)
			sc.idx++
			continue
		}
		if full {
			break
		}
		sc.cur = rec
		sc.emitted++
		return true
	}
	sc.Close()
	return false
}

// orderMergeCursor k-way merges locally sorted shard streams on the
// statement's ordering key, recomputed exactly as the single store
// computes it (float64 over the float32 magnitudes). Ties break on
// ObjID — as each shard's own top-k, and the single store's, break them
// — then by shard index.
type orderMergeCursor struct {
	scatterCursor
	order *colorsql.OrderBy
	heads []mergeHead
}

type mergeHead struct {
	rec *table.Record // nil once the stream has ended
	key float64
}

// advance refills stream i's head. Returns false on stream failure.
func (oc *orderMergeCursor) advance(i int) bool {
	s := oc.streams[i]
	rec := s.next()
	if rec == nil {
		if s.err != nil {
			oc.fail(s.err)
			return false
		}
		oc.foldSummary(i, s.summary)
		oc.heads[i].rec = nil
		return true
	}
	// The exact counterpart of the single store's orderKey.
	var m [table.Dim]float64
	for d, v := range rec.Mags {
		m[d] = float64(v)
	}
	oc.heads[i] = mergeHead{rec: rec, key: oc.order.Key(m[:])}
	return true
}

func (oc *orderMergeCursor) Next() bool {
	if oc.done {
		return false
	}
	if oc.limit >= 0 && oc.emitted >= oc.limit {
		oc.finish()
		return false
	}
	if oc.heads == nil {
		oc.heads = make([]mergeHead, len(oc.streams))
		for i := range oc.streams {
			if !oc.advance(i) {
				return false
			}
		}
	}
	best := -1
	for i := range oc.heads {
		if oc.heads[i].rec != nil && (best < 0 || oc.before(&oc.heads[i], &oc.heads[best])) {
			best = i
		}
	}
	if best < 0 {
		oc.Close()
		return false
	}
	oc.cur = oc.heads[best].rec
	if !oc.advance(best) {
		return false
	}
	oc.emitted++
	return true
}

// finish ends a merge at its LIMIT: it reads every stream still open
// to its summary and folds it, then closes. Each stream was asked for
// at most the LIMIT's rows, and a shard's top-k has done all its page
// I/O before its first row leaves, so the rest costs no shard work and
// the merged counters are the shards' sum.
func (oc *orderMergeCursor) finish() {
	for i := range oc.heads {
		for oc.heads[i].rec != nil {
			if !oc.advance(i) {
				return
			}
		}
	}
	oc.Close()
}

// before reports whether head a is emitted ahead of head b of a later
// shard: strictly better key, or an equal key and a smaller ObjID.
func (oc *orderMergeCursor) before(a, b *mergeHead) bool {
	if a.key != b.key {
		if oc.order.Desc {
			return a.key > b.key
		}
		return a.key < b.key
	}
	return a.rec.ObjID < b.rec.ObjID
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
