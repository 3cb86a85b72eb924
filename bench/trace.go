package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colorsql"
	"repro/internal/core"
	"repro/internal/table"
	"repro/internal/vec"
	"repro/internal/vizhttp"
)

// Tracing lives entirely in this file: spans are recorded by wrappers
// around the calls into each layer (client call, http.Handler,
// vizhttp.Backend, core.Cursor, the coordinator's RoundTripper). The
// program under test is not instrumented. A traced run has one client,
// so one op is in flight at a time.

// span is one timed interval. Parent is the span that caused it (0 for
// the client call); spans of one request share Op.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     int64  `json:"op"`
	Node   string `json:"node"` // "client", "entry", "shard0"…
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// maxSpans bounds the in-memory trace. Recording stops there; the
// analysis then covers the ops recorded so far.
const maxSpans = 1 << 20

type tracer struct {
	on    atomic.Bool
	epoch time.Time
	next  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64    { return int64(time.Since(t.epoch)) }
func (t *tracer) newID() uint64 { return t.next.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// dump writes every span as one JSON array.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

const (
	headerSpan = "X-Bench-Span"
	headerOp   = "X-Bench-Op"
)

// spanRef identifies the handler span a backend call or sub-request
// belongs to.
type spanRef struct {
	id uint64
	op int64
}

type spanKey struct{}

// tracedServer wraps one vizhttp server: its handler and its backend.
// cur is the handler span in flight; backend methods that take no
// context attribute themselves to it.
type tracedServer struct {
	tr   *tracer
	node string
	cur  atomic.Pointer[spanRef]
}

func (s *tracedServer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.tr.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(headerSpan), 10, 64)
		op, _ := strconv.ParseInt(r.Header.Get(headerOp), 10, 64)
		ref := &spanRef{id: s.tr.newID(), op: op}
		s.cur.Store(ref)
		start := s.tr.now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, ref)))
		s.tr.add(span{ID: ref.id, Parent: parent, Op: op, Node: s.node, Name: "handler", Start: start, End: s.tr.now()})
	})
}

// ref resolves the handler span for a call: from the context when the
// call carries one, else the server's current span.
func (s *tracedServer) ref(ctx context.Context) *spanRef {
	if ctx != nil {
		if ref, ok := ctx.Value(spanKey{}).(*spanRef); ok {
			return ref
		}
	}
	if ref := s.cur.Load(); ref != nil {
		return ref
	}
	return &spanRef{}
}

// timed records fn as a child span of the current handler span.
func (s *tracedServer) timed(ctx context.Context, name string, fn func()) {
	if !s.tr.on.Load() {
		fn()
		return
	}
	ref := s.ref(ctx)
	start := s.tr.now()
	fn()
	s.tr.add(span{ID: s.tr.newID(), Parent: ref.id, Op: ref.op, Node: s.node, Name: name, Start: start, End: s.tr.now()})
}

// tracedBackend times the Backend methods a request handler calls.
// The embedded interface forwards the rest.
type tracedBackend struct {
	vizhttp.Backend
	s *tracedServer
}

func (b tracedBackend) ExecStatement(ctx context.Context, stmt colorsql.Statement, plan core.Plan) (cur core.Cursor, err error) {
	b.s.timed(ctx, "core.open", func() { cur, err = b.Backend.ExecStatement(ctx, stmt, plan) })
	return b.s.cursor(ctx, cur), err
}

func (b tracedBackend) ExecStatementCached(stmt colorsql.Statement, plan core.Plan) (cur core.Cursor, ok bool) {
	b.s.timed(nil, "qcache.probe", func() { cur, ok = b.Backend.ExecStatementCached(stmt, plan) })
	return b.s.cursor(nil, cur), ok
}

func (b tracedBackend) EstimateStatementCost(stmt colorsql.Statement) (c float64) {
	b.s.timed(nil, "planner.price", func() { c = b.Backend.EstimateStatementCost(stmt) })
	return c
}

func (b tracedBackend) NearestNeighborsBatch(ctx context.Context, qs []vec.Point, k int) (recs [][]table.Record, reps []core.Report, err error) {
	b.s.timed(ctx, "knn", func() { recs, reps, err = b.Backend.NearestNeighborsBatch(ctx, qs, k) })
	return recs, reps, err
}

func (b tracedBackend) NearestNeighborsBatchCached(qs []vec.Point, k int) (recs [][]table.Record, reps []core.Report, ok bool) {
	b.s.timed(nil, "qcache.probe", func() { recs, reps, ok = b.Backend.NearestNeighborsBatchCached(qs, k) })
	return recs, reps, ok
}

func (b tracedBackend) EstimateKNNCost(k, n int) (c float64) {
	b.s.timed(nil, "planner.price", func() { c = b.Backend.EstimateKNNCost(k, n) })
	return c
}

func (b tracedBackend) EstimateRedshiftBatch(ctx context.Context, qs []vec.Point) (zs []float64, rep core.Report, err error) {
	b.s.timed(ctx, "photoz", func() { zs, rep, err = b.Backend.EstimateRedshiftBatch(ctx, qs) })
	return zs, rep, err
}

func (b tracedBackend) EstimateRedshiftBatchCached(qs []vec.Point) (zs []float64, rep core.Report, ok bool) {
	b.s.timed(nil, "qcache.probe", func() { zs, rep, ok = b.Backend.EstimateRedshiftBatchCached(qs) })
	return zs, rep, ok
}

func (b tracedBackend) EstimatePhotoZCost(n int) (c float64) {
	b.s.timed(nil, "planner.price", func() { c = b.Backend.EstimatePhotoZCost(n) })
	return c
}

func (b tracedBackend) QuerySkyBox(ctx context.Context, box table.SkyBoxPred, cols table.ColumnSet) (cur core.Cursor, err error) {
	b.s.timed(ctx, "core.open", func() { cur, err = b.Backend.QuerySkyBox(ctx, box, cols) })
	return b.s.cursor(ctx, cur), err
}

func (b tracedBackend) Insert(recs []table.Record) (seq uint64, err error) {
	b.s.timed(nil, "insert", func() { seq, err = b.Backend.Insert(recs) })
	return seq, err
}

// cursor wraps cur so its summed Next time becomes one drain span.
func (s *tracedServer) cursor(ctx context.Context, cur core.Cursor) core.Cursor {
	if cur == nil || !s.tr.on.Load() {
		return cur
	}
	return &tracedCursor{Cursor: cur, s: s, ref: s.ref(ctx)}
}

// tracedCursor sums the time spent inside Next. The handler's row
// encoding runs between Next calls, so the drain span is laid out as
// [first Next, first Next + summed time]: its length is exact, and
// the handler's self time keeps the encoding.
type tracedCursor struct {
	core.Cursor
	s     *tracedServer
	ref   *spanRef
	first int64
	busy  int64
	began bool
	done  bool
}

func (c *tracedCursor) Next() bool {
	t0 := c.s.tr.now()
	ok := c.Cursor.Next()
	c.busy += c.s.tr.now() - t0
	if !c.began {
		c.began, c.first = true, t0
	}
	return ok
}

func (c *tracedCursor) Close() error {
	err := c.Cursor.Close()
	if c.began && !c.done {
		c.done = true
		c.s.tr.add(span{ID: c.s.tr.newID(), Parent: c.ref.id, Op: c.ref.op, Node: c.s.node, Name: "core.drain", Start: c.first, End: c.first + c.busy})
	}
	return err
}

// tracedTransport records one span per coordinator sub-request, from
// the send to the end of the response body, and hands the span to the
// shard's handler through the request headers.
type tracedTransport struct {
	base http.RoundTripper
	s    *tracedServer // the coordinator's server
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.s.tr
	if !tr.on.Load() {
		return t.base.RoundTrip(req)
	}
	ref := t.s.ref(req.Context())
	sp := span{ID: tr.newID(), Parent: ref.id, Op: ref.op, Node: t.s.node, Name: "subreq", Start: tr.now()}
	req = req.Clone(req.Context())
	req.Header.Set(headerSpan, strconv.FormatUint(sp.ID, 10))
	req.Header.Set(headerOp, strconv.FormatInt(sp.Op, 10))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.End = tr.now()
		tr.add(sp)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, tr: tr, sp: sp}
	return resp, nil
}

// spanBody ends its span at EOF or Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	tr   *tracer
	sp   span
	once sync.Once
}

func (b *spanBody) finish() {
	b.once.Do(func() {
		b.sp.End = b.tr.now()
		b.tr.add(b.sp)
	})
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// covered returns how much of [lo, hi) the intervals cover, counting
// overlaps once.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv[1] <= end {
			continue
		}
		total += iv[1] - max(iv[0], end)
		end = iv[1]
	}
	return total
}

// selfTime is a span's duration minus the part of it its children
// cover.
func selfTime(s *span, children []*span) int64 {
	ivs := make([][2]int64, len(children))
	for i, c := range children {
		ivs[i] = [2]int64{c.Start, c.End}
	}
	return s.dur() - covered(s.Start, s.End, ivs)
}

// opTrace is the part of one op's span tree the per-layer metrics
// read: the client call, the entry server's handler, the handler's
// children, and every sub-request.
type opTrace struct {
	client, handler *span
	children        []*span
	subreqs         []*span
}

func (t *tracer) byOp() map[int64]*opTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	ops := make(map[int64]*opTrace)
	get := func(op int64) *opTrace {
		if ops[op] == nil {
			ops[op] = &opTrace{}
		}
		return ops[op]
	}
	for i := range t.spans {
		s := &t.spans[i]
		switch {
		case s.Node == "client":
			get(s.Op).client = s
		case s.Node == "entry" && s.Name == "handler":
			get(s.Op).handler = s
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		ot := ops[s.Op]
		if ot == nil || ot.handler == nil || s.Node != "entry" || s.Parent != ot.handler.ID {
			continue
		}
		ot.children = append(ot.children, s)
		if s.Name == "subreq" {
			ot.subreqs = append(ot.subreqs, s)
		}
	}
	return ops
}
