package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/colorsql"
	"repro/internal/core"
	"repro/internal/pagestore"
	"repro/internal/qcache"
	"repro/internal/table"
)

// Frozen run shape.
const (
	warmupTime = 1500 * time.Millisecond // a prefix of the same sequence, discarded
	setupReps  = 3                       // setup_s is the median of this many full set-ups

	durableProbes = 64

	// procs is the GOMAXPROCS of the benchmark process, and one client
	// keeps one op in flight on it. On one P a request passes from
	// client to server and back without waking a second vCPU; on this
	// shared host those wake-ups go through the hypervisor and cost
	// whatever the neighbours leave (README, "The sandbox"). A second
	// client on the same P would only add the time its op waits for the
	// other's to the latencies.
	procs = 1

	// In a traced run the first part of the window runs with tracing
	// off, on the same client and store: its p50 is the base the
	// tracing overhead is measured against.
	untracedShare = 0.25

	// parseSamples caps the direct ParseStatement timings.
	parseSamples = 2000
)

// verifyOps is how many leading ops of the sequence are checked
// against the oracle before the measured run. scan checks fewer: one
// of its ops streams up to half the catalog.
func verifyOps(workload string) int {
	if workload == "scan" {
		return 60
	}
	return 200
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	rows     int
	root     string // checkout root: holds BENCHMARK.json, .bench_build/, bench/out/

	// The smoke test shrinks these; zero means the frozen value.
	warmup time.Duration
	verify int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run produces. endToEnd comes from an untraced
// run only, so it is empty in a traced one.
type result struct {
	attempted, failed int
	endToEnd          map[string]metric
	perLayer          map[string]metric
	failures          []string
	hashes            []uint64 // one per verified op; 0 where the server chooses the rows
}

// snapshot is every cumulative counter the benchmark reads from
// outside the program; metrics are differences of two snapshots.
type snapshot struct {
	cpu       time.Duration
	store     pagestore.Stats
	cache     map[string]qcache.Counters
	wal       pagestore.WALStats
	compacts  int64
	compacted int64
	admitted  int64
	shed      int64
	subreqs   int64
	hedges    int64
	mallocs   uint64
	gcPause   uint64

	cacheBytes int64 // a gauge: resident result-tier bytes
}

var qosEndpoints = []string{"query", "knn", "photoz", "sky", "insert"}

func cpuTime() (time.Duration, int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Maxrss
}

func (r *rig) snapshot() snapshot {
	s := snapshot{cache: make(map[string]qcache.Counters)}
	s.cpu, _ = cpuTime()
	for _, db := range r.dbs {
		s.store = s.store.Add(db.Engine().Store().Stats())
		cs := db.CacheStatsSnapshot()
		s.cacheBytes += cs.ResultBytes
		for ns, c := range cs.Namespaces {
			t := s.cache[ns]
			t.Hits += c.Hits
			t.Misses += c.Misses
			t.Shared += c.Shared
			t.Evictions += c.Evictions
			t.PlanHits += c.PlanHits
			t.PlanBuilds += c.PlanBuilds
			s.cache[ns] = t
		}
		ing := db.IngestStatsSnapshot()
		s.wal.Appends += ing.WAL.Appends
		s.wal.Syncs += ing.WAL.Syncs
		s.wal.Bytes += ing.WAL.Bytes
		s.compacts += ing.Compactions + ing.FullCompactions
		s.compacted += ing.CompactedRows
	}
	for _, ep := range qosEndpoints {
		c := r.entry.Limiter(ep).Counters()
		s.admitted += c.Admitted
		s.shed += c.Shed()
	}
	if r.coord != nil {
		if shards, ok := r.coord.BackendStats()["shards"].([]map[string]any); ok {
			for _, sh := range shards {
				n, _ := sh["requests"].(int64)
				h, _ := sh["hedges"].(int64)
				s.subreqs += n
				s.hedges += h
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.gcPause = ms.Mallocs, ms.PauseTotalNs
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile is the nearest-rank percentile of a sorted sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

// runWorkload is one self-contained run: set up, verify, measure,
// tear down.
func runWorkload(o options) (*result, error) {
	if _, ok := storeConfigs[o.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames)
	}
	work := filepath.Join(o.root, ".bench_build", "work", fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	// Set up several times and keep the last: one set-up's time swings
	// with the page cache and the neighbours, their median does not.
	var r *rig
	var setupTimes, openTimes []float64
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		r, err = setUp(o.workload, o.seed, o.rows, filepath.Join(work, fmt.Sprintf("db%d", i)), o.traced)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		openTimes = append(openTimes, float64(r.coldOpen.Microseconds())/1e3)
	}
	defer r.close()

	res := &result{endToEnd: map[string]metric{}, perLayer: map[string]metric{}}
	ops := makeOps(o.workload, o.seed, r.recs, math.MaxInt)
	orc := newOracle(r.recs)

	// Verify: the leading ops, one at a time, whole bodies decoded.
	vc := newClient(r.url, nil)
	var ackedOps []int
	if o.verify == 0 {
		o.verify = verifyOps(o.workload)
	}
	if o.warmup == 0 {
		o.warmup = warmupTime
	}
	verified := min(o.verify, len(ops))
	hashes := make([]uint64, 0, verified)
	for i := 0; i < verified; i++ {
		res.attempted++
		body, err := vc.fetch(&ops[i], i, false)
		var h uint64
		if err == nil {
			h, err = orc.check(&ops[i], body)
		}
		if err != nil {
			res.failed++
			vc.fail(i, &ops[i], err)
			h = 0
		}
		hashes = append(hashes, h)
		if err == nil && ops[i].ep == epInsert {
			ackedOps = append(ackedOps, i)
		}
	}
	vc.close()
	res.failures = append(res.failures, vc.failures...)
	res.hashes = hashes
	// The catalog copy and the oracle are some 60 MB of live heap the
	// server under test would not have: drop them before measuring.
	catalogRows := len(r.recs)
	r.recs, orc = nil, nil
	runtime.GC()

	// Measure.
	phases := []phase{{dur: o.warmup}} // warm-up first
	window := time.Duration(o.seconds * float64(time.Second))
	if o.traced {
		base := time.Duration(untracedShare * float64(window))
		phases = append(phases, phase{dur: base}, phase{dur: window - base, traced: true})
	} else {
		phases = append(phases, phase{dur: window})
	}
	var start snapshot
	ctl := newControl(phases, func(i int) {
		if i == 1 {
			start = r.snapshot()
		}
		if r.tr != nil {
			r.tr.on.Store(phases[i].traced)
		}
	})
	memPeak := r.watchMemRows()
	c := newClient(r.url, r.tr)
	ctl.epoch = time.Now()
	c.run(ops, verified, ctl) // continues where the verify pass stopped
	if r.tr != nil {
		r.tr.on.Store(false)
	}
	end := r.snapshot()
	peak := memPeak()

	var samples []sample
	okOps := 0
	c.close()
	res.failures = append(res.failures, c.failures...)
	for _, s := range c.samples {
		if s.ok && ops[s.op].ep == epInsert {
			ackedOps = append(ackedOps, s.op)
		}
		if s.phase == 0 {
			continue
		}
		res.attempted++
		if s.ok {
			okOps++
		} else {
			res.failed++
		}
		samples = append(samples, s)
	}
	if okOps == 0 {
		return nil, fmt.Errorf("no op completed in the measured window: %v", res.failures)
	}

	r.stopServing()
	disk, err := r.diskBytes()
	if err != nil {
		return nil, err
	}
	ackedRows := len(ackedOps) * insertRows
	if o.workload == "ingest" {
		n, failed, msgs := r.checkDurable(ops, ackedOps, catalogRows)
		res.attempted += n
		res.failed += failed
		res.failures = append(res.failures, msgs...)
	}

	m := measurement{phases: phases, ops: ops, samples: samples, okOps: float64(okOps), rs: c.stats, start: start, end: end,
		diskBytes: disk, rows: catalogRows + ackedRows, shards: max(r.cfg.shards, 1)}
	if !o.traced {
		m.endToEnd(res.endToEnd)
		res.endToEnd["setup_s"] = metric{median(setupTimes), "s"}
	}
	m.perLayer(res.perLayer, r.tr)
	_, rss := cpuTime()
	res.perLayer["core.cold_open_ms"] = metric{median(openTimes), "ms"}
	res.perLayer["proc.rss_peak_mb"] = metric{float64(rss) / 1024, "MB"}
	res.perLayer["memtable.rows_peak"] = metric{float64(peak), "count"}

	if r.tr != nil {
		out := filepath.Join(o.root, "bench", "out")
		if err := os.MkdirAll(out, 0o755); err != nil {
			return nil, err
		}
		if err := r.tr.dump(filepath.Join(out, "trace-"+o.workload+".json")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// watchMemRows samples the memtable size while the client runs, on
// the ingest workload only; the returned func stops the sampler and
// yields the peak.
func (r *rig) watchMemRows() func() int {
	if r.cfg.compactEvery == 0 {
		return func() int { return 0 }
	}
	stop, done := make(chan struct{}), make(chan int)
	go func() {
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		peak := 0
		for {
			select {
			case <-stop:
				done <- peak
				return
			case <-t.C:
				n := 0
				for _, db := range r.dbs {
					n += db.MemRows()
				}
				peak = max(peak, n)
			}
		}
	}()
	return func() int { close(stop); return <-done }
}

// checkDurable closes the store, reopens it cold, and checks that
// every acknowledged row survived: the row count adds up, and sampled
// acknowledged rows come back from a cut around their magnitudes.
func (r *rig) checkDurable(ops []op, ackedOps []int, catalogRows int) (attempted, failed int, msgs []string) {
	fail := func(format string, args ...any) {
		failed++
		if len(msgs) < 5 {
			msgs = append(msgs, "durability: "+fmt.Sprintf(format, args...))
		}
	}
	attempted = 1
	if err := r.closeStores(); err != nil {
		fail("close: %v", err)
		return
	}
	db, err := core.OpenExisting(core.Config{Dir: r.dir, PoolPages: r.cfg.poolPages})
	if err != nil {
		fail("reopen: %v", err)
		return
	}
	defer db.Close()
	want := catalogRows + len(ackedOps)*insertRows
	if got := int(db.NumRows()) + db.MemRows(); got != want {
		fail("%d rows after reopen, want %d catalog + acknowledged", got, want)
	}
	probes := min(durableProbes, len(ackedOps))
	for i := 0; i < probes; i++ {
		attempted++
		batch := ops[ackedOps[i*len(ackedOps)/probes]].rows
		if err := findRow(db, &batch[i%len(batch)]); err != nil {
			fail("%v", err)
		}
	}
	return
}

// findRow looks an acknowledged row up by a tight box around its
// magnitudes. The issue asked for a k = 1 probe; at this commit kNN
// does not see rows a minor compaction moved out of the memtable (see
// oracle.checkNearest), and a cut does.
func findRow(db *core.SpatialDB, want *table.Record) error {
	var conds []string
	for d, m := range want.Mags {
		conds = append(conds, fmt.Sprintf("%s > %g AND %s < %g", bandName[d], float64(m)-1e-3, bandName[d], float64(m)+1e-3))
	}
	cur, err := db.QueryStatement(context.Background(), "SELECT objid WHERE "+strings.Join(conds, " AND "), core.PlanAuto)
	if err != nil {
		return err
	}
	recs, _, err := core.Collect(cur)
	if err != nil {
		return err
	}
	for i := range recs {
		if recs[i].ObjID == want.ObjID {
			return nil
		}
	}
	return fmt.Errorf("acknowledged row %d not found after reopen", want.ObjID)
}

// measurement is everything the metric formulas read.
type measurement struct {
	phases     []phase
	ops        []op
	samples    []sample // measured phases only
	okOps      float64
	rs         respStats
	start, end snapshot
	diskBytes  int64
	rows       int // catalog + acknowledged
	shards     int
}

// latencies returns the sorted latencies, in ms, of the ok samples
// keep selects.
func (m *measurement) latencies(keep func(*sample) bool) []float64 {
	var v []float64
	for i := range m.samples {
		if s := &m.samples[i]; s.ok && keep(s) {
			v = append(v, float64(s.dur)/1e6)
		}
	}
	sort.Float64s(v)
	return v
}

// wall is the measured wall time: from the end of warm-up to the last
// completion, so an op in flight when the window closes counts whole.
func (m *measurement) wall() float64 {
	first := int64(m.phases[0].dur)
	last := first
	for i := range m.samples {
		last = max(last, m.samples[i].start+m.samples[i].dur)
	}
	return float64(last-first) / 1e9
}

func (m *measurement) endToEnd(out map[string]metric) {
	all := m.latencies(func(*sample) bool { return true })
	n, wall := m.okOps, m.wall()
	out["ops_per_s"] = metric{n / wall, "1/s"}
	out["p50_ms"] = metric{percentile(all, 0.50), "ms"}
	out["p95_ms"] = metric{percentile(all, 0.95), "ms"}
	out["rows_per_s"] = metric{float64(m.rs.rows) / wall, "1/s"}
	out["cpu_ms_per_op"] = metric{float64((m.end.cpu - m.start.cpu).Microseconds()) / 1e3 / n, "ms"}
	out["disk_bytes_per_row"] = metric{float64(m.diskBytes) / float64(m.rows), "B"}
}

// allShapes lists every statement shape of every workload, so each
// run can emit the full per-layer set (0 where a shape does not
// occur).
var allShapes = []string{
	"knn", "cut", "topk_dist", "proj", "photoz", "sky", "cut_order",
	"cut_narrow", "cut_mid", "cut_wide", "cut_half", "deep_topk", "union_cut",
	"hot_cut", "hot_knn", "hot_photoz", "hot_empty",
	"insert",
}

func (m *measurement) perLayer(out map[string]metric, tr *tracer) {
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	n := m.okOps
	rs, d := &m.rs, m.end
	f := func(v int64) float64 { return float64(v) }

	// Counts: differences of the program's own counters over the
	// measured window, and the counters responses carry.
	store := d.store.Sub(m.start.store)
	set("pagestore.reads_per_op", f(store.DiskReads)/n, "count")
	set("pagestore.hit_ratio", ratio(f(store.Hits), f(store.Hits+store.Misses)), "ratio")
	set("pagestore.evictions_per_op", f(store.Evictions)/n, "count")
	set("table.pages_skipped_ratio", ratio(f(rs.pagesSkipped), f(rs.pagesSkipped+rs.pagesScanned)), "ratio")
	set("table.strips_per_op", f(rs.strips)/n, "count")
	set("core.rows_examined_per_row", ratio(f(rs.rowsExamined), f(rs.scanRows)), "ratio")
	set("knn.leaves_per_query", ratio(f(rs.knnLeaves), f(rs.knnQueries)), "count")
	set("knn.rows_per_query", ratio(f(rs.knnRows), f(rs.knnQueries)), "count")
	set("photoz.fit_fallback_ratio", ratio(f(rs.fitFallbacks), f(rs.photozQueries)), "ratio")

	var result, plan, all qcache.Counters
	var negativeHits int64
	for ns, c := range d.cache {
		c0 := m.start.cache[ns]
		c.Hits, c.Misses, c.Shared = c.Hits-c0.Hits, c.Misses-c0.Misses, c.Shared-c0.Shared
		c.Evictions, c.PlanHits, c.PlanBuilds = c.Evictions-c0.Evictions, c.PlanHits-c0.PlanHits, c.PlanBuilds-c0.PlanBuilds
		all.Evictions += c.Evictions
		plan.PlanHits += c.PlanHits
		plan.PlanBuilds += c.PlanBuilds
		switch ns {
		case "query", "knn", "photoz":
			result.Hits += c.Hits
			result.Misses += c.Misses
			result.Shared += c.Shared
		case "negative":
			negativeHits = c.Hits
		}
	}
	set("qcache.negative_hits", f(negativeHits), "count")
	set("qcache.hit_ratio", ratio(f(result.Hits+result.Shared), f(result.Hits+result.Shared+result.Misses)), "ratio")
	set("qcache.plan_hit_ratio", ratio(f(plan.PlanHits), f(plan.PlanHits+plan.PlanBuilds)), "ratio")
	set("qcache.evictions", f(all.Evictions), "count")
	set("qcache.served_ratio", f(rs.fromCache)/n, "ratio")
	set("qcache.result_bytes", f(d.cacheBytes), "B")

	admitted, shed := f(d.admitted-m.start.admitted), f(d.shed-m.start.shed)
	set("qos.admitted_per_op", admitted/n, "count")
	set("qos.shed_ratio", ratio(shed, admitted+shed), "ratio")
	set("vizhttp.bytes_per_op", f(rs.bytes)/n, "B")

	appends := f(d.wal.Appends - m.start.wal.Appends)
	set("wal.syncs_per_append", ratio(f(d.wal.Syncs-m.start.wal.Syncs), appends), "ratio")
	set("wal.bytes_per_user_byte", ratio(f(d.wal.Bytes-m.start.wal.Bytes), f(rs.ackedRows*table.RecordSize)), "ratio")
	set("compact.runs", f(d.compacts-m.start.compacts), "count")
	set("compact.rows", f(d.compacted-m.start.compacted), "count")

	subreqs := f(d.subreqs - m.start.subreqs)
	set("shard.subreq_per_op", subreqs/n, "count")
	pruned := 0.0
	if subreqs > 0 {
		pruned = max(0, 1-subreqs/(n*float64(m.shards)))
	}
	set("shard.shards_pruned_ratio", pruned, "ratio")
	set("shard.hedges_per_kop", 1000*f(d.hedges-m.start.hedges)/n, "count")

	set("proc.allocs_per_op", float64(d.mallocs-m.start.mallocs)/n, "count")
	set("proc.gc_pause_ms", float64(d.gcPause-m.start.gcPause)/1e6, "ms")

	// Latency diagnostics.
	set("tail.p99_ms", percentile(m.latencies(func(*sample) bool { return true }), 0.99), "ms")
	for _, shape := range allShapes {
		set("shape."+shape+".p50_ms", percentile(m.latencies(func(s *sample) bool { return m.ops[s.op].shape == shape }), 0.50), "ms")
	}
	isInsert := func(s *sample) bool { return m.ops[s.op].ep == epInsert }
	writes := m.latencies(isInsert)
	set("ingest.write_p50_ms", percentile(writes, 0.50), "ms")
	set("ingest.acked_rows_per_s", f(rs.ackedRows)/m.wall(), "1/s")
	readP95 := 0.0
	if len(writes) > 0 {
		readP95 = percentile(m.latencies(func(s *sample) bool { return !isInsert(s) }), 0.95)
	}
	set("ingest.read_p95_ms", readP95, "ms")

	if tr != nil {
		m.tracedLayers(set, tr)
	}
}

// usP50 is the median of durations given in ns, in µs.
func usP50(ns []float64) float64 { return median(ns) / 1e3 }

// tracedLayers derives the per-layer times from the spans of the
// traced phase.
func (m *measurement) tracedLayers(set func(string, float64, string), tr *tracer) {
	rowsOf := make(map[int64]float64) // op id → rows its response carried
	var base, traced []float64
	var parse []float64
	for i := range m.samples {
		s := &m.samples[i]
		if !s.ok {
			continue
		}
		if !m.phases[s.phase].traced {
			base = append(base, float64(s.dur))
			continue
		}
		traced = append(traced, float64(s.dur))
		rowsOf[int64(s.id)] = float64(s.rows)
		if o := &m.ops[s.op]; o.ep == epQuery && len(parse) < parseSamples {
			// The handler parses inside its own span; time the same
			// statement directly.
			t0 := time.Now()
			colorsql.ParseStatement(o.stmt, colorsql.DefaultVars(), table.Dim)
			parse = append(parse, float64(time.Since(t0)))
		}
	}
	set("colorsql.parse_us_p50", usP50(parse), "us")
	set("trace.overhead_ratio", ratio(median(traced), median(base))-1, "ratio")

	var net, self, price, open, subreq, shardSelf []float64
	var selfRows, selfNs []float64 // per op, for the per-row fit
	var drainNs, drainRows, rowPathNs, handlerNs, totalRows float64
	for id, ot := range tr.byOp() {
		rows, ok := rowsOf[id]
		if !ok || ot.client == nil || ot.handler == nil {
			continue
		}
		h := ot.handler
		net = append(net, float64(ot.client.dur()-h.dur()))
		hs := float64(selfTime(h, ot.children))
		self = append(self, hs)
		selfRows, selfNs = append(selfRows, rows), append(selfNs, hs)
		handlerNs += float64(h.dur())
		totalRows += rows
		for _, c := range ot.children {
			switch c.Name {
			case "planner.price":
				price = append(price, float64(c.dur()))
			case "core.open":
				open = append(open, float64(c.dur()))
				rowPathNs += float64(c.dur())
			case "core.drain":
				drainNs += float64(c.dur())
				drainRows += rows
				rowPathNs += float64(c.dur())
			case "subreq":
				subreq = append(subreq, float64(c.dur()))
			}
		}
		if len(ot.subreqs) > 0 {
			shardSelf = append(shardSelf, float64(selfTime(h, ot.subreqs)))
		}
	}
	perRow := max(0, slope(selfRows, selfNs))
	set("net.self_us_p50", usP50(net), "us")
	set("vizhttp.self_us_p50", usP50(self), "us")
	set("vizhttp.self_us_per_row", perRow/1e3, "us")
	set("planner.price_us_p50", usP50(price), "us")
	set("core.open_us_p50", usP50(open), "us")
	set("core.drain_us_per_row", ratio(drainNs, drainRows)/1e3, "us")
	set("shard.subreq_us_p50", usP50(subreq), "us")
	set("shard.self_us_p50", usP50(shardSelf), "us")
	// Share of handler time on the path that grows with rows: opening
	// and draining the cursor (pagestore, table, core) plus the
	// handler's per-row encoding.
	var selfTotal float64
	for _, v := range selfNs {
		selfTotal += v
	}
	set("trace.row_path_ratio", ratio(rowPathNs+min(perRow*totalRows, selfTotal), handlerNs), "ratio")
}

// slope is the least-squares slope of y on x, 0 when x does not vary.
func slope(x, y []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= float64(len(x))
	my /= float64(len(x))
	var sxy, sxx float64
	for i := range x {
		sxy += (x[i] - mx) * (y[i] - my)
		sxx += (x[i] - mx) * (x[i] - mx)
	}
	return ratio(sxy, sxx)
}
