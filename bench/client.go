package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// sample is one completed request as its client saw it.
type sample struct {
	id    int   // position in the replay; the op id spans carry
	op    int   // index into the op sequence, id modulo its length
	phase int   // index into the run's phases
	start int64 // ns since the run's epoch
	dur   int64 // ns, request written to body fully read
	rows  int   // result rows the client counted
	ok    bool
}

// respStats sums what responses report about their own execution:
// each cursor's Stats() as the summary line or JSON body carries it.
type respStats struct {
	ops, rows, bytes                                 int64
	scanRows                                         int64 // rows of /query and /sky answers
	rowsExamined, pagesSkipped, pagesScanned, strips int64
	knnQueries, knnLeaves, knnRows                   int64
	photozQueries, fitFallbacks                      int64
	fromCache, ackedRows                             int64
}

// phase is one stretch of a run. Samples carry their phase; only the
// measured phases reach the metrics.
type phase struct {
	dur    time.Duration
	traced bool
}

// control sequences the phases by wall time and runs the boundary hook
// once per phase.
type control struct {
	epoch   time.Time
	phases  []phase
	ends    []time.Duration // phase i ends at epoch+ends[i]
	entered int             // phases whose hook has run
	onEnter func(i int)
}

func newControl(phases []phase, onEnter func(i int)) *control {
	ctl := &control{phases: phases, onEnter: onEnter}
	var t time.Duration
	for _, p := range phases {
		t += p.dur
		ctl.ends = append(ctl.ends, t)
	}
	return ctl
}

// at returns the phase the offset falls in, len(phases) when the run
// is over.
func (ctl *control) at(off time.Duration) int {
	for i, end := range ctl.ends {
		if off < end {
			return i
		}
	}
	return len(ctl.phases)
}

// client is the closed-loop caller on its keep-alive connection.
type client struct {
	hc       *http.Client
	base     string
	tr       *tracer
	buf      bytes.Buffer
	samples  []sample
	stats    respStats // of the measured phases; warm-up is not counted
	failures []string  // first few, for the report
}

func newClient(base string, tr *tracer) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		base: base,
		tr:   tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// fetch sends one op and reads the whole response into c.buf. In a
// traced phase it records the client span and names it in the request
// headers so the server-side spans can attach to it.
func (c *client) fetch(o *op, opID int, traced bool) ([]byte, error) {
	method, body := http.MethodGet, io.Reader(nil)
	if o.body != "" {
		method, body = http.MethodPost, strings.NewReader(o.body)
	}
	req, err := http.NewRequest(method, c.base+o.path, body)
	if err != nil {
		return nil, err
	}
	if o.ep == epInsert {
		req.Header.Set("Content-Type", "application/json")
	}
	var sp span
	if traced {
		sp = span{ID: c.tr.newID(), Op: int64(opID), Node: "client", Name: "call", Start: c.tr.now()}
		req.Header.Set(headerSpan, strconv.FormatUint(sp.ID, 10))
		req.Header.Set(headerOp, strconv.Itoa(opID))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if traced {
		sp.End = c.tr.now()
		c.tr.add(sp)
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.120s", resp.StatusCode, c.buf.Bytes())
	}
	return c.buf.Bytes(), nil
}

func (c *client) fail(i int, o *op, err error) {
	if len(c.failures) < 5 {
		c.failures = append(c.failures, fmt.Sprintf("op %d (%s): %v", i, o.shape, err))
	}
}

// run replays ops first, first+1, … cycling through the sequence,
// until the last phase ends.
func (c *client) run(ops []op, first int, ctl *control) {
	for i := first; ; i++ {
		ph := ctl.at(time.Since(ctl.epoch))
		if ph == len(ctl.phases) {
			return
		}
		for ; ctl.entered <= ph; ctl.entered++ {
			ctl.onEnter(ctl.entered)
		}

		o := &ops[i%len(ops)]
		start := time.Since(ctl.epoch)
		body, err := c.fetch(o, i, ctl.phases[ph].traced)
		s := sample{id: i, op: i % len(ops), phase: ph, start: int64(start), dur: int64(time.Since(ctl.epoch) - start)}
		if err == nil {
			st := &c.stats
			if ph == 0 {
				st = new(respStats)
			}
			s.rows, err = scanResponse(o, body, st)
		}
		if err != nil {
			c.fail(i, o, err)
		}
		s.ok = err == nil
		c.samples = append(c.samples, s)
	}
}

// jsonInt returns the integer after the first `"key":` in body. The
// measured loop reads the few fields it needs this way; the verify
// pass decodes whole bodies.
func jsonInt(body []byte, key string) (int64, bool) {
	i := bytes.Index(body, []byte(`"`+key+`":`))
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(key)+3:]
	end := 0
	for end < len(rest) && (rest[end] == '-' || rest[end] >= '0' && rest[end] <= '9') {
		end++
	}
	v, err := strconv.ParseInt(string(rest[:end]), 10, 64)
	return v, err == nil
}

var (
	objIDKey   = []byte(`"objId":`)
	summaryKey = []byte(`{"summary":`)
	newline    = []byte("\n")
)

// scanResponse counts the rows a response carried, checks the count
// against what the response says about itself, and folds the
// response's execution counters into st.
func scanResponse(o *op, body []byte, st *respStats) (int, error) {
	field := func(b []byte, key string) int64 {
		v, _ := jsonInt(b, key)
		return v
	}
	var rows, reported int64
	switch o.ep {
	case epQuery:
		cut := bytes.LastIndexByte(bytes.TrimSuffix(body, newline), '\n') + 1
		summary := body[cut:]
		if !bytes.HasPrefix(summary, summaryKey) {
			return 0, fmt.Errorf("stream does not end in a summary line: %.80q", summary)
		}
		rows = int64(bytes.Count(body[:cut], newline))
		reported = field(summary, "rowsReturned")
		st.rowsExamined += field(summary, "rowsExamined")
		st.pagesSkipped += field(summary, "pagesSkipped")
		st.pagesScanned += field(summary, "pagesScanned")
		st.strips += field(summary, "stripsDecoded")
		if bytes.Contains(summary, []byte(`"fromCache":true`)) {
			st.fromCache++
		}
	case epKnn:
		rows, reported = int64(bytes.Count(body, objIDKey)), int64(o.k)
		st.knnQueries += field(body, "queries")
		st.knnLeaves += field(body, "leavesExamined")
		st.knnRows += field(body, "rowsExamined")
		if bytes.Contains(body, []byte(`"fromCache":true`)) {
			st.fromCache++
		}
	case epPhotoz:
		if !bytes.Contains(body, []byte(`"redshifts":[]`)) {
			rows = 1
		}
		reported = field(body, "queries")
		st.photozQueries += reported
		st.fitFallbacks += field(body, "fitFallbacks")
		if bytes.Contains(body, []byte(`"fromCache":true`)) {
			st.fromCache++
		}
	case epSky:
		rows, reported = int64(bytes.Count(body, objIDKey)), field(body, "count")
		st.rowsExamined += field(body, "rowsExamined")
		st.pagesSkipped += field(body, "pagesSkipped")
		st.pagesScanned += field(body, "pagesScanned")
	case epInsert:
		if acked := field(body, "inserted"); acked != int64(len(o.rows)) {
			return 0, fmt.Errorf("acknowledged %d rows of %d", acked, len(o.rows))
		}
		st.ackedRows += int64(len(o.rows))
	}
	if rows != reported {
		return 0, fmt.Errorf("response says %d rows, body carried %d", reported, rows)
	}
	if o.ep == epQuery || o.ep == epSky {
		st.scanRows += rows
	}
	st.ops++
	st.rows += rows
	st.bytes += int64(len(body))
	return int(rows), nil
}
