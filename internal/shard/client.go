package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/table"
	"repro/internal/vizhttp"
)

// This file is the coordinator's HTTP plumbing: hedged sub-requests
// against shard vizservers. Every row a shard sends — photo-z
// neighbours too — comes back through fetch as binary frames holding
// the table's own record bytes, so re-serialization on the coordinator
// is byte-identical to what the shard would have written. /insert is
// the one write, and the one JSON exchange.

// shardError wraps a sub-request failure with the shard's identity,
// so a partial failure surfaces as a descriptive error and never as a
// silently truncated answer.
func (c *Coordinator) shardError(shard int, err error) error {
	return fmt.Errorf("shard %d (%s): %w", shard, c.targets[shard], err)
}

// doHedged issues one idempotent sub-request with hedging: if no
// response has arrived after cfg.HedgeAfter, a duplicate request is
// launched and the first usable response wins (the loser is
// cancelled). A fast failure also triggers the hedge immediately — a
// single retry. Returns the winning response and a release func the
// caller must invoke once the body is fully consumed. Never use for
// non-idempotent requests (/insert).
func (c *Coordinator) doHedged(ctx context.Context, shard int, build func(ctx context.Context) (*http.Request, error)) (*http.Response, func(), error) {
	type attempt struct {
		resp   *http.Response
		err    error
		cancel context.CancelFunc
	}
	results := make(chan attempt, 2)
	launch := func() {
		actx, cancel := context.WithCancel(ctx)
		req, err := build(actx)
		if err != nil {
			results <- attempt{err: err, cancel: cancel}
			return
		}
		go func() {
			resp, err := c.client.Do(req)
			results <- attempt{resp: resp, err: err, cancel: cancel}
		}()
	}
	launch()
	outstanding := 1

	var hedgeCh <-chan time.Time
	var hedgeTimer *time.Timer
	if c.cfg.HedgeAfter > 0 {
		hedgeTimer = time.NewTimer(c.cfg.HedgeAfter)
		hedgeCh = hedgeTimer.C
		defer hedgeTimer.Stop()
	}
	fireHedge := func() {
		if hedgeCh == nil {
			return
		}
		hedgeCh = nil
		c.hedges[shard].Add(1)
		launch()
		outstanding++
	}

	var firstErr error
	for {
		select {
		case <-hedgeCh:
			fireHedge()
		case a := <-results:
			outstanding--
			switch {
			case a.err != nil:
				a.cancel()
				if firstErr == nil {
					firstErr = a.err
				}
			case a.resp.StatusCode != http.StatusOK:
				msg, _ := io.ReadAll(io.LimitReader(a.resp.Body, 512))
				a.resp.Body.Close()
				a.cancel()
				if firstErr == nil {
					firstErr = fmt.Errorf("status %d: %s", a.resp.StatusCode, bytes.TrimSpace(msg))
				}
			default:
				// Winner. Reap any still-outstanding attempt once it lands.
				if outstanding > 0 {
					go func() {
						l := <-results
						if l.resp != nil {
							l.resp.Body.Close()
						}
						l.cancel()
					}()
				}
				return a.resp, a.cancel, nil
			}
			if outstanding == 0 {
				if hedgeCh != nil && ctx.Err() == nil {
					// The primary failed before the hedge timer: hedge now
					// (one retry) instead of giving up.
					fireHedge()
					continue
				}
				return nil, nil, firstErr
			}
		}
	}
}

// queryPath renders the /query request for one statement.
func queryPath(query string) string { return "/query?q=" + url.QueryEscape(query) }

// fetch asks one shard for the rows at path (/query, /sky or /points),
// hands emit the answer a frame's block of rows at a time
// (vizhttp/frame.go) and returns the shard's summary. A stream cut
// before it, an error or damaged frame and a non-frame answer are
// errors naming the shard, never a short success.
func (c *Coordinator) fetch(ctx context.Context, shard int, path string, emit func([]table.Record) error) (core.Report, error) {
	resp, release, err := c.doHedged(ctx, shard, func(actx context.Context) (*http.Request, error) {
		req, err := http.NewRequestWithContext(actx, http.MethodGet, c.targets[shard]+path, nil)
		if err == nil {
			req.Header.Set("Accept", vizhttp.FrameContentType)
		}
		return req, err
	})
	if err != nil {
		return core.Report{}, c.shardError(shard, err)
	}
	defer release()
	defer resp.Body.Close()

	if ct := resp.Header.Get("Content-Type"); ct != vizhttp.FrameContentType {
		return core.Report{}, c.shardError(shard, fmt.Errorf("answered %q, not a frame stream", ct))
	}
	fr, err := vizhttp.NewFrameReader(resp.Body)
	for err == nil {
		var recs []table.Record
		var rep *core.Report
		if recs, rep, err = fr.Next(); err != nil {
			break
		}
		if rep != nil {
			return *rep, nil
		}
		if err := emit(recs); err != nil {
			return core.Report{}, err
		}
	}
	return core.Report{}, c.shardError(shard, err)
}

// fetchAll is fetch collecting the whole answer.
func (c *Coordinator) fetchAll(ctx context.Context, shard int, path string) ([]table.Record, core.Report, error) {
	var recs []table.Record
	rep, err := c.fetch(ctx, shard, path, func(block []table.Record) error {
		recs = append(recs, block...)
		return nil
	})
	return recs, rep, err
}

// fetchEach fetches path(t) from every target t at once, answers and
// summaries in target order. Any failure fails the whole fan-out: the
// first in target order is returned.
func (c *Coordinator) fetchEach(ctx context.Context, targets []int, path func(t int) string) ([][]table.Record, []core.Report, error) {
	recs := make([][]table.Record, len(targets))
	reps := make([]core.Report, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, t := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.observe(ctx, t, func() (err error) {
				recs[i], reps[i], err = c.fetchAll(ctx, t, path(t))
				return err
			})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return recs, reps, nil
}

// postOnce issues a single non-hedged POST — the write path.
// Duplicating an /insert would double-apply the batch, so writes
// never hedge.
func (c *Coordinator) postOnce(ctx context.Context, shard int, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.targets[shard]+path, bytes.NewReader(body))
	if err != nil {
		return c.shardError(shard, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return c.shardError(shard, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return c.shardError(shard, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg)))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return c.shardError(shard, err)
	}
	return nil
}

// skyQueryPath renders the /sky request for one box.
func skyQueryPath(raLo, raHi, decLo, decHi float64, limit int) string {
	return "/sky?ra=" + url.QueryEscape(formatFloat(raLo)+","+formatFloat(raHi)) +
		"&dec=" + url.QueryEscape(formatFloat(decLo)+","+formatFloat(decHi)) +
		"&limit=" + strconv.Itoa(limit)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
