// Package qcache is the statement-keyed two-tier query cache.
//
// The serving workload is read-dominated: the catalog is built once
// and the same color cuts, kNN probes and photo-z requests are issued
// over and over. colorsql's Statement.String() is a canonical form —
// two statements with the same normalized text are the same query —
// so it is the cache identity (plus plan-relevant config such as a
// forced plan, folded into the key by the caller).
//
// Tier 1 (plans) caches planner verdicts and compiled page
// predicates: small, always safe, always on. A repeated statement
// skips selectivity estimation and DNF → page-predicate compilation
// entirely.
//
// Tier 2 (results) caches materialized small answers under a byte
// budget, with singleflight: N concurrent identical statements
// trigger one execution and share the answer. Oversized answers
// bypass tier 2 (the fill reports a negative size) but still ride on
// the tier-1 plan.
//
// Correctness contract: every entry carries the Epoch it was built
// under — the pagestore manifest epoch plus the in-process plan
// generation (index builds, ingest). A lookup under a different
// epoch deletes the entry and reports Invalidated; a rebuilt or
// re-persisted catalog therefore invalidates wholesale, which is the
// hook future online ingest will use.
//
// Memory contract: tier 2 is one LRU under one fixed byte budget,
// the caller's configured size for the life of the cache. Cached
// values are materialized copies — they hold no page pins, so the
// buffer pool and the cache never trade memory, and eviction frees
// memory without touching the pool.
package qcache

import (
	"container/list"
	"sync"
)

// Epoch identifies the world an entry was computed in. Store is the
// pagestore manifest epoch (bumped by every persisted mutation);
// Plan counts in-process plan-relevant changes that do not rewrite
// the manifest immediately (index builds, synthetic ingest). Any
// component change invalidates.
type Epoch struct {
	Store uint64
	Plan  uint64
}

// Counters is a snapshot of one namespace's cache activity.
type Counters struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Shared      int64 `json:"shared"`
	Bypasses    int64 `json:"bypasses"`
	Evictions   int64 `json:"evictions"`
	Invalidated int64 `json:"invalidated"`
	PlanHits    int64 `json:"planHits"`
	PlanBuilds  int64 `json:"planBuilds"`
}

// Outcome classifies how Do satisfied a request.
type Outcome int

const (
	// Miss: this caller executed the fill itself (as singleflight
	// leader, or as a follower falling back after the leader failed).
	Miss Outcome = iota
	// Hit: served from the result cache without executing.
	Hit
	// Shared: waited on a concurrent identical execution and received
	// the leader's answer.
	Shared
)

type entry struct {
	ns, key string
	ep      Epoch
	val     any
	size    int64
	elem    *list.Element
}

// flight is an in-progress fill other callers of the same key wait
// on. done is closed by the leader after val/err are set.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// Cache is the two-tier statement cache. All methods are safe for
// concurrent use. The zero value is not usable; construct with New.
type Cache struct {
	mu       sync.Mutex
	budget   int64 // result budget, bytes; 0 disables tier 2
	resBytes int64
	results  map[string]*entry // ns|key → entry
	resLRU   *list.List        // front = most recent
	planCap  int
	plans    map[string]*entry
	planLRU  *list.List
	inflight map[string]*flight
	counters map[string]*Counters // per namespace
}

// DefaultPlanEntries bounds tier 1 when the caller passes 0. Plans
// are a few hundred bytes each; 512 of them is noise next to one
// buffer pool page.
const DefaultPlanEntries = 512

// New builds a cache. resultBudgetBytes ≤ 0 disables tier 2 (Do
// always executes; plans still cache).
func New(resultBudgetBytes int64, planEntries int) *Cache {
	if planEntries <= 0 {
		planEntries = DefaultPlanEntries
	}
	return &Cache{
		budget:   max(resultBudgetBytes, 0),
		results:  make(map[string]*entry),
		resLRU:   list.New(),
		planCap:  planEntries,
		plans:    make(map[string]*entry),
		planLRU:  list.New(),
		inflight: make(map[string]*flight),
		counters: make(map[string]*Counters),
	}
}

func (c *Cache) countersLocked(ns string) *Counters {
	ct := c.counters[ns]
	if ct == nil {
		ct = &Counters{}
		c.counters[ns] = ct
	}
	return ct
}

// evictLocked drops least-recently-used results until tier 2 fits
// its budget.
func (c *Cache) evictLocked() {
	for c.resBytes > c.budget {
		back := c.resLRU.Back()
		if back == nil {
			return
		}
		e := back.Value.(*entry)
		c.removeResultLocked(e)
		c.countersLocked(e.ns).Evictions++
	}
}

func (c *Cache) removeResultLocked(e *entry) {
	delete(c.results, e.ns+"|"+e.key)
	c.resLRU.Remove(e.elem)
	c.resBytes -= e.size
}

// GetOrBuildPlan returns the tier-1 entry for key, building and
// caching it on first use. Concurrent first uses may both build (the
// build is cheap CPU work on in-memory statistics — not worth a
// flight); last write wins. An entry from another epoch is deleted
// and rebuilt.
func (c *Cache) GetOrBuildPlan(ns, key string, ep Epoch, build func() (any, error)) (any, error) {
	full := ns + "|" + key
	c.mu.Lock()
	if e, ok := c.plans[full]; ok {
		if e.ep == ep {
			c.planLRU.MoveToFront(e.elem)
			c.countersLocked(ns).PlanHits++
			v := e.val
			c.mu.Unlock()
			return v, nil
		}
		delete(c.plans, full)
		c.planLRU.Remove(e.elem)
		c.countersLocked(ns).Invalidated++
	}
	c.countersLocked(ns).PlanBuilds++
	c.mu.Unlock()

	v, err := build()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if e, ok := c.plans[full]; ok {
		// Raced with another builder: refresh in place.
		e.val, e.ep = v, ep
		c.planLRU.MoveToFront(e.elem)
	} else {
		e := &entry{ns: ns, key: key, ep: ep, val: v}
		e.elem = c.planLRU.PushFront(e)
		c.plans[full] = e
		for len(c.plans) > c.planCap {
			back := c.planLRU.Back()
			be := back.Value.(*entry)
			delete(c.plans, be.ns+"|"+be.key)
			c.planLRU.Remove(back)
			c.countersLocked(be.ns).Evictions++
		}
	}
	c.mu.Unlock()
	return v, nil
}

// Lookup is a read-only tier-2 probe: it returns the cached value if
// present under the given epoch and counts a Hit, but counts nothing
// on absence (the caller is expected to follow up with Do, which
// accounts the miss). The admission layer uses it to price cached
// statements at ~zero without double-counting.
func (c *Cache) Lookup(ns, key string, ep Epoch) (any, bool) {
	full := ns + "|" + key
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.results[full]
	if !ok {
		return nil, false
	}
	if e.ep != ep {
		c.removeResultLocked(e)
		c.countersLocked(ns).Invalidated++
		return nil, false
	}
	c.resLRU.MoveToFront(e.elem)
	c.countersLocked(ns).Hits++
	return e.val, true
}

// Do returns the cached result for key or executes fill to produce
// it, deduplicating concurrent identical requests: one caller (the
// leader) executes, the rest wait and share the answer.
//
// fill returns (value, size, error). size is the value's resident
// cost in bytes; a negative size means "correct answer, do not
// cache" (oversized, or the caller decided it is uncacheable) — the
// answer is still shared with waiting followers and counted as a
// bypass. If the leader's fill fails (e.g. its request context was
// canceled), followers do not inherit the failure: each runs its own
// fill uncached, so one canceled client cannot poison its queue.
//
// With tier 2 disabled (zero budget) Do simply executes fill —
// no flights, no sharing — so the cost is one map-less branch.
func (c *Cache) Do(ns, key string, ep Epoch, fill func() (any, int64, error)) (any, Outcome, error) {
	c.mu.Lock()
	if c.budget == 0 {
		c.countersLocked(ns).Bypasses++
		c.mu.Unlock()
		v, _, err := fill()
		return v, Miss, err
	}
	full := ns + "|" + key
	if e, ok := c.results[full]; ok {
		if e.ep == ep {
			c.resLRU.MoveToFront(e.elem)
			c.countersLocked(ns).Hits++
			v := e.val
			c.mu.Unlock()
			return v, Hit, nil
		}
		c.removeResultLocked(e)
		c.countersLocked(ns).Invalidated++
	}
	if fl, ok := c.inflight[full]; ok {
		c.mu.Unlock()
		<-fl.done
		if fl.err == nil {
			c.mu.Lock()
			c.countersLocked(ns).Shared++
			c.mu.Unlock()
			return fl.val, Shared, nil
		}
		// Leader failed; fall back to an uncached execution of our
		// own (our fill closure captures our own context).
		c.mu.Lock()
		c.countersLocked(ns).Misses++
		c.mu.Unlock()
		v, _, err := fill()
		return v, Miss, err
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[full] = fl
	c.countersLocked(ns).Misses++
	c.mu.Unlock()

	v, size, err := fill()
	fl.val, fl.err = v, err

	c.mu.Lock()
	delete(c.inflight, full)
	if err == nil {
		if size >= 0 {
			c.insertResultLocked(ns, key, ep, v, size)
		} else {
			c.countersLocked(ns).Bypasses++
		}
	}
	c.mu.Unlock()
	close(fl.done)
	if err != nil {
		return nil, Miss, err
	}
	return v, Miss, nil
}

// insertResultLocked stores a result, evicting down to the budget. An
// entry bigger than a quarter of the budget is refused — one jumbo
// answer must not wipe the whole working set — and counted as a
// bypass.
func (c *Cache) insertResultLocked(ns, key string, ep Epoch, v any, size int64) {
	if size > c.budget/4 {
		c.countersLocked(ns).Bypasses++
		return
	}
	full := ns + "|" + key
	if old, ok := c.results[full]; ok {
		c.removeResultLocked(old)
	}
	e := &entry{ns: ns, key: key, ep: ep, val: v, size: size}
	e.elem = c.resLRU.PushFront(e)
	c.results[full] = e
	c.resBytes += size
	c.evictLocked()
}

// Bypass records a statically uncacheable request (no LIMIT, LIMIT
// over the cap) that never consulted tier 2.
func (c *Cache) Bypass(ns string) {
	c.mu.Lock()
	c.countersLocked(ns).Bypasses++
	c.mu.Unlock()
}

// ResultBytes returns the resident size of tier 2.
func (c *Cache) ResultBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resBytes
}

// ResultEntries returns the number of tier-2 entries.
func (c *Cache) ResultEntries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.results)
}

// Budget returns the result budget, bytes. It is fixed at New, so no
// lock is needed.
func (c *Cache) Budget() int64 { return c.budget }

// Stats snapshots every namespace's counters.
func (c *Cache) Stats() map[string]Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]Counters, len(c.counters))
	for ns, ct := range c.counters {
		out[ns] = *ct
	}
	return out
}

// StatsFor snapshots one namespace's counters.
func (c *Cache) StatsFor(ns string) Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ct, ok := c.counters[ns]; ok {
		return *ct
	}
	return Counters{}
}
