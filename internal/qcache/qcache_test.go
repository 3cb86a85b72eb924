package qcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var ep1 = Epoch{Store: 1, Plan: 0}
var ep2 = Epoch{Store: 2, Plan: 0}

func TestPlanCacheHitAndInvalidation(t *testing.T) {
	c := New(0, 4)
	builds := 0
	build := func() (any, error) { builds++; return builds, nil }

	for i := 0; i < 5; i++ {
		v, err := c.GetOrBuildPlan("stmt", "q1", ep1, build)
		if err != nil || v.(int) != 1 {
			t.Fatalf("iteration %d: v=%v err=%v", i, v, err)
		}
	}
	if builds != 1 {
		t.Fatalf("builds = %d, want 1 (repeated statement must plan once)", builds)
	}
	st := c.StatsFor("stmt")
	if st.PlanBuilds != 1 || st.PlanHits != 4 {
		t.Fatalf("counters = %+v, want 1 build / 4 hits", st)
	}

	// A new epoch invalidates the entry and rebuilds.
	v, err := c.GetOrBuildPlan("stmt", "q1", ep2, build)
	if err != nil || v.(int) != 2 {
		t.Fatalf("post-epoch: v=%v err=%v", v, err)
	}
	if got := c.StatsFor("stmt").Invalidated; got != 1 {
		t.Fatalf("Invalidated = %d, want 1", got)
	}
}

func TestPlanCacheBoundedLRU(t *testing.T) {
	c := New(0, 2)
	build := func() (any, error) { return "p", nil }
	for i := 0; i < 3; i++ {
		if _, err := c.GetOrBuildPlan("stmt", fmt.Sprintf("q%d", i), ep1, build); err != nil {
			t.Fatal(err)
		}
	}
	// q0 is the LRU victim; q2 must still be resident.
	before := c.StatsFor("stmt").PlanBuilds
	if _, err := c.GetOrBuildPlan("stmt", "q2", ep1, build); err != nil {
		t.Fatal(err)
	}
	if got := c.StatsFor("stmt").PlanBuilds; got != before {
		t.Fatalf("q2 rebuilt (builds %d → %d), want resident", before, got)
	}
	if _, err := c.GetOrBuildPlan("stmt", "q0", ep1, build); err != nil {
		t.Fatal(err)
	}
	if got := c.StatsFor("stmt").PlanBuilds; got != before+1 {
		t.Fatalf("q0 not evicted (builds %d → %d)", before, got)
	}
}

func TestResultCacheHitMissEviction(t *testing.T) {
	c := New(1000, 0)
	fill := func(v string, size int64) func() (any, int64, error) {
		return func() (any, int64, error) { return v, size, nil }
	}

	v, out, err := c.Do("query", "a", ep1, fill("A", 100))
	if err != nil || out != Miss || v.(string) != "A" {
		t.Fatalf("first Do: v=%v out=%v err=%v", v, out, err)
	}
	v, out, err = c.Do("query", "a", ep1, fill("WRONG", 100))
	if err != nil || out != Hit || v.(string) != "A" {
		t.Fatalf("second Do: v=%v out=%v err=%v", v, out, err)
	}
	if got := c.ResultBytes(); got != 100 {
		t.Fatalf("ResultBytes = %d, want 100", got)
	}

	// Fill past the budget: LRU entries go first.
	for i := 0; i < 12; i++ {
		c.Do("query", fmt.Sprintf("k%d", i), ep1, fill("x", 100))
	}
	st := c.StatsFor("query")
	if st.Evictions == 0 {
		t.Fatalf("no evictions after overfill: %+v", st)
	}
	if got := c.ResultBytes(); got > 1000 {
		t.Fatalf("ResultBytes = %d exceeds budget", got)
	}
	if _, out, _ := c.Do("query", "a", ep1, fill("A2", 100)); out != Miss {
		t.Fatalf("oldest entry still resident after overfill, out=%v", out)
	}
}

func TestEpochInvalidatesResults(t *testing.T) {
	c := New(1000, 0)
	fill := func() (any, int64, error) { return "old", 10, nil }
	c.Do("query", "a", ep1, fill)
	if _, ok := c.Lookup("query", "a", ep1); !ok {
		t.Fatal("warm lookup missed")
	}
	if v, ok := c.Lookup("query", "a", ep2); ok {
		t.Fatalf("stale-epoch lookup returned %v", v)
	}
	if got := c.StatsFor("query").Invalidated; got != 1 {
		t.Fatalf("Invalidated = %d, want 1", got)
	}
	if got := c.ResultEntries(); got != 0 {
		t.Fatalf("stale entry still resident (%d entries)", got)
	}
}

func TestOversizedResultBypasses(t *testing.T) {
	c := New(1000, 0)
	// > budget/4 refuses to cache but still answers.
	v, out, err := c.Do("query", "big", ep1, func() (any, int64, error) { return "big", 600, nil })
	if err != nil || out != Miss || v.(string) != "big" {
		t.Fatalf("big Do: v=%v out=%v err=%v", v, out, err)
	}
	if got := c.StatsFor("query").Bypasses; got != 1 {
		t.Fatalf("Bypasses = %d, want 1", got)
	}
	if got := c.ResultEntries(); got != 0 {
		t.Fatalf("oversized entry cached (%d entries)", got)
	}
	// Negative size means the caller opted out.
	c.Do("query", "nocache", ep1, func() (any, int64, error) { return "v", -1, nil })
	if got := c.ResultEntries(); got != 0 {
		t.Fatalf("opt-out entry cached (%d entries)", got)
	}
}

func TestDisabledTier2AlwaysExecutes(t *testing.T) {
	c := New(0, 0)
	execs := 0
	for i := 0; i < 3; i++ {
		v, out, err := c.Do("query", "a", ep1, func() (any, int64, error) { execs++; return execs, 1, nil })
		if err != nil || out != Miss || v.(int) != i+1 {
			t.Fatalf("i=%d: v=%v out=%v err=%v", i, v, out, err)
		}
	}
	if execs != 3 {
		t.Fatalf("execs = %d, want 3 (tier 2 disabled)", execs)
	}
}

// Singleflight: N concurrent identical requests perform exactly one
// execution and all receive the identical answer, whether they
// arrived while the fill was in flight (Shared) or after it landed
// (Hit). Run under -race in CI.
func TestSingleflightDedup(t *testing.T) {
	c := New(1<<20, 0)
	const N = 32
	var execs atomic.Int64
	answers := make([]any, N)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, _, err := c.Do("query", "hot", ep1, func() (any, int64, error) {
				execs.Add(1)
				time.Sleep(20 * time.Millisecond) // hold the flight open
				return "answer", 6, nil
			})
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
			}
			answers[i] = v
		}(i)
	}
	close(start)
	wg.Wait()
	if got := execs.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
	for i, v := range answers {
		if v != "answer" {
			t.Fatalf("goroutine %d got %v", i, v)
		}
	}
	st := c.StatsFor("query")
	if st.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.Shared != N-1 {
		t.Fatalf("Hits+Shared = %d, want %d (stats %+v)", st.Hits+st.Shared, N-1, st)
	}
}

// A failed leader must not poison its followers: each falls back to
// its own uncached execution and nothing is cached.
func TestSingleflightLeaderFailureFallsBack(t *testing.T) {
	c := New(1<<20, 0)
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	var leaderDone sync.WaitGroup
	leaderDone.Add(1)
	go func() {
		defer leaderDone.Done()
		_, _, err := c.Do("query", "k", ep1, func() (any, int64, error) {
			close(leaderIn)
			<-release
			return nil, 0, errors.New("leader canceled")
		})
		if err == nil {
			t.Error("leader fill error was swallowed")
		}
	}()
	<-leaderIn

	const N = 4
	var followerExecs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, out, err := c.Do("query", "k", ep1, func() (any, int64, error) {
				followerExecs.Add(1)
				return "fallback", -1, nil
			})
			if err != nil || out != Miss || v.(string) != "fallback" {
				t.Errorf("follower: v=%v out=%v err=%v", v, out, err)
			}
		}()
	}
	// Give followers time to park on the flight, then fail the leader.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	leaderDone.Wait()
	if got := followerExecs.Load(); got != N {
		t.Fatalf("follower executions = %d, want %d (each retries uncached)", got, N)
	}
	if got := c.ResultEntries(); got != 0 {
		t.Fatalf("failed fill left %d cached entries", got)
	}
}
