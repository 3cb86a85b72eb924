package pagestore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// TestEvictionWriteFailureReparksFrame is the regression test for
// the eviction-path frame leak: when the victim's write-back fails,
// the frame used to be removed from the LRU list but left in the
// frame map — permanently unevictable, silently shrinking the pool
// and stranding the dirty data. The frame must instead be re-parked:
// still resident, still dirty, still evictable once writes succeed
// again.
func TestEvictionWriteFailureReparksFrame(t *testing.T) {
	s := newStore(t, 2)
	f, err := s.CreateFile("t.dat")
	if err != nil {
		t.Fatal(err)
	}
	// Two dirty pages fill the pool.
	var ids []PageID
	for i := 0; i < 2; i++ {
		p, err := s.Alloc(f)
		if err != nil {
			t.Fatal(err)
		}
		p.Data[0] = byte(100 + i)
		p.MarkDirty()
		ids = append(ids, p.ID)
		p.Release()
	}

	injected := errors.New("injected disk failure")
	s.writeErrHook = func(PageID) error { return injected }

	// The next alloc needs an eviction, whose write-back fails.
	if _, err := s.Alloc(f); !errors.Is(err, injected) {
		t.Fatalf("alloc during failing writes: err = %v, want injected failure", err)
	}
	if got := s.PoolSize(); got != 2 {
		t.Fatalf("pool holds %d frames after failed eviction, want 2 (victim re-parked)", got)
	}

	// Heal the disk: the pool must recover fully — the previously
	// failing victim evicts (writing its preserved dirty data), and
	// repeated churn proves no frame leaked capacity.
	s.writeErrHook = nil
	for i := 0; i < 6; i++ {
		p, err := s.Alloc(f)
		if err != nil {
			t.Fatalf("alloc %d after healing: %v", i, err)
		}
		p.Data[0] = byte(110 + i)
		p.MarkDirty()
		p.Release()
	}
	if got := s.PoolSize(); got > 2 {
		t.Fatalf("pool grew to %d frames, capacity is 2", got)
	}
	// The stranded dirty data must have survived the failed write.
	for i, id := range ids {
		p, err := s.Get(id)
		if err != nil {
			t.Fatalf("get %v: %v", id, err)
		}
		if p.Data[0] != byte(100+i) {
			t.Errorf("page %v data = %d, want %d (dirty data lost in failed eviction)", id, p.Data[0], 100+i)
		}
		p.Release()
	}
}

// TestFailedLoadWaitersRecordNoHit is the regression test for the
// phantom-hit accounting bug: a Get that found an in-flight load
// counted a pool Hit (globally and in its scope) before waiting; if
// the load then failed, the error was returned but the Hit stayed —
// a counted page access for a page that never arrived, violating
// the scope-exactness invariant.
func TestFailedLoadWaitersRecordNoHit(t *testing.T) {
	s := newStore(t, 8)
	f, err := s.CreateFile("t.dat")
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Alloc(f)
	if err != nil {
		t.Fatal(err)
	}
	id := p.ID
	p.MarkDirty()
	p.Release()
	if err := s.DropCache(); err != nil {
		t.Fatal(err)
	}

	const waiters = 4
	injected := errors.New("injected read failure")
	started := make(chan struct{})       // loader is inside the hook
	release := make(chan struct{})       // waiters are in position
	s.readErrHook = func(PageID) error { // the one loader blocks, then fails
		close(started)
		<-release
		return injected
	}

	before := s.Stats()
	loaderScope := s.Scoped()
	loaderErr := make(chan error, 1)
	go func() {
		_, err := loaderScope.Get(id)
		loaderErr <- err
	}()
	<-started

	scopes := make([]*Scope, waiters)
	errs := make(chan error, waiters)
	for i := range scopes {
		scopes[i] = s.Scoped()
		go func(sc *Scope) {
			_, err := sc.Get(id)
			errs <- err
		}(scopes[i])
	}
	// Wait until every waiter has pinned the loading frame (pins =
	// loader + waiters), so all of them are provably waiting on the
	// load before it is allowed to fail.
	sh := s.shardOf(id)
	for {
		sh.mu.Lock()
		pins := sh.frames[id].pins
		sh.mu.Unlock()
		if pins == waiters+1 {
			break
		}
		runtime.Gosched()
	}
	close(release)

	if err := <-loaderErr; !errors.Is(err, injected) {
		t.Fatalf("loader err = %v, want injected failure", err)
	}
	for i := 0; i < waiters; i++ {
		if err := <-errs; err == nil {
			t.Fatal("waiter got a page from a failed load")
		}
	}
	for i, sc := range scopes {
		if got := sc.Stats(); got != (Stats{}) {
			t.Errorf("waiter scope %d recorded %+v for a page that never arrived; want all zero", i, got)
		}
	}
	if got := loaderScope.Stats(); got != (Stats{}) {
		t.Errorf("loader scope = %+v, want all zero (its miss is un-counted: no page arrived)", got)
	}
	delta := s.Stats().Sub(before)
	if delta.Hits != 0 || delta.Misses != 0 {
		t.Errorf("global delta %+v after failed load, want no hits or misses", delta)
	}
	// The store must still serve the page once reads heal.
	s.readErrHook = nil
	p2, err := s.Get(id)
	if err != nil {
		t.Fatalf("get after healing: %v", err)
	}
	p2.Release()
}

// TestExternalTruncationFailsLoud: a data file that loses pages it
// demonstrably had (truncated behind the store's back) must fail the
// read loudly — the short-read zero-fill applies only to pages above
// the physical high-water mark (alloc'd this session, never written).
func TestExternalTruncationFailsLoud(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	f, err := s.CreateFile("t.dat")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p, err := s.Alloc(f)
		if err != nil {
			t.Fatal(err)
		}
		p.Data[0] = byte(i)
		p.MarkDirty()
		p.Release()
	}
	if err := s.DropCache(); err != nil { // flushes: high-water mark = 3
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, "t.dat"), PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(PageID{File: f, Num: 2}); err == nil {
		t.Fatal("read of an externally truncated page succeeded (silent zeros) instead of failing loudly")
	}
}

// TestScanResistance: a sequential scan-class pass over a table much
// larger than the pool must not evict the hot set. Hot pages are
// established by touching them twice (the LRU-2 promotion rule);
// then a scan streams through; then the hot pages must all still be
// resident.
func TestScanResistance(t *testing.T) {
	const pool = 8
	s, f := scopedFixture(t, pool, 64)

	hot := []PageNum{0, 1, 2, 3}
	for round := 0; round < 2; round++ { // twice: promoted to the young list
		for _, num := range hot {
			p, err := s.Get(PageID{File: f, Num: num})
			if err != nil {
				t.Fatal(err)
			}
			p.Release()
		}
	}

	// One full scan-class pass over all 64 pages through the 8-frame
	// pool. With plain LRU this evicts everything; scan-resistant
	// replacement recycles the probationary frames instead.
	for num := PageNum(0); num < 64; num++ {
		p, err := s.GetScan(PageID{File: f, Num: num})
		if err != nil {
			t.Fatal(err)
		}
		if p.Data[0] != byte(num) {
			t.Fatalf("page %d content = %d mid-scan", num, p.Data[0])
		}
		p.Release()
	}

	before := s.Stats()
	for _, num := range hot {
		p, err := s.Get(PageID{File: f, Num: num})
		if err != nil {
			t.Fatal(err)
		}
		p.Release()
	}
	d := s.Stats().Sub(before)
	if d.Misses != 0 || d.Hits != int64(len(hot)) {
		t.Errorf("after full scan, hot-set reads were %d hits / %d misses; want %d hits, 0 misses (scan evicted the hot set)",
			d.Hits, d.Misses, len(hot))
	}
}

// TestScanClassScanMissesAreExactlyPageCount pins the replacement
// mechanism's exactness: a scan-class pass over a table 8× the pool
// reads every page exactly once — the scan recycles probationary
// frames without second-order churn — and the scope's counters still
// equal the global delta.
func TestScanClassScanMissesAreExactlyPageCount(t *testing.T) {
	const pool = 8
	s, f := scopedFixture(t, pool, 64)
	sc := s.Scoped()
	before := s.Stats()
	for num := PageNum(0); num < 64; num++ {
		p, err := sc.GetScan(PageID{File: f, Num: num})
		if err != nil {
			t.Fatal(err)
		}
		p.Release()
	}
	got := sc.Stats()
	if got.Misses != 64 || got.DiskReads != 64 || got.Hits != 0 {
		t.Errorf("scan pass stats %+v; want exactly 64 misses / 64 disk reads", got)
	}
	if delta := s.Stats().Sub(before); delta != got {
		t.Errorf("scope stats %+v != global delta %+v (scope was the only client)", got, delta)
	}
}

// TestShardedPoolStatsExactUnderChurn is the sharded-pool version of
// the headline accounting property: a pool large enough to split
// into multiple shards, data pages exceeding the pool (constant
// eviction churn, including dirty write-backs), concurrent scoped
// readers — and still every scope's counters sum exactly (±0) to
// the store-global delta.
func TestShardedPoolStatsExactUnderChurn(t *testing.T) {
	const (
		pool    = 2 * minShardPages // smallest pool that shards
		pages   = 3 * pool          // dataset 3× the pool: constant eviction
		readers = 8
		rounds  = 4
	)
	s, f := scopedFixture(t, pool, pages)
	if s.NumShards() < 2 {
		t.Fatalf("pool of %d pages produced %d shards, want >= 2", pool, s.NumShards())
	}
	before := s.Stats()

	scopes := make([]*Scope, readers)
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		scopes[r] = s.Scoped()
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sc := scopes[r]
			for round := 0; round < rounds; round++ {
				for i := 0; i < pages; i++ {
					num := PageNum((i*7 + r*13) % pages)
					p, err := sc.Get(PageID{File: f, Num: num})
					if err != nil {
						errs <- err
						return
					}
					if p.Data[0] != byte(num) {
						errs <- fmt.Errorf("page %d content = %d", num, p.Data[0])
						p.Release()
						return
					}
					// Half the traffic dirties pages so eviction
					// write-back I/O runs constantly under the churn.
					if i%2 == 0 {
						p.MarkDirty()
					}
					p.Release()
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var sum Stats
	for _, sc := range scopes {
		sum = sum.Add(sc.Stats())
	}
	if delta := s.Stats().Sub(before); sum != delta {
		t.Errorf("scope sum %+v != global delta %+v under sharded eviction churn", sum, delta)
	}
	if s.Stats().Evictions == 0 {
		t.Error("churn workload produced no evictions; the test is not exercising eviction")
	}
}

// TestConcurrentGetDuringEvictionWriteback hammers the exact window
// the async write-back opens: dirty pages being evicted while other
// goroutines request them. A Get landing mid-write must wait on the
// frame (the eviction then aborts) and observe intact data. Run
// with -race.
func TestConcurrentGetDuringEvictionWriteback(t *testing.T) {
	const pool = 4
	const pages = 32
	s, f := scopedFixture(t, pool, pages)

	// Dirty every page once through the tiny pool so the LRU is full
	// of dirty frames and every eviction carries write-back I/O.
	// One worker per frame: each pins at most one page at a time, so a
	// requester always finds a frame no other worker holds. More
	// workers than frames can pin the whole pool at once, which the
	// store rightly reports as exhaustion — a failure of the test's
	// arithmetic, not of the write-back window it is here to hammer.
	var wg sync.WaitGroup
	errs := make(chan error, pool)
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 600; iter++ {
				num := PageNum((w*11 + iter*5) % pages)
				p, err := s.Get(PageID{File: f, Num: num})
				if err != nil {
					errs <- err
					return
				}
				if p.Data[0] != byte(num) {
					errs <- fmt.Errorf("page %d content = %d under write-back churn", num, p.Data[0])
					p.Release()
					return
				}
				p.MarkDirty() // keep every frame dirty
				p.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DiskWrites == 0 || st.Evictions == 0 {
		t.Errorf("stats %+v: churn produced no eviction write-backs", st)
	}
}
