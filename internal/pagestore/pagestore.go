// Package pagestore implements the disk substrate the reproduction
// runs on: fixed-size paged files accessed through a pinning,
// scan-resistant, sharded buffer pool with exact I/O accounting.
//
// The paper implements its indexes inside MS SQL Server, where the
// unit of query cost is the 8 KiB page read from disk into the
// buffer pool. Reproducing the performance claims therefore needs a
// substrate that (a) stores tables as pages, (b) caches pages with
// a replacement policy that behaves under memory pressure, and (c)
// counts precisely how many pages each query touched versus how many
// came from cache. Statements like "our tests show that practically
// only points which are actually returned are read from disk into
// memory" (§3.1) are verified in this repository by asserting on
// Stats deltas.
//
// The store is safe for concurrent use and designed to keep serving
// when the dataset is larger than the pool:
//
//   - Pool bookkeeping is sharded by PageID hash: each shard has its
//     own latch, frame map, and replacement lists, so concurrent
//     readers contend only when their pages land on the same shard.
//     (Pools too small to split meaningfully stay single-sharded,
//     preserving exact global LRU order.)
//   - Physical reads AND eviction write-backs happen outside every
//     latch, behind per-frame loading/writing states: a page
//     requested while in flight is pinned and waited on, never read
//     or written twice, and no caller's I/O stalls the pool's
//     bookkeeping.
//   - Replacement is scan-resistant: scan-class accesses (full-table
//     scans, one-pass index-stream reads) park their pages on a
//     probationary list that is evicted first, so one sequential
//     scan recycles a handful of frames instead of wiping the hot
//     set. See shard.park.
//
// One carve-out: concurrently reading a page while the Alloc that
// creates it is still in flight is the caller's race (the reader may
// observe the page zeroed rather than with the allocator's content).
// The online-ingest write path (internal/core's compactor) respects
// this by publication ordering: appended rows become visible to new
// snapshots only after their pages are fully written, and snapshot
// readers never reach past their frozen row bound — so no query path
// hits this.
//
// The store also carries the write path's two non-paged file classes:
// the WAL (wal.go), an append-only checksummed record log with group
// commit, and the manifest's durableSeq/artifactGen anchors
// (manifest.go) that commit compaction results atomically.
package pagestore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// PageSize is the size of every page in bytes, matching SQL Server's
// 8 KiB pages.
const PageSize = 8192

// FileID identifies an open paged file within a Store.
type FileID uint16

// PageNum is a zero-based page index within one file.
type PageNum uint32

// PageID globally identifies a page.
type PageID struct {
	File FileID
	Num  PageNum
}

func (id PageID) String() string { return fmt.Sprintf("%d:%d", id.File, id.Num) }

// Stats counts buffer pool and disk activity. All counters are
// cumulative; callers diff two snapshots around a query to obtain
// per-query cost.
type Stats struct {
	DiskReads  int64 // pages physically read from the OS file
	DiskWrites int64 // pages physically written to the OS file
	Hits       int64 // page requests served from the pool
	Misses     int64 // page requests that went to disk
	Evictions  int64 // pages evicted to make room
	Allocs     int64 // fresh pages appended to files
}

// Add returns s + o, for aggregating per-query stats.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		DiskReads:  s.DiskReads + o.DiskReads,
		DiskWrites: s.DiskWrites + o.DiskWrites,
		Hits:       s.Hits + o.Hits,
		Misses:     s.Misses + o.Misses,
		Evictions:  s.Evictions + o.Evictions,
		Allocs:     s.Allocs + o.Allocs,
	}
}

// Sub returns s - o, the activity between two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		DiskReads:  s.DiskReads - o.DiskReads,
		DiskWrites: s.DiskWrites - o.DiskWrites,
		Hits:       s.Hits - o.Hits,
		Misses:     s.Misses - o.Misses,
		Evictions:  s.Evictions - o.Evictions,
		Allocs:     s.Allocs - o.Allocs,
	}
}

// statCounters is the store-global Stats as independent atomics, so
// every shard (and the latch-free eviction write-back path) can
// count without a shared lock while keeping each event counted
// exactly once.
type statCounters struct {
	diskReads  atomic.Int64
	diskWrites atomic.Int64
	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
	allocs     atomic.Int64
}

func (c *statCounters) snapshot() Stats {
	return Stats{
		DiskReads:  c.diskReads.Load(),
		DiskWrites: c.diskWrites.Load(),
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Evictions:  c.evictions.Load(),
		Allocs:     c.allocs.Load(),
	}
}

// Scope is a per-caller accounting handle over a Store. Every page
// operation issued through the handle tallies into the scope's own
// counters as well as the store-global ones, so a query's page costs
// are exact even while other queries run concurrently against the
// same store. (Diffing two snapshots of the global counters — the
// pre-scope convention — silently attributes every concurrent
// neighbour's I/O to the measuring query.)
//
// The invariant: a scope's counters are exactly the pages its handle
// touched. A page request is a Hit or a Miss for precisely one
// scope; a physical DiskRead is charged to the scope that issued it
// (concurrent requesters of an in-flight page record a Hit and wait,
// and a waiter whose load FAILS records nothing — the hit is
// reclassified away, because no page ever arrived); Evictions and
// DiskWrites are charged to the scope whose request forced them.
// Operations on the bare Store are unscoped: they count only
// globally.
//
// The counters are atomic, so a Scope may be shared by several
// goroutines.
type Scope struct {
	store *Store

	diskReads  atomic.Int64
	diskWrites atomic.Int64
	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
	allocs     atomic.Int64
}

// Scoped returns a fresh accounting scope over the store.
func (s *Store) Scoped() *Scope { return &Scope{store: s} }

// Store returns the underlying store.
func (sc *Scope) Store() *Store { return sc.store }

// Get is Store.Get with the activity attributed to the scope.
func (sc *Scope) Get(id PageID) (*Page, error) { return sc.store.get(id, sc, false) }

// GetScan is Store.GetScan with the activity attributed to the
// scope.
func (sc *Scope) GetScan(id PageID) (*Page, error) { return sc.store.get(id, sc, true) }

// Alloc is Store.Alloc with the activity attributed to the scope.
func (sc *Scope) Alloc(f FileID) (*Page, error) { return sc.store.alloc(f, sc, false) }

// AllocScan is Store.AllocScan with the activity attributed to the
// scope.
func (sc *Scope) AllocScan(f FileID) (*Page, error) { return sc.store.alloc(f, sc, true) }

// Stats returns a snapshot of the scope's counters.
func (sc *Scope) Stats() Stats {
	return Stats{
		DiskReads:  sc.diskReads.Load(),
		DiskWrites: sc.diskWrites.Load(),
		Hits:       sc.hits.Load(),
		Misses:     sc.misses.Load(),
		Evictions:  sc.evictions.Load(),
		Allocs:     sc.allocs.Load(),
	}
}

// Reset zeroes the scope's counters.
func (sc *Scope) Reset() {
	sc.diskReads.Store(0)
	sc.diskWrites.Store(0)
	sc.hits.Store(0)
	sc.misses.Store(0)
	sc.evictions.Store(0)
	sc.allocs.Store(0)
}

// Page is a pinned page in the buffer pool. The Data slice aliases
// pool memory and is valid until Release. Callers that modified Data
// must call MarkDirty before Release.
type Page struct {
	ID   PageID
	Data []byte

	frame *frame
	store *Store
}

// MarkDirty records that the page content changed and must reach
// disk before eviction or Flush.
func (p *Page) MarkDirty() { p.frame.dirty.Store(true) }

// Release unpins the page, returning it to eviction candidacy. The
// Page must not be used afterwards.
func (p *Page) Release() {
	p.store.unpin(p.frame)
	p.frame = nil
	p.Data = nil
}

// Store manages a directory of paged files behind one shared,
// sharded buffer pool.
type Store struct {
	dir      string
	capacity int

	// mu guards the file metadata: files, names, unlisted, sizes,
	// manifest. Frame state lives in the shards, each under its own
	// latch. The hot Get path takes only the read lock (a bounds check
	// and a handle fetch), so metadata never serializes readers. Lock
	// order: mu before any shard latch; eviction write-back holds
	// neither (frames capture their backing *os.File).
	mu    sync.RWMutex
	files []*os.File
	// closed is set by Close, under mu: every later page operation
	// fails with errClosed.
	closed bool
	names  map[string]FileID
	// unlisted holds the files Commit took out of the directory while
	// they were open: still readable through their FileID, listed by no
	// manifest, closed and unlinked by a later Commit's sweep.
	unlisted map[string]FileID
	sizes    []PageNum // logical pages per file (grows on Alloc)
	// diskSizes tracks each file's physical high-water mark: pages
	// known to exist on disk (present at open, or reached by a
	// write-back, which updates latch-free — hence atomic). A short
	// read below the mark is real corruption and fails loudly; at or
	// above it, the page was alloc'd this session and never written,
	// so its content is zeros by definition. Entries are stable
	// pointers because the slice only grows under mu.
	diskSizes []*atomic.Int64

	shards []*shard
	stats  statCounters

	// allocating counts Allocs that have bumped a file size under mu
	// but not yet inserted + dirtied their frame (or rolled back).
	// Flush/Close/DropCache drain it to zero before flushing, so the
	// manifest never records a page whose data is still only in the
	// allocating goroutine's hands. quiescing gates NEW allocs out
	// while a drain is in progress — the drain releases mu while it
	// waits (an in-flight alloc's rollback needs it), and without
	// the gate sustained alloc traffic could re-raise the counter
	// forever and starve the flush.
	// quiescing is a count, not a flag: overlapping drains (a Flush
	// racing a Close) must not re-open the gate for each other.
	allocating atomic.Int64
	quiescing  atomic.Int64

	// manifest is the persisted file directory (name → pages): loaded
	// by OpenExisting, rewritten by Flush/Commit/Close. Nil until the
	// store first persists. Guarded by mu.
	manifest map[string]PageNum
	// mutated is set by any write (file creation, page alloc, frame
	// write-back, a Commit that narrows the directory) and cleared
	// when the manifest is rewritten: read-only sessions never rewrite
	// the superblock. Atomic because eviction write-back sets it
	// outside every latch.
	mutated atomic.Bool
	// epoch is the store's persisted change counter: loaded from the
	// manifest by OpenExisting, advanced by every manifest rewrite
	// (writeManifestLocked). A fresh store starts at 0 and first
	// persists epoch 1. Read-only serving sessions never rewrite the
	// manifest, so the epoch is stable for the process lifetime —
	// exactly what statement caches key on.
	epoch atomic.Uint64
	// durableSeq is the highest WAL sequence number whose inserts have
	// been compacted into paged files; it commits atomically with the
	// manifest rewrite that covers those pages (see manifest.go).
	durableSeq atomic.Uint64
	// artifactGen is the current generation of rewritten artifacts
	// (catalog, sidecars, index structures, rebuilt clustered tables);
	// compaction stages generation g+1 under fresh names and the
	// manifest rename flips to it.
	artifactGen atomic.Uint64

	// readErrHook / writeErrHook let tests inject physical I/O
	// failures deterministically. Consulted before the real
	// ReadAt/WriteAt; must be set before any concurrent use.
	readErrHook  func(PageID) error
	writeErrHook func(PageID) error
}

// minShardPages is the smallest per-shard capacity worth splitting
// for; pools below 2×this stay single-sharded, which also preserves
// exact global LRU order for the small pools unit tests reason
// about.
const minShardPages = 128

// maxShards bounds the latch fan-out.
const maxShards = 16

func shardCountFor(pool int) int {
	n := 1
	for n < maxShards && pool >= 2*n*minShardPages {
		n *= 2
	}
	return n
}

// newStoreState assembles a Store with its shards; capacity is
// spread as evenly as possible (hash imbalance can make a shard
// evict while another has room — the price of independent latches —
// so per-shard capacity is a partition, not a copy, of the total).
func newStoreState(dir string, poolPages int, manifest map[string]PageNum) *Store {
	s := &Store{
		dir:      dir,
		capacity: poolPages,
		names:    make(map[string]FileID),
		unlisted: make(map[string]FileID),
		manifest: manifest,
	}
	n := shardCountFor(poolPages)
	base, extra := poolPages/n, poolPages%n
	for i := 0; i < n; i++ {
		c := base
		if i < extra {
			c++
		}
		s.shards = append(s.shards, newShard(s, c))
	}
	return s
}

// shardOf maps a page to its shard.
func (s *Store) shardOf(id PageID) *shard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	h := uint32(id.Num)*0x9e3779b1 ^ uint32(id.File)*0x85ebca77
	h ^= h >> 16
	return s.shards[h&uint32(len(s.shards)-1)]
}

// Open creates a Store rooted at dir (created if missing) with a
// buffer pool of poolPages frames. poolPages must be at least 1.
func Open(dir string, poolPages int) (*Store, error) {
	if poolPages < 1 {
		return nil, fmt.Errorf("pagestore: pool must hold at least 1 page, got %d", poolPages)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pagestore: create dir: %w", err)
	}
	return newStoreState(dir, poolPages, nil), nil
}

// CreateFile creates (or truncates) a paged file with the given name
// and returns its id. A file the store has open is an error.
func (s *Store) CreateFile(name string) (FileID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, open := s.names[name]
	_, unlisted := s.unlisted[name]
	if open || unlisted {
		return 0, fmt.Errorf("pagestore: file %q already open", name)
	}
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("pagestore: create %q: %w", name, err)
	}
	id := FileID(len(s.files))
	s.files = append(s.files, f)
	s.sizes = append(s.sizes, 0)
	s.diskSizes = append(s.diskSizes, &atomic.Int64{})
	s.names[name] = id
	s.mutated.Store(true)
	return id, nil
}

// OpenFile opens an existing paged file and returns its id and page
// count.
func (s *Store) OpenFile(name string) (FileID, PageNum, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, exists := s.names[name]; exists {
		return id, s.sizes[id], nil
	}
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_RDWR, 0o644)
	if err != nil {
		return 0, 0, fmt.Errorf("pagestore: open %q: %w", name, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, 0, fmt.Errorf("pagestore: stat %q: %w", name, err)
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return 0, 0, fmt.Errorf("pagestore: %q size %d is not page aligned", name, st.Size())
	}
	if want, listed := s.manifest[name]; listed && PageNum(st.Size()/PageSize) != want {
		f.Close()
		return 0, 0, fmt.Errorf("pagestore: %q has %d pages, manifest records %d: truncated or torn file",
			name, st.Size()/PageSize, want)
	}
	id := FileID(len(s.files))
	s.files = append(s.files, f)
	s.sizes = append(s.sizes, PageNum(st.Size()/PageSize))
	ds := &atomic.Int64{}
	ds.Store(st.Size() / PageSize)
	s.diskSizes = append(s.diskSizes, ds)
	s.names[name] = id
	return id, s.sizes[id], nil
}

// NumPages returns the number of pages in the file. An unknown
// FileID is an error, not a panic, matching Get.
func (s *Store) NumPages(f FileID) (PageNum, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, errClosed
	}
	if int(f) >= len(s.sizes) {
		return 0, fmt.Errorf("pagestore: unknown file %d", f)
	}
	return s.sizes[f], nil
}

// Alloc appends a zeroed page to the file and returns it pinned and
// dirty.
func (s *Store) Alloc(f FileID) (*Page, error) { return s.alloc(f, nil, false) }

// AllocScan is Alloc with the new frame marked scan-class: it parks
// on the probationary list, so bulk one-pass writes (index stream
// serialization) recycle a handful of frames instead of flushing the
// hot set.
func (s *Store) AllocScan(f FileID) (*Page, error) { return s.alloc(f, nil, true) }

func (s *Store) alloc(f FileID, sc *Scope, scan bool) (*Page, error) {
	s.mu.Lock()
	for s.quiescing.Load() != 0 {
		// A Flush/Close drain is waiting for in-flight allocs; hold
		// new ones at the door so the drain terminates.
		s.mu.Unlock()
		time.Sleep(100 * time.Microsecond)
		s.mu.Lock()
	}
	if s.closed {
		s.mu.Unlock()
		return nil, errClosed
	}
	if int(f) >= len(s.sizes) || s.files[f] == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("pagestore: unknown file %d", f)
	}
	num := s.sizes[f]
	s.sizes[f]++
	file := s.files[f]
	diskSize := s.diskSizes[f]
	// Both inside the latch, so a concurrent Flush can never observe
	// the size bump without the mutated flag that forces a manifest
	// rewrite, and never finishes its drain of in-flight allocs
	// (flushLocked) while this page's frame is yet to be inserted
	// and dirtied — the manifest must not record a page whose data
	// has not reached the pool.
	s.mutated.Store(true)
	s.allocating.Add(1)
	s.mu.Unlock()
	id := PageID{File: f, Num: num}
	sh := s.shardOf(id)

	sh.mu.Lock()
	var fr *frame
	for {
		got, fresh, err := sh.insertFrame(id, file, diskSize, sc, scan)
		if err != nil {
			sh.mu.Unlock()
			// Roll back the append — but only if nothing was appended
			// after it (concurrent allocs to one file during an
			// eviction failure are the caller's race to avoid). The
			// allocating count is held until the rollback lands, so a
			// concurrent Flush (whose drain releases s.mu while it
			// waits) can never persist the un-backed size bump.
			s.mu.Lock()
			if s.sizes[f] == num+1 {
				s.sizes[f]--
			}
			s.mu.Unlock()
			s.allocating.Add(-1)
			return nil, err
		}
		fr = got
		if fresh {
			break
		}
		// A racing Get faulted the (never-written) page in. Its read
		// zero-fills past physical EOF and succeeds, so the usual
		// outcome is a live zeroed frame we take over pinned (zeroing
		// it again below is a no-op); the loadErr branch covers a
		// racing read that failed for a real reason. Both channels
		// are snapshotted under the latch: once we hold the pin no
		// new load or write-back can start on this frame.
		sh.pin(fr)
		loading, writing := fr.loading, fr.writing
		sh.mu.Unlock()
		if loading != nil {
			<-loading
		}
		if fr.loadErr == nil {
			if writing != nil {
				<-writing // never zero a frame mid write-back
			}
			sh.mu.Lock()
			break
		}
		s.unpin(fr)
		sh.mu.Lock()
	}
	for i := range fr.data {
		fr.data[i] = 0
	}
	fr.dirty.Store(true)
	sh.mu.Unlock()
	// Only now — frame resident and dirty — may a concurrent Flush
	// proceed past its in-flight-alloc drain.
	s.allocating.Add(-1)
	s.stats.allocs.Add(1)
	if sc != nil {
		sc.allocs.Add(1)
	}
	return s.pageFromFrame(fr), nil
}

// Get returns the page pinned, reading it from disk on a pool miss.
//
// No latch is held for the duration of physical I/O: concurrent
// readers missing on different pages overlap their disk reads,
// readers missing on the same page wait on the frame's loading state
// and share the single read, and a reader requesting a page that an
// evictor is writing back waits on the writing state (the eviction
// then aborts — the page was re-referenced).
func (s *Store) Get(id PageID) (*Page, error) { return s.get(id, nil, false) }

// GetScan is Get with the access marked scan-class: a frame this
// access faults in parks on the probationary (evict-first) list, so
// one sequential scan of a large table cannot wipe the pool's hot
// set. A second access to the page — scan-class or not — promotes it
// to the protected list. Full-table scan paths and one-pass stream
// readers use this; index-driven point and range accesses use Get.
func (s *Store) GetScan(id PageID) (*Page, error) { return s.get(id, nil, true) }

func (s *Store) get(id PageID, sc *Scope, scan bool) (*Page, error) {
	s.mu.RLock()
	if int(id.File) >= len(s.files) {
		closed := s.closed
		s.mu.RUnlock()
		if closed {
			return nil, errClosed
		}
		return nil, fmt.Errorf("pagestore: unknown file %d", id.File)
	}
	if id.Num >= s.sizes[id.File] {
		n := s.sizes[id.File]
		s.mu.RUnlock()
		return nil, fmt.Errorf("pagestore: page %v beyond EOF (%d pages)", id, n)
	}
	file := s.files[id.File]
	diskSize := s.diskSizes[id.File]
	s.mu.RUnlock()

	sh := s.shardOf(id)
	sh.mu.Lock()
	fr, fresh, err := sh.insertFrame(id, file, diskSize, sc, scan)
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	if !fresh {
		// Resident — either found immediately, or faulted in by
		// another goroutine while an eviction released the shard
		// latch. Either way, for this request it is a pool hit.
		return s.finishHit(sh, fr, sc)
	}
	s.stats.misses.Add(1)
	if sc != nil {
		sc.misses.Add(1)
	}
	ch := make(chan struct{})
	fr.loading = ch
	sh.mu.Unlock()

	rerr := s.readPage(fr)

	sh.mu.Lock()
	fr.loading = nil
	if rerr != nil {
		// Frame is invalid; drop it from the pool. Waiters still pin
		// it, so unpin must not park it on the LRU lists. The Miss is
		// un-counted for the same reason finishHit un-counts a
		// waiter's Hit: no page arrived, so nothing may be counted.
		fr.loadErr = fmt.Errorf("pagestore: read %v: %w", id, rerr)
		fr.dead = true
		delete(sh.frames, id)
		s.stats.misses.Add(-1)
		if sc != nil {
			sc.misses.Add(-1)
		}
	} else {
		s.stats.diskReads.Add(1)
		if sc != nil {
			sc.diskReads.Add(1)
		}
	}
	sh.mu.Unlock()
	close(ch)
	if rerr != nil {
		err := fr.loadErr
		s.unpin(fr)
		return nil, err
	}
	return s.pageFromFrame(fr), nil
}

// finishHit completes a page request that found a resident frame:
// count the hit, promote the frame out of the probationary class
// (the LRU-2 "touched twice" rule), pin it, and wait out any
// in-flight load or eviction write-back. Called with sh.mu held;
// returns with it released.
//
// A waiter whose load fails un-counts its Hit: the invariant is that
// a scope's counters are exactly the pages its handle touched, and
// no page ever arrived for this request.
func (s *Store) finishHit(sh *shard, fr *frame, sc *Scope) (*Page, error) {
	s.stats.hits.Add(1)
	if sc != nil {
		sc.hits.Add(1)
	}
	fr.scan = false
	sh.pin(fr)
	loading, writing := fr.loading, fr.writing
	sh.mu.Unlock()
	if loading != nil {
		<-loading
		if fr.loadErr != nil {
			err := fr.loadErr
			s.stats.hits.Add(-1)
			if sc != nil {
				sc.hits.Add(-1)
			}
			s.unpin(fr)
			return nil, err
		}
	}
	if writing != nil {
		<-writing
	}
	return s.pageFromFrame(fr), nil
}

// readPage performs the physical read for a frame, outside every
// latch. A page at or above the file's physical high-water mark was
// allocated this session and never written back — its content is
// zeros by definition, so the short read zero-fills instead of
// erroring. A short read BELOW the mark means the file lost bytes
// it demonstrably had (external truncation, filesystem fault): that
// stays a loud error, never silent zeros.
func (s *Store) readPage(fr *frame) error {
	if hook := s.readErrHook; hook != nil {
		if err := hook(fr.id); err != nil {
			return err
		}
	}
	n, err := fr.file.ReadAt(fr.data[:], int64(fr.id.Num)*PageSize)
	if err == io.EOF && int64(fr.id.Num) >= fr.diskSize.Load() {
		for i := n; i < len(fr.data); i++ {
			fr.data[i] = 0
		}
		return nil
	}
	return err
}

// writePage performs the physical write for a frame and counts it,
// attributed to sc. Callers clear fr.dirty under the shard latch on
// success. Safe to call with or without the shard latch held: it
// touches no shard state.
func (s *Store) writePage(fr *frame, sc *Scope) error {
	if hook := s.writeErrHook; hook != nil {
		if err := hook(fr.id); err != nil {
			return fmt.Errorf("pagestore: write %v: %w", fr.id, err)
		}
	}
	if _, err := fr.file.WriteAt(fr.data[:], int64(fr.id.Num)*PageSize); err != nil {
		return fmt.Errorf("pagestore: write %v: %w", fr.id, err)
	}
	// Raise the file's physical high-water mark (CAS-max: write-backs
	// race each other latch-free).
	for {
		cur := fr.diskSize.Load()
		if want := int64(fr.id.Num) + 1; cur >= want || fr.diskSize.CompareAndSwap(cur, want) {
			break
		}
	}
	s.stats.diskWrites.Add(1)
	s.mutated.Store(true)
	if sc != nil {
		sc.diskWrites.Add(1)
	}
	return nil
}

// pageFromFrame wraps an already-pinned frame.
func (s *Store) pageFromFrame(fr *frame) *Page {
	return &Page{ID: fr.id, Data: fr.data[:], frame: fr, store: s}
}

// unpin decrements the pin count and parks fully-unpinned frames on
// their replacement list.
func (s *Store) unpin(fr *frame) {
	sh := s.shardOf(fr.id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if fr.pins <= 0 {
		panic("pagestore: unpin of unpinned page " + fr.id.String())
	}
	fr.pins--
	if fr.pins == 0 && !fr.dead {
		sh.park(fr)
	}
}

// Flush writes every dirty frame to disk without evicting anything
// (waiting out in-flight eviction write-backs), then rewrites the
// manifest superblock so the on-disk state is self-describing and
// reopenable. A page alloc'd concurrently can never be recorded by
// the manifest without its data having been flushed (the manifest
// would describe a file the flush never wrote, which OpenExisting
// rejects as torn): the quiescing gate holds new allocs at the door
// while drainAllocsLocked waits out in-flight ones — releasing s.mu
// during the wait, so other metadata ops can run then — after which
// s.mu is held continuously through flush and manifest.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	s.drainAllocsLocked()
	for _, sh := range s.shards {
		if err := sh.flushDirty(); err != nil {
			return err
		}
	}
	return s.writeManifestLocked()
}

// Commit is Flush with the directory narrowed to named, followed by a
// sweep. Every file the store has open or its manifest lists that
// named leaves out is taken out of the directory first, so the
// manifest renamed in lists exactly named; naming a file the directory
// does not hold is an error, and commits nothing. Only after the
// rename, the sweep closes and unlinks every file outside the directory
// that doomed accepts: one taken out now or by an earlier Commit, or
// debris on disk the store never opened, never the manifest or the
// WAL. A taken-out file doomed rejects, or with a page still pinned,
// stays open and readable through its FileID; a later Commit retries
// it. An unlink that fails is left for the same retry: the manifest no
// longer names the file.
func (s *Store) Commit(named []string, doomed func(name string) bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	keep := make(map[string]bool, len(named))
	for _, n := range named {
		_, open := s.names[n]
		if _, listed := s.manifest[n]; !open && !listed {
			return fmt.Errorf("pagestore: commit names %q, which the store does not hold", n)
		}
		keep[n] = true
	}
	for n, id := range s.names {
		if !keep[n] {
			delete(s.names, n)
			s.unlisted[n] = id
			s.mutated.Store(true)
		}
	}
	for n := range s.manifest {
		if !keep[n] {
			delete(s.manifest, n)
			s.mutated.Store(true)
		}
	}
	if err := s.flushLocked(); err != nil {
		return err
	}
	for n, id := range s.unlisted {
		if doomed(n) && s.dropFramesLocked(id) {
			s.files[id].Close() // read and written only through the pool, whose frames are gone
			s.files[id] = nil
			s.sizes[id] = 0
			delete(s.unlisted, n)
			os.Remove(filepath.Join(s.dir, n))
		}
	}
	if entries, err := os.ReadDir(s.dir); err == nil {
		for _, e := range entries {
			n := e.Name()
			_, open := s.names[n]
			_, unlisted := s.unlisted[n]
			own := n == ManifestName || n == WALName || keep[n] || open || unlisted
			if e.Type().IsRegular() && !own && doomed(n) {
				os.Remove(filepath.Join(s.dir, n))
			}
		}
	}
	return nil
}

// dropFramesLocked drops file f's resident frames from the pool and
// reports whether it could: it refuses at a frame that is pinned or
// being written back. Each shard is checked and dropped under one latch
// hold, so a frame is never pinned between its check and its removal.
// Caller holds s.mu.
func (s *Store) dropFramesLocked(f FileID) bool {
	for _, sh := range s.shards {
		sh.mu.Lock()
		for id, fr := range sh.frames {
			if id.File == f && (fr.pins > 0 || fr.writing != nil) {
				sh.mu.Unlock()
				return false
			}
		}
		for id, fr := range sh.frames {
			if id.File == f {
				sh.unpark(fr)
				delete(sh.frames, id)
			}
		}
		sh.mu.Unlock()
	}
	return true
}

// drainAllocsLocked waits until every in-flight Alloc has either
// inserted and dirtied its frame or rolled its size bump back. The
// 100µs sleep-poll (here and in alloc's gate) is deliberate: a
// condition variable would save a handful of wakeups on a path that
// runs only at persist points, at the cost of signal plumbing on
// every alloc.
// Called and returning with s.mu held, but the latch is released
// while waiting so an alloc's error-path rollback (which needs
// s.mu) can complete. Once the counter reads zero with the latch
// held, no alloc is mid-flight and none can start until the caller
// releases it.
func (s *Store) drainAllocsLocked() {
	s.quiescing.Add(1)
	for s.allocating.Load() != 0 {
		s.mu.Unlock()
		// An in-flight alloc may be waiting on eviction disk I/O;
		// sleep rather than hot-spin through that window.
		time.Sleep(100 * time.Microsecond)
		s.mu.Lock()
	}
	s.quiescing.Add(-1)
}

// DropCache flushes and then discards every unpinned frame. Tests
// and benchmarks use it to measure cold-cache behaviour
// deterministically. Allocs are drained and gated out like Flush,
// and dropUnpinned itself re-flushes any frame a surviving pin
// holder dirtied after the flush pass, so a concurrent write is
// never lost.
func (s *Store) DropCache() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainAllocsLocked()
	for _, sh := range s.shards {
		if err := sh.flushDirty(); err != nil {
			return err
		}
		if err := sh.dropUnpinned(); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns a snapshot of the cumulative counters. The counters
// are independent atomics: each event is counted exactly once (the
// exactness every test diffs on), but a snapshot taken mid-traffic
// is not a single point in time across counters — e.g. a burst may
// land between the Hits and Misses loads. Snapshot at quiescent
// points, or diff pairs of snapshots around the work being measured,
// as every caller in this repository does.
func (s *Store) Stats() Stats { return s.stats.snapshot() }

// PoolSize returns the number of frames currently resident.
func (s *Store) PoolSize() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.frames)
		sh.mu.Unlock()
	}
	return n
}

// NumShards reports the pool's latch fan-out (1 for small pools).
func (s *Store) NumShards() int { return len(s.shards) }

// Epoch returns the store's change counter: the epoch loaded from
// the manifest (or 0 for a fresh store), plus one per manifest
// rewrite since. Two equal epochs over the same directory mean the
// persisted data is byte-identical; caches key entries on it to
// invalidate wholesale across Persist/reopen/rebuild.
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// DurableSeq returns the highest WAL sequence the manifest records as
// compacted into paged files. Recovery replays only records above it.
func (s *Store) DurableSeq() uint64 { return s.durableSeq.Load() }

// SetDurableSeq stages a new durable sequence for the next manifest
// rewrite. Call it after the pages holding those inserts are written
// and before Flush: the sequence and the page counts covering it then
// commit in one atomic manifest rename.
func (s *Store) SetDurableSeq(seq uint64) {
	s.durableSeq.Store(seq)
	s.mutated.Store(true)
}

// ArtifactGen returns the current artifact generation recorded by the
// manifest.
func (s *Store) ArtifactGen() uint64 { return s.artifactGen.Load() }

// SetArtifactGen stages a new artifact generation for the next
// manifest rewrite, committing a staged set of "name@gen" artifacts.
func (s *Store) SetArtifactGen(g uint64) {
	s.artifactGen.Store(g)
	s.mutated.Store(true)
}

// PinnedPages counts the frames currently pinned by some caller. At
// any quiescent point — no query in flight, every cursor closed — it
// must read zero; leak tests assert exactly that around every error,
// shed and cancellation path.
func (s *Store) PinnedPages() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, fr := range sh.frames {
			if fr.pins > 0 {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// errClosed is what Get, Alloc and NumPages answer once the store is
// closed: a cursor still open on it stops with this error instead of
// reading through a released file.
var errClosed = errors.New("pagestore: store closed")

// Close flushes every dirty frame, rewrites the manifest superblock,
// and closes every file, with the store latch held across flush and
// manifest like Flush. Every page operation afterwards fails with
// errClosed.
func (s *Store) Close() error {
	var firstErr error
	s.mu.Lock()
	s.drainAllocsLocked()
	for _, sh := range s.shards {
		if err := sh.flushDirty(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// Never install a manifest over a failed flush: stranded dirty
	// pages behind a clean-validating superblock would be served
	// silently stale on reopen. Leaving the old manifest makes the
	// next OpenExisting fail loudly on the size mismatch instead.
	if firstErr == nil {
		if err := s.writeManifestLocked(); err != nil {
			firstErr = err
		}
	}
	for _, f := range s.files {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.files, s.closed = nil, true
	s.mu.Unlock()
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.frames = make(map[PageID]*frame)
		sh.old.Init()
		sh.young.Init()
		sh.mu.Unlock()
	}
	return firstErr
}
