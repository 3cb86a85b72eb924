package pagestore

import (
	"container/list"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// frame is a buffer pool slot. A frame is always in exactly one of
// these states, guarded by its shard's latch:
//
//	pinned    pins > 0, off both LRU lists; never evicted.
//	parked    pins == 0, on the shard's old or young list; evictable.
//	loading   pins > 0 and loading non-nil: content is being read
//	          from disk outside the latch. Concurrent Gets pin the
//	          frame and wait on the channel instead of re-reading.
//	writing   pins == 0 and writing non-nil: dirty content is being
//	          written back by an evictor outside the latch.
//	          Concurrent Gets pin the frame and wait on the channel;
//	          the evictor aborts the eviction if the frame was
//	          re-pinned while it wrote.
//	dead      a frame whose load failed: removed from the frame map,
//	          never parked; it disappears once its waiters unpin.
type frame struct {
	id PageID
	// file is the backing OS file and diskSize its physical
	// high-water mark, captured at insertion so eviction write-back
	// and load I/O need no store-level metadata lock.
	file     *os.File
	diskSize *atomic.Int64
	data     [PageSize]byte
	pins     int
	// dirty is atomic because MarkDirty is called by pin-holders
	// without the shard latch (and two holders of one page may mark
	// concurrently). Eviction write-back orders its clean transition
	// before any new holder can mark (the writing channel); the
	// Flush/Close/DropCache paths instead rely on their contract of
	// running at quiescent points — a writer mutating a pinned page
	// during a flush can be torn on disk and lose its dirty bit,
	// exactly as under the pre-shard single latch.
	dirty atomic.Bool
	// scan marks a probationary frame faulted in by a scan-class
	// access: it parks on the shard's old list (first to evict) until
	// a second access promotes it. See shard.park.
	scan bool

	// lruElem/lruList are non-nil exactly while the frame is parked.
	lruElem *list.Element
	lruList *list.List

	// loading is non-nil while the frame's content is being read from
	// disk; closed once the read completes. loadErr is valid after it
	// closes.
	loading chan struct{}
	loadErr error
	// writing is non-nil while an evictor writes the frame back;
	// closed once the write completes.
	writing chan struct{}
	dead    bool
}

// shard is one partition of the buffer pool: a frame map and a
// scan-resistant two-segment LRU under its own latch. Pages hash to
// shards by PageID, so concurrent queries touching different pages
// contend only when they land on the same shard.
//
// Replacement policy (scan resistance): parked frames live on one of
// two lists. Frames faulted in by normal accesses park on the young
// list (back = most recent); frames faulted in by scan-class
// accesses park on the old list. Eviction takes the front of old
// first, young only when old is empty, so a sequential scan streams
// through a handful of old-list frames and cannot wipe the young
// (hot) set. Any second access to a resident frame promotes it to
// young — the LRU-2 "touched twice = hot" rule — so a page a scan
// shares with the hot set keeps its protected status.
type shard struct {
	store    *Store
	capacity int

	// All fields below are guarded by mu. evictOne releases mu for
	// the duration of a dirty victim's write-back (the frame is
	// findable in the map the whole time, in the writing state).
	// Lock order: Store.mu (file metadata) may be held while taking
	// shard.mu; the reverse never happens.
	mu     sync.Mutex
	frames map[PageID]*frame
	young  *list.List // re-referenced / normal-class frames; front = LRU
	old    *list.List // probationary scan-class frames; front = next victim
}

func newShard(s *Store, capacity int) *shard {
	return &shard{
		store:    s,
		capacity: capacity,
		frames:   make(map[PageID]*frame),
		young:    list.New(),
		old:      list.New(),
	}
}

// park puts an unpinned frame on its class's list. Caller holds mu.
func (sh *shard) park(fr *frame) {
	l := sh.young
	if fr.scan {
		l = sh.old
	}
	fr.lruList = l
	fr.lruElem = l.PushBack(fr)
}

// unpark removes the frame from whichever list holds it, if any.
// Caller holds mu.
func (sh *shard) unpark(fr *frame) {
	if fr.lruElem != nil {
		fr.lruList.Remove(fr.lruElem)
		fr.lruElem, fr.lruList = nil, nil
	}
}

// pin increments the pin count, unparking the frame if needed.
// Caller holds mu.
func (sh *shard) pin(fr *frame) {
	sh.unpark(fr)
	fr.pins++
}

// victim returns the next replacement victim without removing it:
// front of the old (probationary) list, else front of young. Nil if
// every frame is pinned or mid-write. Caller holds mu.
func (sh *shard) victim() *frame {
	if el := sh.old.Front(); el != nil {
		return el.Value.(*frame)
	}
	if el := sh.young.Front(); el != nil {
		return el.Value.(*frame)
	}
	return nil
}

// evictOne frees one frame slot. Caller holds mu; for a dirty victim
// the latch is released for the duration of the physical write and
// reacquired, with the frame left findable in the map in the writing
// state so concurrent Gets wait on it instead of re-reading a page
// whose only up-to-date copy is in memory.
//
// Failure handling: if the write-back fails, the victim is parked
// back on its LRU list — still dirty, still resident, still
// evictable — and the error is returned to the access that forced
// the eviction. (Dropping it from the lists but not the map, the old
// bug, made the frame permanently unevictable and silently shrank
// the pool.) If the victim is re-pinned while its write is in
// flight, the eviction aborts — the write still happened, the frame
// is simply clean now — and the next victim is tried.
func (sh *shard) evictOne(sc *Scope) error {
	for {
		if len(sh.frames) < sh.capacity {
			// Another evictor freed a slot while we waited: done.
			return nil
		}
		fr := sh.victim()
		if fr == nil {
			// No parked frame — but a concurrent eviction's write-back
			// (its victim is off the lists in the writing state) will
			// free or re-park a frame momentarily. Wait for it instead
			// of failing a query that would have simply blocked under
			// the old latch-held eviction.
			var wait chan struct{}
			for _, f := range sh.frames {
				if f.writing != nil {
					wait = f.writing
					break
				}
			}
			if wait == nil {
				// Genuinely all pinned (including, possibly, a victim
				// whose eviction a re-pin just aborted). Erroring here
				// matches the pre-shard semantics: with the latch held
				// across eviction, the same instant handed the error
				// to whichever requester missed next. Blocking instead
				// would deadlock a caller that pins more pages than
				// the pool holds.
				if len(sh.store.shards) == 1 {
					return fmt.Errorf("pagestore: buffer pool exhausted (%d pages, all pinned)", sh.store.capacity)
				}
				return fmt.Errorf("pagestore: buffer pool exhausted (shard of %d pages all pinned; pool %d pages across %d shards)",
					sh.capacity, sh.store.capacity, len(sh.store.shards))
			}
			sh.mu.Unlock()
			<-wait
			sh.mu.Lock()
			continue
		}
		sh.unpark(fr)
		if fr.dirty.Load() {
			ch := make(chan struct{})
			fr.writing = ch
			sh.mu.Unlock()
			werr := sh.store.writePage(fr, sc)
			sh.mu.Lock()
			fr.writing = nil
			if werr == nil {
				fr.dirty.Store(false)
			}
			close(ch)
			if werr != nil {
				if fr.pins == 0 && !fr.dead {
					sh.park(fr)
				}
				return werr
			}
			if fr.pins > 0 {
				// Re-referenced during the write-back: no longer
				// evictable. Its new holder parks it on unpin.
				continue
			}
		}
		// The frame cannot be parked here: for a clean victim the
		// latch was held continuously since unpark; for a dirty one,
		// a waiter's unpin needs this latch, which we have held since
		// observing pins == 0.
		delete(sh.frames, fr.id)
		sh.store.stats.evictions.Add(1)
		if sc != nil {
			sc.evictions.Add(1)
		}
		return nil
	}
}

// insertFrame returns a frame mapped to id: the resident one (fresh
// == false — the caller must treat the access as a pool hit), or a
// freshly inserted pinned frame with undefined content (fresh ==
// true), evicting to make room. Caller holds mu; evictions of dirty
// frames release it temporarily, which is why the map is rechecked
// each round. Evictions and the writes they force are attributed to
// sc; scan sets the new frame's replacement class.
func (sh *shard) insertFrame(id PageID, file *os.File, diskSize *atomic.Int64, sc *Scope, scan bool) (fr *frame, fresh bool, err error) {
	for {
		if fr, ok := sh.frames[id]; ok {
			return fr, false, nil
		}
		if len(sh.frames) < sh.capacity {
			break
		}
		if err := sh.evictOne(sc); err != nil {
			return nil, false, err
		}
	}
	fr = &frame{id: id, file: file, diskSize: diskSize, pins: 1, scan: scan}
	sh.frames[id] = fr
	return fr, true, nil
}

// flushDirty writes every dirty frame in the shard, first waiting
// out any eviction write-backs in flight so the shard is quiescent
// when the caller proceeds (e.g. to write the manifest).
func (sh *shard) flushDirty() error {
	for {
		sh.mu.Lock()
		var waits []chan struct{}
		for _, fr := range sh.frames {
			if fr.writing != nil {
				waits = append(waits, fr.writing)
			}
		}
		if len(waits) > 0 {
			sh.mu.Unlock()
			for _, ch := range waits {
				<-ch
			}
			continue
		}
		for _, fr := range sh.frames {
			if fr.dirty.Load() && fr.loading == nil {
				if err := sh.store.writePage(fr, nil); err != nil {
					sh.mu.Unlock()
					return err
				}
				fr.dirty.Store(false)
			}
		}
		sh.mu.Unlock()
		return nil
	}
}

// dropUnpinned discards every parked frame (both lists). A frame
// that went dirty after the caller's flush pass — a pin holder that
// predated the drop can MarkDirty+Release without any store latch —
// is written back before being dropped, so DropCache can never lose
// a write.
func (sh *shard) dropUnpinned() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, l := range []*list.List{sh.old, sh.young} {
		for el := l.Front(); el != nil; {
			next := el.Next()
			fr := el.Value.(*frame)
			if fr.dirty.Load() {
				if err := sh.store.writePage(fr, nil); err != nil {
					return err
				}
			}
			sh.unpark(fr)
			fr.dirty.Store(false)
			delete(sh.frames, fr.id)
			el = next
		}
	}
	return nil
}
