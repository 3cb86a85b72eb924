package pagestore

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// checkReplacementLists walks every pool shard under its latch and
// checks the frame-state invariant the replacement policy rests on: a
// resident frame is on a replacement list — the one its class names,
// found where it says — iff it is unpinned and not being written back.
// It also checks the lists hold nothing else, and returns the pinned
// frame count.
func checkReplacementLists(t *testing.T, s *Store, when string) (pinned int) {
	t.Helper()
	for i, sh := range s.shards {
		sh.mu.Lock()
		parked := 0
		for _, fr := range sh.frames {
			if fr.pins > 0 {
				pinned++
			}
			evictable := fr.pins == 0 && fr.writing == nil
			switch {
			case (fr.lruElem != nil) != evictable:
				t.Errorf("%s: shard %d page %v: pins %d, writing %v, on a list %v",
					when, i, fr.id, fr.pins, fr.writing != nil, fr.lruElem != nil)
			case fr.lruElem != nil:
				parked++
				if fr.lruElem.Value != fr || (fr.lruList != sh.old && fr.lruList != sh.young) {
					t.Errorf("%s: shard %d page %v: list element does not point back at its frame", when, i, fr.id)
				}
			}
		}
		if n := sh.old.Len() + sh.young.Len(); n != parked {
			t.Errorf("%s: shard %d: %d frames on the lists, %d resident frames parked", when, i, n, parked)
		}
		sh.mu.Unlock()
	}
	return pinned
}

// TestReplacementListsUnderChurn churns a small pool from several
// goroutines — pins held across other accesses, pages dirtied, dirty
// victims written back by eviction, flushes, cache drops, a commit that
// unlinks a file — and checks at every quiescent point that exactly the
// unpinned frames are on the replacement lists and that PinnedPages
// counts exactly the pins the test holds. Run under -race.
func TestReplacementListsUnderChurn(t *testing.T) {
	for _, pool := range []int{8, 512} { // one pool shard, and several
		s := newStore(t, pool)
		hot, err := s.CreateFile("hot.dat")
		if err != nil {
			t.Fatal(err)
		}
		scratch, err := s.CreateFile("scratch.dat")
		if err != nil {
			t.Fatal(err)
		}
		pages := 4 * pool
		for i := 0; i < pages; i++ {
			for _, f := range []FileID{hot, scratch} {
				p, err := s.Alloc(f)
				if err != nil {
					t.Fatal(err)
				}
				p.MarkDirty()
				p.Release()
			}
		}
		var held []*Page // the pins the test holds at a quiescent point
		check := func(when string) {
			t.Helper()
			when = fmt.Sprintf("pool %d, %s", pool, when)
			walked := checkReplacementLists(t, s, when)
			if got := s.PinnedPages(); got != len(held) || walked != len(held) {
				t.Fatalf("%s: PinnedPages %d, walked %d, test holds %d", when, got, walked, len(held))
			}
		}
		check("after load")

		for round := 0; round < 6; round++ {
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(round*10 + w)))
					var held []*Page
					for op := 0; op < 400; op++ {
						get := s.Get
						if rng.Intn(3) == 0 {
							get = s.GetScan
						}
						p, err := get(PageID{File: hot, Num: PageNum(rng.Intn(pages))})
						if err != nil {
							continue // the shard's frames are all pinned: expected on the small pool
						}
						if rng.Intn(2) == 0 {
							p.Data[w]++ // a byte of its own: workers share pages
							p.MarkDirty()
						}
						if len(held) < 2 && rng.Intn(4) == 0 {
							held = append(held, p) // keep the pin across later accesses
							continue
						}
						p.Release()
						if len(held) > 0 && rng.Intn(3) == 0 {
							held[0].Release()
							held = held[1:]
						}
					}
					for _, p := range held {
						p.Release()
					}
				}(w)
			}
			wg.Wait()
			check("after churn")

			// Hold pins, some dirtied, across the quiescent-point operations.
			for i := 0; i < 3; i++ {
				p, err := s.Get(PageID{File: hot, Num: PageNum(i)})
				if err != nil {
					t.Fatal(err)
				}
				if i > 0 {
					p.MarkDirty()
				}
				held = append(held, p)
			}
			check("with pins held")
			switch round % 3 {
			case 0:
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				check("after flush")
			case 1:
				if err := s.DropCache(); err != nil {
					t.Fatal(err)
				}
				check("after drop")
			case 2:
				// Commit without the scratch file, whose resident frames
				// (dirty ones among them) the commit then drops; the next
				// such round drops a fresh one.
				if err := s.Commit([]string{"hot.dat"}, func(string) bool { return true }); err != nil {
					t.Fatal(err)
				}
				check("after commit")
				name := fmt.Sprintf("scratch-%d.dat", round)
				if scratch, err = s.CreateFile(name); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < pool; i++ {
					p, err := s.Alloc(scratch)
					if err != nil {
						t.Fatal(err)
					}
					p.MarkDirty()
					p.Release()
				}
				check("after refill")
			}
			for _, p := range held {
				p.Release()
			}
			held = held[:0]
			check("after release")
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		check("after the final flush")
	}
}
