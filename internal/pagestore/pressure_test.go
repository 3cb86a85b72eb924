package pagestore

import (
	"math/rand"
	"sync"
	"testing"
)

// walkedPressure is the reading PressurePages used to take: every frame
// of every pool shard under its latch, counting the pinned and the
// dirty.
func walkedPressure(s *Store) int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, fr := range sh.frames {
			if fr.pins > 0 || fr.dirty.Load() {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// TestPressurePagesMatchesWalk churns a small pool from several
// goroutines — pins held across other accesses, pages dirtied, dirty
// victims written back by eviction, flushes, cache drops, a truncate —
// and checks, whenever the workers are quiescent, that the maintained
// pressure reading equals the walked one. Run under -race.
func TestPressurePagesMatchesWalk(t *testing.T) {
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
		check := func(when string) {
			t.Helper()
			if got, want := s.PressurePages(), walkedPressure(s); got != want {
				t.Fatalf("pool %d, %s: PressurePages %d, walked %d (pinned %d)", pool, when, got, want, s.PinnedPages())
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
			if s.PinnedPages() != 0 {
				t.Fatalf("pool %d: %d pages still pinned", pool, s.PinnedPages())
			}

			// Hold pins, some dirtied, across the quiescent-point operations.
			var held []*Page
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
				if err := s.TruncateFile(scratch); err != nil {
					t.Fatal(err)
				}
				check("after truncate")
			}
			for _, p := range held {
				p.Release()
			}
			check("after release")
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := s.PressurePages(); got != 0 || walkedPressure(s) != 0 {
			t.Fatalf("pool %d: pressure %d (walked %d) on a flushed, unpinned pool", pool, got, walkedPressure(s))
		}
	}
}
