package shard

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestForChunksCoversAllItems(t *testing.T) {
	for _, n := range []int{1, 3, 57, maxKNNVisits, 100} {
		hit := make([]atomic.Int32, n)
		err := forChunks(n, func(lo, hi int, stopped func() bool) error {
			for i := lo; i < hi; i++ {
				hit[i].Add(1)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range hit {
			if hit[i].Load() != 1 {
				t.Fatalf("n=%d: item %d visited %d times", n, i, hit[i].Load())
			}
		}
	}
}

func TestForChunksFirstErrorStopsWork(t *testing.T) {
	boom := errors.New("boom")
	err := forChunks(1000, func(lo, hi int, stopped func() bool) error {
		for i := lo; i < hi; i++ {
			if stopped() {
				return nil
			}
			if i == lo { // every chunk fails immediately
				return boom
			}
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestForChunksEmpty(t *testing.T) {
	called := false
	if err := forChunks(0, func(lo, hi int, stopped func() bool) error {
		called = true
		return nil
	}); err != nil || called {
		t.Errorf("n=0: err=%v called=%v", err, called)
	}
}
