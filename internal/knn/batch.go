package knn

import (
	"sort"

	"repro/internal/vec"
)

// SearchBatch answers many kNN queries on the caller's goroutine and
// returns, in input order, each query's neighbours and scope-exact
// Stats — results are identical to calling Search per query.
//
// Two batch-level optimizations make it faster than a loop over
// Search:
//
//   - one reusable scratch: the visited set (generation-stamped, no
//     per-query NumLeaves allocation) and both heaps are shared across
//     the batch's queries;
//   - seed-leaf locality ordering: queries run in the order of the
//     leaf their point routes to, so consecutive queries grow regions
//     over neighbouring kd-cells and hit pages the previous query just
//     pulled into the buffer pool, instead of striding randomly across
//     the file.
//
// Per-query page Stats are exact under concurrent batches because
// every query runs under its own pagestore.Scope.
func (s *Searcher) SearchBatch(queries []vec.Point, k int) ([][]Neighbor, []Stats, error) {
	results := make([][]Neighbor, len(queries))
	stats := make([]Stats, len(queries))
	err := s.SearchBatchFunc(queries, k, func(i int, nbs []Neighbor, st Stats) error {
		results[i], stats[i] = nbs, st
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if len(queries) == 0 {
		return nil, nil, nil
	}
	return results, stats, nil
}

// SearchBatchFunc is SearchBatch's streaming form: fn is invoked
// once per query, in seed-leaf order, with the query's input index,
// its neighbours and its scope-exact Stats. Consumers that reduce each
// result on the spot (a photo-z batch fits each set and discards it)
// hold only one neighbour set at a time instead of the whole batch's.
// fn returning an error stops the remaining work.
func (s *Searcher) SearchBatchFunc(queries []vec.Point, k int, fn func(i int, nbs []Neighbor, st Stats) error) error {
	for _, p := range queries {
		if err := s.validate(p, k); err != nil {
			return err
		}
	}
	n := len(queries)
	if n == 0 {
		return nil
	}

	// Order query indices by seed leaf (ties by input position). The
	// routing is reused by the searches themselves, so the ordering
	// pass costs no extra descents.
	seeds := make([]int, n)
	for i, p := range queries {
		seeds[i] = s.seedLeaf(p)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if seeds[order[a]] != seeds[order[b]] {
			return seeds[order[a]] < seeds[order[b]]
		}
		return order[a] < order[b]
	})

	scr := newScratch(s.Tree.NumLeaves(), s.Tree.Dim)
	for _, qi := range order {
		r, st, err := s.searchScoped(queries[qi], k, seeds[qi], scr)
		if err != nil {
			return err
		}
		if err := fn(qi, r, st); err != nil {
			return err
		}
	}
	return nil
}
