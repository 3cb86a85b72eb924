package planner

// Executor is the concurrent query executor: candidate row ranges —
// the index scan's ranges or the full scan — are chunked across a
// fixed worker pool and streamed back in range order (Stream, in
// stream.go), so a parallel scan yields exactly the rows, in exactly
// the physical order, of the serial per-index implementations
// (kdtree.Tree.QueryPolyhedron, engine.FullScanPolyhedron). The zero
// value (and a nil *Executor) executes serially.
//
// Every query runs under its own pagestore accounting scope shared
// by all its workers, so per-query Pages stats are exact even when
// several queries run concurrently against the same store.
type Executor struct {
	// Workers is the pool size; values below 2 mean serial execution.
	Workers int
}

func (e *Executor) workers() int {
	if e == nil || e.Workers < 1 {
		return 1
	}
	return e.Workers
}
