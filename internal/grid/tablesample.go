package grid

import (
	"time"

	"repro/internal/table"
	"repro/internal/vec"
)

// TableSample reproduces the baseline the paper first tried (§3.1):
// SQL Server's TABLESAMPLE picks approximately percent% of the
// *pages* of the table, runs the box filter over the sampled pages,
// and a TOP(n) clause cuts the result at n rows. The box q bounds the
// leading q.Dim() magnitude axes, as a grid's query box does.
//
// The paper abandoned it for exactly the failure modes this
// implementation exhibits:
//
//   - percent must be tuned per query: too low under-samples (fewer
//     than n points come back), too high reads far more pages than
//     needed;
//   - TOP(n) truncates in page order, so when the sample over-shoots,
//     the returned set is biased toward the physical start of the
//     table instead of following the spatial distribution.
//
// The page-level sampling is driven by a deterministic linear
// congruential hash of the page number so benchmarks are repeatable.
func TableSample(tb *table.Table, q vec.Box, n int, percent float64, seed int64) ([]table.Record, SampleStats, error) {
	start := time.Now()
	before := tb.Store().Stats()
	var out []table.Record
	var stats SampleStats

	pages := tb.NumPages()
	threshold := uint64(percent / 100 * (1 << 32))
	for pg := 0; pg < pages && len(out) < n; pg++ {
		if pageHash(uint64(pg), uint64(seed)) > threshold {
			continue
		}
		lo := table.RowID(pg * table.RecordsPerPage)
		hi := lo + table.RecordsPerPage
		err := tb.ScanRange(lo, hi, func(id table.RowID, r *table.Record) bool {
			stats.RowsExamined++
			m := mags(r)
			if q.Contains(m[:q.Dim()]) {
				out = append(out, *r)
			}
			return len(out) < n // TOP(n): stop as soon as n rows accumulated
		})
		if err != nil {
			return nil, stats, err
		}
	}

	stats.Returned = len(out)
	stats.Pages = tb.Store().Stats().Sub(before)
	stats.Duration = time.Since(start)
	return out, stats, nil
}

// pageHash maps (page, seed) to a uniform 32-bit value using a
// SplitMix64-style mix, giving a repeatable pseudo-random page
// sample.
func pageHash(pg, seed uint64) uint64 {
	x := pg*0x9E3779B97F4A7C15 + seed
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x & 0xFFFFFFFF
}
