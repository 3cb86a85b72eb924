package main

import (
	"math"
	"regexp"
	"testing"
	"time"

	"repro/internal/sky"
)

// smoke runs one workload at test scale: a 5 000-row catalog, 50
// verified ops and a fraction of a second of load.
func smoke(t *testing.T, workload string, traced bool) *result {
	t.Helper()
	res, err := runWorkload(options{
		workload: workload, seed: 7, seconds: 0.3, traced: traced, rows: 5000, root: t.TempDir(),
		warmup: 50 * time.Millisecond, verify: 50,
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if res.failed != 0 {
		t.Errorf("%s: %d of %d ops failed: %v", workload, res.failed, res.attempted, res.failures)
	}
	return res
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestEveryMetricEmitted checks BENCHMARK.json against the program:
// every workload emits every end-to-end metric from an untraced run
// and every per-layer metric from a traced one, each with the declared
// unit and a finite value, and nothing else.
func TestEveryMetricEmitted(t *testing.T) {
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloadNames))
	}
	hashes := map[string][]uint64{}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
		untraced := smoke(t, w.Name, false)
		hashes[w.Name] = untraced.hashes
		want := map[string]string{}
		for _, e := range bf.EndToEnd {
			want[e.Name] = e.Unit
		}
		checkMetrics(t, w.Name+" end to end", untraced.endToEnd, want, true)

		want = map[string]string{}
		for _, e := range bf.PerLayer {
			want[e.Name] = e.Unit
		}
		checkMetrics(t, w.Name+" per layer", smoke(t, w.Name, true).perLayer, want, false)
	}

	// Same sequence, same catalog, two topologies: where the statement
	// fixes the rows, the streams are equal.
	compared := 0
	for i, h := range hashes["interactive"] {
		if s := hashes["scatter"][i]; h != 0 && s != 0 {
			compared++
			if h != s {
				t.Errorf("op %d: interactive and scatter returned different rows", i)
			}
		}
	}
	if compared == 0 {
		t.Error("no row stream was comparable between interactive and scatter")
	}
}

func checkMetrics(t *testing.T, what string, got map[string]metric, want map[string]string, nonZero bool) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !metricName.MatchString(name):
			t.Errorf("%s: name %q is outside [A-Za-z0-9_.-]", what, name)
		case !ok:
			t.Errorf("%s: %s not emitted", what, name)
		case m.Unit != unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", what, name, m.Value)
		case nonZero && m.Value <= 0:
			t.Errorf("%s: %s = %v, an end-to-end metric is never 0", what, name, m.Value)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: %s emitted but not in BENCHMARK.json", what, name)
		}
	}
}

func TestOpSequences(t *testing.T) {
	recs, err := sky.Generate(sky.DefaultParams(5000, 7))
	if err != nil {
		t.Fatal(err)
	}
	keys := func(workload string, seed int64) []string {
		ops := makeOps(workload, seed, recs, 50)
		out := make([]string, len(ops))
		for i := range ops {
			out[i] = ops[i].path + "\n" + ops[i].body
		}
		return out
	}
	equal := func(a, b []string) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return len(a) == len(b)
	}
	for _, w := range workloadNames {
		if !equal(keys(w, 7), keys(w, 7)) {
			t.Errorf("%s: the same seed gave two sequences", w)
		}
		if equal(keys(w, 7), keys(w, 8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", w)
		}
	}
	if !equal(keys("scatter", 7), keys("interactive", 7)) {
		t.Error("scatter does not replay interactive's sequence")
	}
}

// TestSelfTime checks the span arithmetic on a hand-built tree:
//
//	handler   [0, 100)
//	  open    [10, 30)
//	  drain   [25, 60)   overlaps open by 5
//	  subreq  [90, 120)  runs past its parent
func TestSelfTime(t *testing.T) {
	handler := &span{Start: 0, End: 100}
	children := []*span{{Start: 10, End: 30}, {Start: 25, End: 60}, {Start: 90, End: 120}}
	// Covered: [10,60) and [90,100) = 60, so self = 40.
	if got := selfTime(handler, children); got != 40 {
		t.Errorf("selfTime = %d, want 40", got)
	}
	if got := selfTime(handler, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
	if got := covered(0, 10, [][2]int64{{-5, 3}, {2, 4}, {20, 30}}); got != 4 {
		t.Errorf("covered = %d, want 4", got)
	}
}

// TestQuartiles pins the quartile rule to the values Python's
// statistics.quantiles(range(1, 11), n=4) returns.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
