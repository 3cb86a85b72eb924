// Command bench is the repository's benchmark: five named workloads
// against the real HTTP serving stack, end-to-end metrics from an
// untraced run, per-layer metrics from a traced one, and an oracle
// that checks the answers. See README.md.
//
//	go run -C bench . -workload scan -seed 1
//	go run -C bench . -workload scan -seed 1 -trace 1
//	go run -C bench . -repeat 2
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	workload := flag.String("workload", "", "one of interactive, scan, hot, ingest, scatter")
	seed := flag.Int64("seed", 1, "seed of the catalog and the op sequence")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1: one client, spans recorded, per-layer metrics reported")
	rows := flag.Int("rows", defaultRows, "catalog size (out of contract: the frozen size is the default)")
	repeat := flag.Int("repeat", 0, "run this many full sets, one seed each, and report every end-to-end metric's spread against its bound")
	out := flag.String("out", "", "with -repeat: also write the medians and one traced run per workload to this file")
	commit := flag.String("commit", "unknown", "with -out: the commit the numbers belong to")
	hashes := flag.String("hashes", "", "write the verified ops' row-stream hashes to this file (-repeat compares interactive's with scatter's)")
	flag.Parse()
	runtime.GOMAXPROCS(procs)

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	if *repeat > 0 {
		if err := runRepeat(root, *repeat, *seed, *seconds, *rows, *out, *commit); err != nil {
			fatal(err)
		}
		return
	}
	res, err := runWorkload(options{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace != 0, rows: *rows, root: root})
	if err != nil {
		fatal(err)
	}
	if *hashes != "" {
		b, err := json.Marshal(res.hashes)
		if err == nil {
			err = os.WriteFile(*hashes, b, 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	report(res, *trace != 0)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// findRoot locates the checkout root, the directory that holds
// BENCHMARK.json: the working directory, or its parent when run from
// inside bench/ (go run -C bench).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found in . or ..: run from the repository root or from bench/")
}

// report prints every metric as "name value unit", then the failures,
// then the one JSON object the driver reads: end-to-end metrics from
// an untraced run, per-layer metrics from a traced one.
func report(res *result, traced bool) {
	printMetrics := func(ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for name := range ms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("%-32s %14.4f %s\n", name, ms[name].Value, ms[name].Unit)
		}
	}
	printMetrics(res.endToEnd)
	printMetrics(res.perLayer)
	fmt.Printf("%-32s %14.6f ratio\n", "fail_ratio", float64(res.failed)/float64(res.attempted))
	for _, f := range res.failures {
		fmt.Println("FAILED", f)
	}
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, res.endToEnd}
	if traced {
		final.Metrics = res.perLayer
	}
	b, err := json.Marshal(final)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}
