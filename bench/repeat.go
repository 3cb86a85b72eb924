package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the repeat mode and the
// smoke test read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// quartiles returns the first, second and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method):
// the driver computes its spreads with it.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := sortedCopy(values)
	m := len(data)
	if m < 2 {
		return data[0], data[0], data[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// runChild runs one workload in a fresh process, as the driver does,
// and returns the metrics of its final JSON line.
func runChild(args ...string) (map[string]metric, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", strings.Join(args, " "), err)
	}
	lines := bytes.Split(bytes.TrimSpace(outBytes), []byte("\n"))
	var final struct {
		Correct bool              `json:"correct"`
		Failed  int               `json:"failed"`
		Metrics map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &final); err != nil {
		return nil, fmt.Errorf("%s: last line is not the result: %w", strings.Join(args, " "), err)
	}
	if !final.Correct {
		return nil, fmt.Errorf("%s: %d ops failed:\n%s", strings.Join(args, " "), final.Failed, outBytes)
	}
	return final.Metrics, nil
}

// sameStreams compares the row-stream hashes two runs left behind.
// interactive and scatter replay one sequence on one catalog, so where
// the statement fixes the rows (hash not 0) the streams must be equal.
func sameStreams(fileA, fileB string) error {
	a, err := readHashes(fileA)
	if err != nil {
		return err
	}
	b, err := readHashes(fileB)
	if err != nil {
		return err
	}
	compared, diff := 0, 0
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] == 0 || b[i] == 0 {
			continue
		}
		compared++
		if a[i] != b[i] {
			diff++
		}
	}
	if diff > 0 || compared == 0 {
		return fmt.Errorf("%d of %d comparable row streams differ between %s and %s", diff, compared, fileA, fileB)
	}
	fmt.Fprintf(os.Stderr, "%d row streams hash equal between interactive and scatter\n", compared)
	return nil
}

func readHashes(file string) ([]uint64, error) {
	raw, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var h []uint64
	return h, json.Unmarshal(raw, &h)
}

// runRepeat runs n full sets, alternating the workload order, set i on
// seed+i, and prints each end-to-end metric's quartiles and spread
// (interquartile range over median) beside its bound. A spread above
// the bound is an error: that metric cannot resolve a regression of
// the size its bound promises.
func runRepeat(root string, n int, seed int64, seconds float64, rows int, out, commit string) error {
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		return err
	}
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	common := []string{"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-rows", strconv.Itoa(rows)}
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	for i := 0; i < n; i++ {
		order := append([]string(nil), workloadNames...)
		if i%2 == 1 {
			sort.Sort(sort.Reverse(sort.StringSlice(order)))
		}
		for _, w := range order {
			fmt.Fprintf(os.Stderr, "set %d/%d: %s\n", i+1, n, w)
			ms, err := runChild(append([]string{"-workload", w, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-hashes", filepath.Join(outDir, "hashes-"+w+".json")}, common...)...)
			if err != nil {
				return err
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for name, m := range ms {
				values[w][name] = append(values[w][name], m.Value)
			}
		}
		if err := sameStreams(filepath.Join(outDir, "hashes-interactive.json"), filepath.Join(outDir, "hashes-scatter.json")); err != nil {
			return fmt.Errorf("set %d: %w", i+1, err)
		}
	}

	type row struct {
		Q1, Median, Q3, Spread, Bound float64
		Unit                          string
	}
	table := map[string]map[string]row{}
	var wide []string
	fmt.Printf("%-12s %-20s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, w := range workloadNames {
		table[w] = map[string]row{}
		for _, e := range bf.EndToEnd {
			q1, q2, q3 := quartiles(values[w][e.Name])
			r := row{q1, q2, q3, ratio(q3-q1, q2), e.Bound, e.Unit}
			table[w][e.Name] = r
			fmt.Printf("%-12s %-20s %12.4f %12.4f %12.4f %8.4f %6.2f\n", w, e.Name, r.Q1, r.Median, r.Q3, r.Spread, r.Bound)
			if n > 1 && r.Spread > r.Bound && e.Name != "setup_s" {
				wide = append(wide, w+"."+e.Name)
			}
		}
	}

	if out != "" {
		layers := map[string]map[string]metric{}
		for _, w := range workloadNames {
			fmt.Fprintf(os.Stderr, "traced: %s\n", w)
			ms, err := runChild(append([]string{"-workload", w, "-seed", strconv.FormatInt(seed, 10), "-trace", "1"}, common...)...)
			if err != nil {
				return err
			}
			layers[w] = ms
		}
		b, err := json.MarshalIndent(map[string]any{
			"commit": commit, "go": runtime.Version(), "nproc": runtime.NumCPU(), "procs": procs,
			"rows": rows, "seconds": seconds, "sets": n, "first_seed": seed,
			"end_to_end": table, "per_layer": layers,
		}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(wide) > 0 {
		return errors.New("spread above bound: " + strings.Join(wide, ", "))
	}
	return nil
}
