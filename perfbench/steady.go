package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"text/tabwriter"
)

// The steadiness report: run each workload repeatedly, each run in a
// fresh process with its own seed, and set each end-to-end metric's
// spread — the distance between its first and third quartile over its
// median — against the bound BENCHMARK.json gives it. With -sets 2 it
// also compares the medians of two back-to-back sets, which is how a
// regression gate would see two measurements of identical code.

// benchFile is the part of BENCHMARK.json the report reads.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchFile(path string) (*benchFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// watch names the figures that have moved most between sets of runs of
// identical code on small shared boxes: set-up time near the
// process-start noise floor, and packet-level simulation timings.
var watch = []struct{ workload, metric, why string }{
	{"*", "setup_s", "set-up time: a short set-up sits at the process-start noise floor"},
	{"scenario-runs", "cells_per_s", "packetsim timings: event-heap runs are the most CPU-frequency-sensitive ops"},
	{"scenario-runs", "cpu_ms_per_cell", "packetsim timings"},
	{"scenario-runs", "op_p90_ms", "packetsim timings: the p90 op is a 60 s packet cell"},
}

func steadyMain(args []string) error {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload and set; run k uses seed k")
	sets := fs.Int("sets", 1, "back-to-back sets of runs; with 2 the medians are compared")
	only := fs.String("workloads", "", "comma-separated workloads (default: all in BENCHMARK.json)")
	out := fs.String("out", ".bench_build", "scratch directory handed to each run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	bf, err := readBenchFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	names := []string{}
	if *only != "" {
		names = strings.Split(*only, ",")
	} else {
		for _, w := range bf.Workloads {
			names = append(names, w.Name)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}

	// values[set][workload][metric] lists one value per run.
	values := make([]map[string]map[string][]float64, *sets)
	digests := map[string]string{} // workload/seed → digest
	for s := 0; s < *sets; s++ {
		values[s] = map[string]map[string][]float64{}
		for k := 0; k < *runs; k++ {
			for _, w := range names {
				seed := uint64(k + 1)
				res, digest, err := runChild(self, w, seed, bf.RunSeconds, *out)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w, seed, err)
				}
				if !res.Correct || res.Failed != 0 {
					return fmt.Errorf("%s seed %d: %d of %d ops failed their checks", w, seed, res.Failed, res.Attempted)
				}
				key := w + "/" + strconv.FormatUint(seed, 10)
				if prev, ok := digests[key]; ok && prev != digest {
					return fmt.Errorf("%s seed %d: output digest %s differs from the earlier run's %s", w, seed, digest, prev)
				}
				digests[key] = digest
				if values[s][w] == nil {
					values[s][w] = map[string][]float64{}
				}
				for m, v := range res.Metrics {
					values[s][w][m] = append(values[s][w][m], v.Value)
				}
				var figs []string
				for _, m := range bf.EndToEnd {
					figs = append(figs, fmt.Sprintf("%s=%.4g", m.Name, res.Metrics[m.Name].Value))
				}
				fmt.Fprintf(os.Stderr, "set %d run %d %s seed %d ok digest %s %s\n", s+1, k+1, w, seed, digest, strings.Join(figs, " "))
			}
		}
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "set\tworkload\tmetric\tq1\tmedian\tq3\tspread\tbound\tverdict")
	worst := "steady"
	for s := range values {
		for _, w := range names {
			for _, m := range bf.EndToEnd {
				xs := values[s][w][m.Name]
				q1, med, q3 := quartiles(xs)
				spread := (q3 - q1) / med
				verdict := "steady"
				switch {
				case m.Name == "setup_s":
					verdict = "info" // the gate compares setup_s medians only
				case spread > m.Bound:
					verdict = "TOO NOISY"
				case spread > m.Bound/3:
					verdict = "within bound"
				}
				worst = worse(worst, verdict)
				fmt.Fprintf(tw, "%d\t%s\t%s\t%.4g\t%.4g\t%.4g\t%.1f%%\t%.0f%%\t%s\n",
					s+1, w, m.Name, q1, med, q3, 100*spread, 100*m.Bound, verdict)
			}
		}
	}
	tw.Flush()
	if *sets > 1 {
		fmt.Println()
		tw = tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "workload\tmetric\tmedian set 1\tlast set\tworse by\tbound\tverdict")
		for _, w := range names {
			for _, m := range bf.EndToEnd {
				a, b := median(values[0][w][m.Name]), median(values[*sets-1][w][m.Name])
				worseBy := (b - a) / a
				if m.Better == "higher" {
					worseBy = (a - b) / a
				}
				verdict := "ok"
				if worseBy > m.Bound {
					verdict = "REGRESSION"
				}
				worst = worse(worst, verdict)
				fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%s\n", w, m.Name, a, b, 100*worseBy, 100*m.Bound, verdict)
			}
		}
		tw.Flush()
	}
	fmt.Println()
	for _, wt := range watch {
		for _, w := range names {
			if wt.workload != "*" && wt.workload != w {
				continue
			}
			var bound float64
			for _, m := range bf.EndToEnd {
				if m.Name == wt.metric {
					bound = m.Bound
				}
			}
			for s := range values {
				q1, med, q3 := quartiles(values[s][w][wt.metric])
				fmt.Printf("watch: %s %s set %d: spread %.1f%% (bound %.0f%%) — %s\n",
					w, wt.metric, s+1, 100*(q3-q1)/med, 100*bound, wt.why)
			}
		}
	}
	fmt.Printf("\noverall: %s\n", worst)
	if worst == "TOO NOISY" || worst == "REGRESSION" {
		return fmt.Errorf("not steady")
	}
	return nil
}

func worse(a, b string) string {
	rank := map[string]int{"steady": 0, "info": 0, "ok": 0, "within bound": 1, "TOO NOISY": 2, "REGRESSION": 2}
	if rank[b] > rank[a] {
		return b
	}
	return a
}

// runChild runs one workload run in a fresh process and returns its
// result line and output digest.
func runChild(self, workload string, seed uint64, seconds int, out string) (*result, string, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0", "--out", out)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, "", fmt.Errorf("%v: %s", err, lastLines(stderr.String(), 5))
	}
	var last, digest string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "digest="); i >= 0 {
			digest = line[i+len("digest="):]
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, "", fmt.Errorf("result line %q: %w", last, err)
	}
	for m, v := range res.Metrics {
		if math.IsNaN(v.Value) || v.Value <= 0 {
			return nil, "", fmt.Errorf("metric %s = %v", m, v.Value)
		}
	}
	return &res, digest, nil
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
