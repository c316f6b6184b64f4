// Command perfbench is the repository benchmark. It drives the system
// through its public entry points only — an in-process jobd.Server
// behind a real loopback listener, wired like cmd/axiomd, and
// scenario.Load plus Spec.RunContext, the calls axiomsim -scenario
// makes — with a closed loop of one client: the next op is sent only
// after the previous one completed.
//
//	bash perfbench/run.sh --workload jobs-cold --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh steady -runs 5
//
// Each run executes a fixed op list generated from the seed (fixed
// work, not fixed time), checks every output, and prints one JSON
// object as the last line of standard output. See README.md.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloadDef names a workload and sizes its fixed op list.
type workloadDef struct {
	name string
	why  string
	// opsPerSecond converts --seconds into the number of timed ops. It is
	// a constant, not a measurement: the same flags always give the same
	// list. It was set so the timed phase lasts about --seconds on a
	// 2-core x86-64 container.
	opsPerSecond float64
	// warmup is the number of set-up ops run before the timed phase;
	// they are drawn from their own seed stream, so they warm the code
	// paths without warming the timed ops' cells.
	warmup int
	// store backs the system with a fresh run store. On a shared VM,
	// creating a file is far noisier than reading one (see README.md),
	// so only the workload that must read a store has one; the others
	// run memory-only and create no file in their timed phase.
	store bool
}

var workloads = []*workloadDef{
	{name: "jobs-cold", opsPerSecond: 10, warmup: 16,
		why: "POST /jobs, memory-only: Table 1 characterization as a service; metrics estimators over SweepSpecs, fluid.Batch and the per-cell fluid.Link fallback"},
	{name: "frontier-cold", opsPerSecond: 15, warmup: 10,
		why: "POST /frontier with memory-only sessions: every explored cell simulates in fluid.Batch SoA rounds, then pareto halving and pruning; the kernel-bound path"},
	{name: "warm-resubmit", opsPerSecond: 40, warmup: 0, store: true,
		why: "replays a prefilled /frontier list: Session disk hits, runstore.Get, storecodec decode and pareto with the kernel idle; must simulate 0 cells"},
	{name: "scenario-runs", opsPerSecond: 24, warmup: 20,
		why: "scenario.Load + RunContext over a seeded nettopo/multilink/packet mix: the only workload where nettopo, multilink and packetsim step"},
}

func lookupWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// minOps keeps p90 honest: at least ten samples beyond it.
const minOps = 100

// setupReps is how many times a run sets the system up; setup_s is the
// median, and the last set-up serves the timed phase.
const setupReps = 3

// metricDef is one reported metric; the lists below are the contract
// with BENCHMARK.json (a test holds them equal).
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"cells_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"cpu_ms_per_cell", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string // build and scratch directory inside the checkout
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steadyMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench steady:", err)
			os.Exit(1)
		}
		return
	}
	var cfg config
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+workloadNames())
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated op list")
	fs.IntVar(&cfg.seconds, "seconds", 12, "run length: sizes the fixed op list (ops = rate × seconds, at least 100)")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer ledger")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for scratch stores and the written trace")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError
	cfg.trace = traceFlag != 0
	if lookupWorkload(cfg.workload) == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, workloadNames())
		os.Exit(2)
	}
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1")
		os.Exit(2)
	}
	res, err := run(context.Background(), cfg, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// run executes one workload run and returns its result line. Progress
// and human-readable figures go to errw; the digest and sample-count
// lines go to outw ahead of the result.
func run(ctx context.Context, cfg config, outw, errw io.Writer) (*result, error) {
	w := lookupWorkload(cfg.workload)
	nOps := max(minOps, int(math.Round(w.opsPerSecond*float64(cfg.seconds))))
	b := newBench(w, cfg.seed, nOps, filepath.Join(cfg.out, fmt.Sprintf("work-%d", os.Getpid())))
	defer os.RemoveAll(b.work)

	// Set-up, several times: setup_s is the median. The last set-up
	// serves the timed phase.
	var setups []float64
	var e *env
	for rep := 0; rep < setupReps; rep++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", rep-1, err)
			}
			e = nil
		}
		runtime.GC()
		start := time.Now()
		ne, err := b.setup(ctx, rep)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		e = ne
	}
	defer func() {
		if e != nil {
			e.close() //nolint:errcheck // error path; the success path checks close
		}
	}()

	if cfg.trace {
		te := e
		e = nil // traced closes it
		res, err := b.traced(ctx, te, cfg, errw)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(outw, "perfbench workload=%s seed=%d trace=1 ops=%d digest=%s\n", w.name, cfg.seed, nOps, b.digest)
		return res, nil
	}

	ph := b.timed(ctx, e)
	b.postChecks(ctx, e, ph.outs)
	if err := e.close(); err != nil {
		return nil, fmt.Errorf("tear down: %w", err)
	}
	e = nil

	lats := make([]float64, len(ph.outs))
	cells, failed := cellsOf(ph.outs), 0
	for i, o := range ph.outs {
		lats[i] = float64(o.lat) / 1e6
		if o.fail != "" {
			failed++
			if failed <= 5 {
				fmt.Fprintf(errw, "perfbench: op %d failed: %s\n", i, o.fail)
			}
		}
	}
	b.digest = digestOf(ph.outs)
	p50, err := percentile(lats, 0.50)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(lats, 0.90)
	if err != nil {
		return nil, err
	}
	if cells == 0 {
		return nil, fmt.Errorf("no cells completed")
	}
	res := &result{
		Correct:   failed == 0,
		Attempted: len(ph.outs),
		Failed:    failed,
		Metrics: map[string]metricValue{
			"cells_per_s":     {median(ph.chunkRate), "1/s"},
			"op_p50_ms":       {p50, "ms"},
			"op_p90_ms":       {p90, "ms"},
			"cpu_ms_per_cell": {median(ph.chunkCPU), "ms"},
			"peak_rss_mb":     {peakRSSMB(), "MB"},
			"setup_s":         {median(setups), "s"},
		},
	}
	fmt.Fprintf(outw, "perfbench workload=%s seed=%d ops=%d cells=%d samples=%d failed_frac=%g digest=%s\n",
		w.name, cfg.seed, len(ph.outs), cells, len(lats), float64(failed)/float64(len(ph.outs)), b.digest)
	printMetrics(errw, res.Metrics)
	fmt.Fprintf(errw, "  timed phase %.2fs (%.4g cells/s, %.4g CPU ms/cell overall), set-ups %v s\n",
		ph.wall.Seconds(), float64(cells)/ph.wall.Seconds(), float64(ph.cpu)/1e6/float64(cells), roundAll(setups, 3))
	return res, nil
}

func printMetrics(w io.Writer, m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func roundAll(xs []float64, digits int) []float64 {
	p := math.Pow(10, float64(digits))
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*p) / p
	}
	return out
}

// digestOf hashes the ops' canonical outputs in op order: two runs of
// one seed must print the same digest.
func digestOf(outs []opOut) string {
	h := sha256.New()
	for _, o := range outs {
		h.Write(o.digest)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// cpuTime is this process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}
