package engine

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/fluid"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// batchFamilies are the kernelized protocol specs the golden matrix
// covers — one per closed-form family (AIMD, MIMD, two Binomial points,
// Robust-AIMD, HighSpeed).
var batchFamilies = []string{"reno", "scalable", "iiad", "sqrt", "raimd:1,0.8,0.01", "hstcp"}

// batchGrid builds n self-describing specs cycling through the (family,
// init) pairs: 2-sender fluid cells, recorded, with per-cell seeds.
// mutate lets a scenario attach chaos schedules or loss processes per
// cell.
func batchGrid(t *testing.T, n, steps int, mutate func(i int, spec *Spec)) []Spec {
	t.Helper()
	inits := [][]float64{{1, 40}, {25, 25}}
	specs := make([]Spec, 0, n)
	for i := 0; i < n; i++ {
		fam := batchFamilies[(i/len(inits))%len(batchFamilies)]
		senders, err := fluid.HomogeneousSenders(protocol.MustParse(fam), 2, inits[i%len(inits)])
		if err != nil {
			t.Fatal(err)
		}
		cfg := fluidCfg()
		cfg.Seed = uint64(1000 + i)
		spec := Spec{
			Substrate: &FluidSpec{Cfg: cfg, Senders: senders, Steps: steps},
			Record:    true,
		}
		if mutate != nil {
			mutate(i, &spec)
		}
		specs = append(specs, spec)
	}
	return specs
}

// gridSizes are the grid sizes every golden runs at: one cell per
// (family, init) pair, which never shards, and a grid whose groups split
// into two or more shards at 2 and 4 workers.
var gridSizes = []int{2 * len(batchFamilies), 6 * minShardCells}

// batchWorkers are the worker counts of the batched legs: auto-routed
// (GOMAXPROCS, so `go test -cpu` varies it), serial, where every group
// steps whole, and 2 and 4, where groups of the larger grid size shard.
var batchWorkers = []int{0, 1, 2, 4}

// legCounts is how far one SweepSpecs call advanced the batched and
// fallback counters (zero while obs is disabled).
type legCounts struct{ batched, fallback uint64 }

func countLeg(f func()) legCounts {
	b0, f0 := sweepCellsBatched.Value(), sweepCellsFallback.Value()
	f()
	return legCounts{sweepCellsBatched.Value() - b0, sweepCellsFallback.Value() - f0}
}

// runAllPaths evaluates the same grid through the per-cell (-nobatch)
// path and through the batched path at every batchWorkers count, and
// asserts bit-identical traces. The grid is regenerated per run because
// substrates are single-use. Shards count cells, not groups, so the
// batched legs must advance the counters identically at every worker
// count; runAllPaths asserts that and returns the per-cell leg's and one
// batched leg's advance.
func runAllPaths(t *testing.T, grid func() []Spec) (res []*Result, scalarLeg, batchedLeg legCounts) {
	t.Helper()
	var scalar []*Result
	scalarLeg = countLeg(func() {
		var err error
		if scalar, err = SweepSpecs(context.Background(), grid(), SweepConfig{NoBatch: true}); err != nil {
			t.Fatal(err)
		}
	})
	for li, w := range batchWorkers {
		var batched []*Result
		leg := countLeg(func() {
			var err error
			if batched, err = SweepSpecs(context.Background(), grid(), SweepConfig{Workers: w}); err != nil {
				t.Fatal(err)
			}
		})
		if li == 0 {
			batchedLeg = leg
		} else if leg != batchedLeg {
			t.Fatalf("workers=%d: counters advanced %+v, want %+v as at workers=%d", w, leg, batchedLeg, batchWorkers[0])
		}
		if len(batched) != len(scalar) {
			t.Fatalf("workers=%d: result count %d != %d", w, len(batched), len(scalar))
		}
		for i := range batched {
			if batched[i].Steps != scalar[i].Steps {
				t.Fatalf("workers=%d cell %d: steps %d != %d", w, i, batched[i].Steps, scalar[i].Steps)
			}
			equalTraces(t, batched[i].Trace, scalar[i].Trace)
		}
		res = batched
	}
	return res, scalarLeg, batchedLeg
}

// TestSweepSpecsBitIdentityPlain is the plain column of the golden
// matrix: every batchable family, batched vs per-cell, bit-identical.
// It also pins the batched/fallback telemetry for an all-batchable grid.
func TestSweepSpecsBitIdentityPlain(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	for _, n := range gridSizes {
		res, scalar, batched := runAllPaths(t, func() []Spec { return batchGrid(t, n, 300, nil) })
		all := uint64(len(res))
		if batched != (legCounts{batched: all}) {
			t.Errorf("n=%d: batched leg advanced %+v, want every cell batched", n, batched)
		}
		// The -nobatch leg routed every fluid cell per-cell.
		if scalar != (legCounts{fallback: all}) {
			t.Errorf("n=%d: -nobatch leg advanced %+v, want every cell fallback", n, scalar)
		}
	}
}

// batchChaosSchedule composes every injector mechanism the fluid batch
// must share bit-identically: capacity shocks, link flaps, a seeded
// Gilbert–Elliott loss chain, RTT jitter, and flow churn.
func batchChaosSchedule() *chaos.Schedule {
	s := &chaos.Schedule{Events: []chaos.Event{
		{Kind: chaos.KindCapacityScale, At: 40, Duration: 60, Scale: 0.5, Link: -1},
		{Kind: chaos.KindLinkFlap, At: 150, Duration: 5, Link: -1},
		{Kind: chaos.KindGELoss, At: 0, PGoodBad: 0.02, PBadGood: 0.3, LossBad: 0.1, Flow: -1, Link: -1},
		{Kind: chaos.KindRTTJitter, At: 0, Amplitude: 0.002, Link: -1},
		{Kind: chaos.KindFlowDepart, At: 100, Flow: 1},
		{Kind: chaos.KindFlowArrive, At: 200, Flow: 1},
	}}
	if err := s.Normalize(); err != nil {
		panic(err)
	}
	return s
}

// TestSweepSpecsBitIdentityChaos is the chaos column: cells sharing a
// compiled schedule batch together (one injector per shard) and must
// match the per-cell path, where every cell compiles its own injector.
// Cells with a different schedule or seed form separate groups; at the
// larger grid size each group splits into two shards.
func TestSweepSpecsBitIdentityChaos(t *testing.T) {
	schedA, schedB := batchChaosSchedule(), batchChaosSchedule()
	obs.Enable()
	defer obs.Disable()
	for _, n := range gridSizes {
		grid := func() []Spec {
			return batchGrid(t, n, 300, func(i int, spec *Spec) {
				// Three chaos groups: schedule A seed 1, schedule A seed 2,
				// schedule B seed 1 — plus identical per-cell fluid seeds so
				// only the chaos grouping varies.
				switch i % 3 {
				case 0:
					spec.Chaos, spec.ChaosSeed = schedA, 1
				case 1:
					spec.Chaos, spec.ChaosSeed = schedA, 2
				case 2:
					spec.Chaos, spec.ChaosSeed = schedB, 1
				}
			})
		}
		res, _, batched := runAllPaths(t, grid)
		// All three chaos groups have ≥ 2 cells, so every cell of the
		// batched legs must actually have batched — a silent fallback
		// would compare per-cell against per-cell and prove nothing.
		if got, want := batched.batched, uint64(len(res)); got != want {
			t.Errorf("n=%d: batched counter advanced %d, want %d", n, got, want)
		}
	}
}

// TestSweepSpecsBitIdentityRandomLoss is the seeded-randomness column:
// per-cell PacketLoss processes with distinct seeds, exercising the
// per-cell RNG streams inside one batch.
func TestSweepSpecsBitIdentityRandomLoss(t *testing.T) {
	for _, n := range gridSizes {
		grid := func() []Spec {
			return batchGrid(t, n, 300, func(i int, spec *Spec) {
				fs := spec.Substrate.(*FluidSpec)
				fs.Cfg.Loss = fluid.NewPacketLoss(0.003)
				fs.Cfg.Seed = uint64(77 + i)
			})
		}
		runAllPaths(t, grid)
	}
}

// TestSweepSpecsCheckpointResume is the checkpoint/resume column: a
// batched sweep is canceled mid-flight, its checkpoint keeps the
// completed cells, and the resumed sweep — which must exclude restored
// cells from batch groups — finishes with results bit-identical to an
// uninterrupted per-cell run.
func TestSweepSpecsCheckpointResume(t *testing.T) {
	ckpath := filepath.Join(t.TempDir(), "sweep.json")
	grid := func() []Spec { return batchGrid(t, gridSizes[0], 300, nil) }

	// Phase 1: serial sweep, canceled after two cells completed.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := SweepConfig{
		Workers:    1,
		Checkpoint: ckpath,
		Progress: func(done, total int) {
			if done == 2 {
				cancel()
			}
		},
	}
	if _, err := SweepSpecs(ctx, grid(), cfg); err == nil {
		t.Fatal("canceled sweep returned nil error")
	}

	// Phase 2: resume. Restored cells come from the checkpoint, the rest
	// re-run (batched).
	obs.Enable()
	defer obs.Disable()
	r0 := obs.GetCounter("engine.sweep.cells.restored").Value()
	resumed, err := SweepSpecs(context.Background(), grid(), SweepConfig{
		Workers:    2,
		Checkpoint: ckpath,
		Resume:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.GetCounter("engine.sweep.cells.restored").Value() - r0; got == 0 {
		t.Fatal("resume restored no cells; cancellation landed before any checkpoint record")
	}

	scalar, err := SweepSpecs(context.Background(), grid(), SweepConfig{Workers: 1, NoBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range resumed {
		equalTraces(t, resumed[i].Trace, scalar[i].Trace)
	}
}

// TestSweepSpecsFallbackCoverage is the fallback column: non-batchable
// families (PCC, BBRish, Func, Vegas), stateful instances with live state
// (a primed Cubic), and unsynchronized senders silently take the per-cell
// path inside a mixed grid, with results bit-identical to -nobatch, and
// the telemetry splits the grid into batched + fallback exactly.
func TestSweepSpecsFallbackCoverage(t *testing.T) {
	nonBatchable := []func() fluid.Sender{
		func() fluid.Sender { return fluid.Sender{Proto: protocol.DefaultPCC(), Init: 10} },
		func() fluid.Sender { return fluid.Sender{Proto: protocol.NewBBRish(), Init: 10} },
		func() fluid.Sender {
			return fluid.Sender{Proto: &protocol.Func{Fn: func(fb protocol.Feedback) float64 {
				if fb.Loss > 0 {
					return fb.Window * 0.7
				}
				return fb.Window + 2
			}}, Init: 10}
		},
		func() fluid.Sender { return fluid.Sender{Proto: protocol.DefaultVegas(), Init: 10} },
		func() fluid.Sender {
			// Primed Cubic: the family is kernelized, but live state
			// declines the kernel and routes per-cell.
			p := protocol.CubicLinux()
			p.Next(protocol.Feedback{Window: 50})
			return fluid.Sender{Proto: p, Init: 10}
		},
		// Kernelized family, but unsynchronized feedback.
		func() fluid.Sender { return fluid.Sender{Proto: protocol.Reno(), Init: 10, Period: 3, Phase: 1} },
	}
	obs.Enable()
	defer obs.Disable()
	for _, n := range gridSizes {
		grid := func() []Spec {
			specs := batchGrid(t, n, 300, nil)
			for i, mk := range nonBatchable {
				cfg := fluidCfg()
				cfg.Seed = uint64(5000 + i)
				specs = append(specs, Spec{
					Substrate: &FluidSpec{
						Cfg:     cfg,
						Senders: []fluid.Sender{mk(), {Proto: protocol.Reno(), Init: 1}},
						Steps:   300,
					},
					Record: true,
				})
			}
			return specs
		}
		res, scalar, batched := runAllPaths(t, grid)
		all, fallback := uint64(len(res)), uint64(len(nonBatchable))
		// The batched legs split the grid; the -nobatch leg routes
		// everything to fallback.
		if want := (legCounts{batched: all - fallback, fallback: fallback}); batched != want {
			t.Errorf("n=%d: batched leg advanced %+v, want %+v", n, batched, want)
		}
		if want := (legCounts{fallback: all}); scalar != want {
			t.Errorf("n=%d: -nobatch leg advanced %+v, want %+v", n, scalar, want)
		}
	}
}

// TestSweepSpecsSingletonGroupFallsBack pins minBatchGroup: a group of
// one gains nothing from batching and must route per-cell.
func TestSweepSpecsSingletonGroupFallsBack(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	grid := func() []Spec {
		// Two cells with different step counts → two singleton groups.
		a := batchGrid(t, 1, 200, nil)
		b := batchGrid(t, 1, 300, nil)
		return append(a, b...)
	}
	_, scalar, batched := runAllPaths(t, grid)
	if want := (legCounts{fallback: 2}); scalar != want || batched != want {
		t.Errorf("legs advanced %+v (-nobatch) and %+v (batched), want %+v each", scalar, batched, want)
	}
}

// divergeAt is where TestSweepSpecsDivergenceFailsFast inserts its
// diverging cell into the larger grid: past the middle, so at 2 workers
// it lands in the second shard.
const divergeAt = 60

// TestSweepSpecsDivergenceFailsFast asserts a diverging batched cell
// surfaces the same ErrDiverged failure the per-cell path produces at
// the same worker count, including when the cell sits in a later shard.
func TestSweepSpecsDivergenceFailsFast(t *testing.T) {
	for _, n := range gridSizes {
		at := min(divergeAt, n)
		grid := func() []Spec {
			specs := batchGrid(t, n, 300, nil)
			cfg := fluid.Config{Infinite: true, PropDelay: 0.021, MaxWindow: math.Inf(1)}
			bad := Spec{
				Substrate: &FluidSpec{
					Cfg: cfg,
					Senders: []fluid.Sender{
						{Proto: protocol.NewMIMD(10, 0.5), Init: 1e300},
						{Proto: protocol.NewMIMD(10, 0.5), Init: 1e300},
					},
					Steps: 300,
				},
			}
			return append(specs[:at], append([]Spec{bad}, specs[at:]...)...)
		}
		if n > 2*minShardCells {
			specs := grid()
			idxs := make([]int, len(specs))
			for i := range idxs {
				idxs[i] = i
			}
			if shards := shardGroup(specs, idxs, 2); len(shards) != 2 || shards[1][0] > at {
				t.Fatalf("n=%d: diverging cell %d is not in the second of shards %v", n, at, shards)
			}
		}
		obs.Enable()
		for _, w := range batchWorkers {
			_, want := SweepSpecs(context.Background(), grid(), SweepConfig{Workers: w, NoBatch: true})
			var de *fluid.DivergedError
			if !errors.As(want, &de) {
				t.Fatalf("n=%d workers=%d: per-cell error %v is not a DivergedError", n, w, want)
			}
			var err error
			leg := countLeg(func() { _, err = SweepSpecs(context.Background(), grid(), SweepConfig{Workers: w}) })
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("n=%d workers=%d: error %v, want %v", n, w, err, want)
			}
			// The diverging cell shares the grid's group: it must have
			// diverged inside a batch, not on the per-cell path.
			if leg.batched != uint64(n+1) {
				t.Fatalf("n=%d workers=%d: batched counter advanced %d, want %d", n, w, leg.batched, n+1)
			}
		}
		obs.Disable()
	}
}

// stepCollector records every observed step, copying the reused Windows
// slice. It deliberately does NOT implement StripObserver, so on the
// batched path it exercises the per-step fallback (row gather) in the
// strip flush.
type stepCollector struct{ steps []Step }

func (c *stepCollector) Observe(st Step) {
	st.Windows = append([]float64(nil), st.Windows...)
	c.steps = append(c.steps, st)
}

// stripCollector implements StripObserver, expanding flow-major strips
// back into steps while checking the documented layout invariants.
type stripCollector struct {
	stepCollector
	strips int
	t      *testing.T
}

func (c *stripCollector) ObserveStrip(s Strip) {
	c.strips++
	if len(s.Windows) != s.Count*s.Flows {
		c.t.Errorf("strip Windows length %d, want Count×Flows = %d", len(s.Windows), s.Count*s.Flows)
	}
	for k := 0; k < s.Count; k++ {
		w := make([]float64, s.Flows)
		for i := 0; i < s.Flows; i++ {
			w[i] = s.Windows[i*s.Count+k]
		}
		c.steps = append(c.steps, Step{
			Index:   s.Start + k,
			Windows: w,
			Total:   s.Totals[k],
			RTT:     s.RTT[k],
			Loss:    s.Loss[k],
		})
	}
}

// TestSweepSpecsStripObserverEquivalence is the observer column of the
// golden matrix: the batched path must deliver the same step sequence
// whether an observer takes whole strips (flow-major columns), takes the
// per-step fallback, or runs on the per-cell path. 300 steps is not a
// multiple of emitStrip, so the final partial strip — column compaction
// and all — is exercised too, and the grid starts and ends with 3-sender
// cells so column strides differ within the first and the last shard.
func TestSweepSpecsStripObserverEquivalence(t *testing.T) {
	const steps = 300
	run := func(n, workers int, nobatch, strip bool) ([][]Step, int) {
		wide := func() Spec {
			senders, err := fluid.HomogeneousSenders(protocol.Reno(), 3, []float64{1, 20, 40})
			if err != nil {
				t.Fatal(err)
			}
			cfg := fluidCfg()
			cfg.Seed = 9003
			return Spec{Substrate: &FluidSpec{Cfg: cfg, Senders: senders, Steps: steps}}
		}
		specs := append([]Spec{wide()}, batchGrid(t, n, steps, nil)...)
		specs = append(specs, wide())
		collectors := make([]*stripCollector, len(specs))
		for i := range specs {
			collectors[i] = &stripCollector{t: t}
			specs[i].Record = false
			if strip {
				specs[i].Observers = []Observer{collectors[i]}
			} else {
				specs[i].Observers = []Observer{&collectors[i].stepCollector}
			}
		}
		if _, err := SweepSpecs(context.Background(), specs, SweepConfig{Workers: workers, NoBatch: nobatch}); err != nil {
			t.Fatal(err)
		}
		out := make([][]Step, len(specs))
		strips := 0
		for i, c := range collectors {
			out[i] = c.steps
			strips += c.strips
		}
		return out, strips
	}

	for _, n := range gridSizes {
		base, _ := run(n, 1, true, false) // per-cell path: one Observe per step
		for _, w := range batchWorkers {
			for _, leg := range []struct {
				name  string
				strip bool
			}{{"fallback", false}, {"strip", true}} {
				got, strips := run(n, w, false, leg.strip)
				if leg.strip && strips == 0 {
					t.Fatalf("n=%d workers=%d: strip leg delivered no strips; batched path not taken", n, w)
				}
				for i := range base {
					if len(got[i]) != len(base[i]) {
						t.Fatalf("n=%d workers=%d %s leg cell %d: %d steps, want %d", n, w, leg.name, i, len(got[i]), len(base[i]))
					}
					for k := range base[i] {
						g, want := got[i][k], base[i][k]
						if g.Index != want.Index || g.Total != want.Total || g.RTT != want.RTT || g.Loss != want.Loss {
							t.Fatalf("n=%d workers=%d %s leg cell %d step %d: %+v, want %+v", n, w, leg.name, i, k, g, want)
						}
						for f := range want.Windows {
							if math.Float64bits(g.Windows[f]) != math.Float64bits(want.Windows[f]) {
								t.Fatalf("n=%d workers=%d %s leg cell %d step %d flow %d: window %v, want %v", n, w, leg.name, i, k, f, g.Windows[f], want.Windows[f])
							}
						}
					}
				}
			}
		}
	}
}

// TestRouteWorkers pins the auto-routing rules: explicit Workers wins;
// otherwise min(GOMAXPROCS, n) with a serial floor. Its subtests pin how
// runBatches then shards batch groups across those workers.
func TestRouteWorkers(t *testing.T) {
	cfg := SweepConfig{Workers: 3}
	routeWorkers(100, &cfg)
	if cfg.Workers != 3 {
		t.Fatalf("explicit Workers overridden to %d", cfg.Workers)
	}
	cfg = SweepConfig{}
	routeWorkers(1, &cfg)
	if cfg.Workers != 1 {
		t.Fatalf("1-cell grid routed to %d workers, want serial", cfg.Workers)
	}
	cfg = SweepConfig{}
	routeWorkers(0, &cfg)
	if cfg.Workers != 1 {
		t.Fatalf("empty grid routed to %d workers, want 1", cfg.Workers)
	}
	cfg = SweepConfig{}
	routeWorkers(1<<20, &cfg)
	if want := runtime.GOMAXPROCS(0); cfg.Workers != want {
		t.Fatalf("large grid routed to %d workers, want GOMAXPROCS=%d", cfg.Workers, want)
	}
	t.Run("shardGroup", testShardGroup)
	t.Run("groupSpans", testGroupSpans)
}

// flowSpecs builds planner-only specs: shardGroup reads nothing but each
// cell's sender count.
func flowSpecs(flows ...int) ([]Spec, []int) {
	specs := make([]Spec, len(flows))
	idxs := make([]int, len(flows))
	for i, f := range flows {
		specs[i] = Spec{Substrate: &FluidSpec{Senders: make([]fluid.Sender, f)}}
		idxs[i] = i
	}
	return specs, idxs
}

// testShardGroup pins the planner: a group splits only when there is
// more than one worker and every shard keeps minShardCells cells; shards
// are contiguous, cover the group in order, and balance sender counts.
func testShardGroup(t *testing.T) {
	for _, n := range []int{1, 2, 3, 15, 16, 31, 32, 33, 47, 48, 64, 96, 97, 200} {
		for _, workers := range []int{1, 2, 3, 4, 8} {
			for _, skewed := range []bool{false, true} {
				flows := make([]int, n)
				for i := range flows {
					flows[i] = 2
					if skewed && i < n/4 {
						flows[i] = 8
					}
				}
				specs, idxs := flowSpecs(flows...)
				shards := shardGroup(specs, idxs, workers)
				want := min(workers, n/minShardCells)
				if want < 2 {
					want = 1
				}
				if len(shards) != want {
					t.Fatalf("n=%d workers=%d: %d shards, want %d", n, workers, len(shards), want)
				}
				next := 0
				for _, sh := range shards {
					if want > 1 && len(sh) < minShardCells {
						t.Fatalf("n=%d workers=%d: shard of %d cells below minShardCells", n, workers, len(sh))
					}
					for _, i := range sh {
						if i != next {
							t.Fatalf("n=%d workers=%d: shards %v not contiguous in input order", n, workers, shards)
						}
						next++
					}
				}
				if next != n {
					t.Fatalf("n=%d workers=%d: shards cover %d of %d cells", n, workers, next, n)
				}
				if !skewed && len(shards) > 1 && len(shards[0])-len(shards[len(shards)-1]) > 1 {
					t.Fatalf("n=%d workers=%d: uniform shards %d..%d cells, want within one", n, workers, len(shards[0]), len(shards[len(shards)-1]))
				}
			}
		}
	}
	// Balance is by senders, not cells: 24 eight-sender cells then 72
	// two-sender cells hold 168 senders on each side of cell 21.
	flows := make([]int, 96)
	for i := range flows {
		flows[i] = 2
		if i < 24 {
			flows[i] = 8
		}
	}
	specs, idxs := flowSpecs(flows...)
	if shards := shardGroup(specs, idxs, 2); len(shards) != 2 || len(shards[0]) != 21 {
		t.Fatalf("skewed 96-cell group split into %d shards (first %d cells), want 21 + 75", len(shards), len(shards[0]))
	}
}

// groupCells returns the cell count of every engine.batch.group span on
// the flight ring, parsing the "<cells> cells × <steps> steps" detail
// the way the benchmark's trace ledger does.
func groupCells(t *testing.T, steps int) []int {
	t.Helper()
	var cells []int
	for _, e := range obs.FlightEvents() {
		if e.Kind != "span" || e.Name != "engine.batch.group" {
			continue
		}
		f := strings.Fields(e.Detail)
		if len(f) != 5 || f[1] != "cells" || f[2] != "×" || f[4] != "steps" {
			t.Fatalf("engine.batch.group detail %q does not parse", e.Detail)
		}
		c, err1 := strconv.Atoi(f[0])
		s, err2 := strconv.Atoi(f[3])
		if err1 != nil || err2 != nil || s != steps {
			t.Fatalf("engine.batch.group detail %q: want %d steps", e.Detail, steps)
		}
		cells = append(cells, c)
	}
	sort.Ints(cells)
	return cells
}

// testGroupSpans runs real sweeps and reads back their group spans: a
// large grid shards at 2 workers, while a 3-run group (the size of
// Characterize's groups) and a sweep nested inside a sweep cell never
// split.
func testGroupSpans(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	cases := []struct {
		name string
		run  func() error
		want []int
	}{
		{"sharded", func() error {
			_, err := SweepSpecs(context.Background(), batchGrid(t, 48, 300, nil), SweepConfig{Workers: 2})
			return err
		}, []int{24, 24}},
		{"characterize", func() error {
			_, err := SweepSpecs(context.Background(), batchGrid(t, 3, 300, nil), SweepConfig{Workers: 4})
			return err
		}, []int{3}},
		{"nested", func() error {
			_, err := Sweep(context.Background(), 2, SweepConfig{Workers: 2}, func(ctx context.Context, _ int, _ uint64) (*Result, error) {
				if !InSweepCell(ctx) {
					return nil, errors.New("cell context not marked as a sweep cell")
				}
				_, err := SweepSpecs(ctx, batchGrid(t, 48, 300, nil), SweepConfig{})
				return nil, err
			})
			return err
		}, []int{48, 48}},
	}
	for _, c := range cases {
		obs.ResetFlight()
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := groupCells(t, 300); !slices.Equal(got, c.want) {
			t.Fatalf("%s: engine.batch.group spans of %v cells, want %v", c.name, got, c.want)
		}
	}
}
