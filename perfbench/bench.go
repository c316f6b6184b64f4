package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/fluid"
	"repro/internal/jobd"
	"repro/internal/metrics"
	"repro/internal/protocol"
)

// bench holds one run's generated inputs and what the set-up left.
type bench struct {
	w    *workloadDef
	seed uint64
	work string
	ops  [][]byte // timed op bodies, in order
	// distinct is how many leading ops are distinct; warm-resubmit's
	// list repeats after it.
	distinct int
	chunk    int // ops per block of the generator: one balanced mix
	// onChunk, when set, runs after every block of ops, outside the
	// timed figures (the traced pass collects its spans there).
	onChunk func()
	warm    [][]byte // set-up op bodies
	cells   []int    // /jobs: expected cells per timed op
	wcells  []int    // /jobs: expected cells per set-up op

	prefill []opOut // warm-resubmit: the set-up's cold pass over ops
	loadDur time.Duration
	digest  string
}

// warmPasses is how many times warm-resubmit's timed phase replays its
// prefilled list: a warm explore costs about a quarter of a cold one, so
// replaying a shorter list keeps the three prefills of the set-up
// affordable while the timed phase still has enough ops.
const warmPasses = 20

// newBench generates the op lists of workload w from seed.
func newBench(w *workloadDef, seed uint64, nOps int, work string) *bench {
	b := &bench{w: w, seed: seed, work: work}
	if w.name == "warm-resubmit" {
		list, _ := genOps(w.name, seed, "timed", (nOps+warmPasses-1)/warmPasses)
		for len(b.ops) < nOps {
			b.ops = append(b.ops, list[len(b.ops)%len(list)])
		}
		b.distinct = len(list)
		b.chunk = len(list)
	} else {
		b.ops, b.cells = genOps(w.name, seed, "timed", nOps)
		b.distinct = nOps
		b.chunk = blockSize(w.name)
	}
	b.warm, b.wcells = genOps(w.name, seed, "warmup", w.warmup)
	return b
}

// blockSize is the number of ops the generator balances its mix over.
func blockSize(workload string) int {
	switch workload {
	case "jobs-cold":
		return jobsBlock
	case "scenario-runs":
		return len(scenarioBlock)
	default:
		return frontierBlock
	}
}

// genOps renders n request bodies of the workload from one seed
// stream, block by block; the last block is cut short.
func genOps(workload string, seed uint64, stream string, n int) (bodies [][]byte, cells []int) {
	r := newRNG(workload, seed, stream)
	add := func(v any) {
		raw, err := json.Marshal(v)
		if err != nil {
			panic(err) // specs of plain values always marshal
		}
		bodies = append(bodies, raw)
	}
	for len(bodies) < n {
		switch workload {
		case "jobs-cold":
			for _, sp := range jobsOps(r) {
				cells = append(cells, len(sp.Protocols)*len(sp.Link.Mbps)*len(sp.Link.RTTms)*len(sp.Link.BufferMSS))
				add(sp)
			}
		case "frontier-cold":
			for _, sp := range frontierOps(r, 8, 3) {
				add(sp)
			}
		case "warm-resubmit":
			for _, sp := range frontierOps(r, 4, 2) {
				add(sp)
			}
		default:
			bodies = append(bodies, scenarioOps(r, len(bodies))...)
		}
	}
	if cells != nil {
		cells = cells[:n]
	}
	return bodies[:n], cells
}

// setup brings up a fresh system and runs the set-up ops; every one of
// them must pass its checks.
func (b *bench) setup(ctx context.Context, rep int) (*env, error) {
	e, err := newEnv(filepath.Join(b.work, fmt.Sprintf("setup-%d", rep)), b.w.store)
	if err != nil {
		return nil, err
	}
	fail := func(what string, i int, o opOut) (*env, error) {
		e.close() //nolint:errcheck // already failing
		return nil, fmt.Errorf("%s op %d: %s", what, i, o.fail)
	}
	for i, body := range b.warm {
		var o opOut
		switch b.w.name {
		case "jobs-cold":
			o = e.runJobs(ctx, body, b.wcells[i], true)
		case "frontier-cold":
			o = e.runFrontier(ctx, body, true)
		case "scenario-runs":
			o = runScenario(ctx, body, nil)
		}
		if o.fail != "" {
			return fail("warm-up", i, o)
		}
	}
	if b.w.name == "warm-resubmit" {
		b.prefill = make([]opOut, b.distinct)
		for i, body := range b.ops[:b.distinct] {
			b.prefill[i] = e.runFrontier(ctx, body, true)
			if b.prefill[i].fail != "" {
				return fail("prefill", i, b.prefill[i])
			}
		}
	}
	return e, nil
}

// phase is one timed pass over the op list.
type phase struct {
	outs []opOut
	wall time.Duration
	cpu  time.Duration
	// chunks holds per-block rates: every block of ops has the same mix,
	// so the median block shrugs off a burst of machine noise that a
	// whole-phase mean would absorb.
	chunkRate, chunkCPU []float64 // cells/s and CPU ms per cell
}

// timed runs the op list closed-loop against e.
func (b *bench) timed(ctx context.Context, e *env) phase {
	runtime.GC()
	b.loadDur = 0
	ph := phase{outs: make([]opOut, len(b.ops))}
	cpu0 := cpuTime()
	start := time.Now()
	chunkStart, chunkCPU0, chunkCells := start, cpu0, 0
	var hookWall, hookCPU time.Duration
	for i, body := range b.ops {
		ph.outs[i] = b.exec(ctx, e, i, body)
		chunkCells += ph.outs[i].cells
		if (i+1)%b.chunk == 0 || i+1 == len(b.ops) {
			now, cpu := time.Now(), cpuTime()
			if chunkCells > 0 {
				ph.chunkRate = append(ph.chunkRate, float64(chunkCells)/now.Sub(chunkStart).Seconds())
				ph.chunkCPU = append(ph.chunkCPU, float64(cpu-chunkCPU0)/1e6/float64(chunkCells))
			}
			if b.onChunk != nil {
				b.onChunk()
				later, cpuLater := time.Now(), cpuTime()
				hookWall += later.Sub(now)
				hookCPU += cpuLater - cpu
				now, cpu = later, cpuLater
			}
			chunkStart, chunkCPU0, chunkCells = now, cpu, 0
		}
	}
	ph.wall, ph.cpu = time.Since(start)-hookWall, cpuTime()-cpu0-hookCPU
	return ph
}

func (b *bench) exec(ctx context.Context, e *env, i int, body []byte) opOut {
	switch b.w.name {
	case "jobs-cold":
		return e.runJobs(ctx, body, b.cells[i], true)
	case "frontier-cold":
		return e.runFrontier(ctx, body, true)
	case "warm-resubmit":
		o := e.runFrontier(ctx, body, false)
		if o.fail == "" && !bytes.Equal(o.frontier.canon, b.prefill[i%b.distinct].frontier.canon) {
			o.failf("warm stream differs from its prefill pass")
		}
		return o
	default:
		return runScenario(ctx, body, &b.loadDur)
	}
}

// samples picks k distinct indexes below n from the seed.
func (b *bench) samples(stream string, n, k int) []int {
	r := newRNG(b.w.name, b.seed, stream)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	shuffle(r, idx)
	return idx[:min(k, n)]
}

// postChecks re-derives a seeded sample of the timed outputs outside
// the timed phase; a mismatch fails the op it came from.
func (b *bench) postChecks(ctx context.Context, e *env, outs []opOut) {
	switch b.w.name {
	case "jobs-cold":
		for _, i := range b.samples("check", len(outs), 4) {
			if outs[i].fail != "" {
				continue
			}
			if err := checkJobDirect(b.ops[i], outs[i].jobRows); err != nil {
				outs[i].failf("%v", err)
			}
		}
	case "frontier-cold":
		// A resubmission recomputes the explore bit-identically.
		for _, i := range b.samples("check", len(outs), 2) {
			if outs[i].fail != "" {
				continue
			}
			o := e.runFrontier(ctx, b.ops[i], true)
			if o.fail != "" {
				outs[i].failf("resubmission: %s", o.fail)
			} else if !bytes.Equal(o.frontier.canon, outs[i].frontier.canon) {
				outs[i].failf("resubmission stream differs")
			}
		}
	case "scenario-runs":
		for _, i := range b.samples("check", len(outs), 4) {
			if outs[i].fail != "" {
				continue
			}
			o := runScenario(ctx, b.ops[i], nil)
			if o.fail != "" || !bytes.Equal(o.digest, outs[i].digest) {
				outs[i].failf("re-run differs: %s", o.fail)
			}
		}
	}
}

// checkJobDirect holds every streamed cell of one /jobs op to a direct,
// uncached metrics.Characterize call.
func checkJobDirect(body []byte, rows []jobd.ResultRow) error {
	sp, err := jobd.ParseSpec(body)
	if err != nil {
		return err
	}
	for _, c := range sp.Expand() {
		got, err := characterizeCell(c)
		if err != nil {
			return fmt.Errorf("cell %d direct: %w", c.Index, err)
		}
		if jobd.EncodeScores(got) != *rows[c.Index].Scores {
			return fmt.Errorf("cell %d (%s): streamed scores differ from direct metrics.Characterize", c.Index, c.Proto)
		}
	}
	return nil
}

// characterizeCell scores one /jobs cell the way the daemon's workers
// do, but uncached: every run is simulated afresh.
func characterizeCell(c jobd.Cell) (metrics.Scores, error) {
	p, err := protocol.Parse(c.Proto)
	if err != nil {
		return metrics.Scores{}, err
	}
	cfg := fluid.Config{
		Bandwidth: fluid.MbpsToMSSps(c.Mbps),
		PropDelay: c.RTTms / 2000,
		Buffer:    c.BufferMSS,
	}
	return metrics.Characterize(cfg, p, c.Senders, metrics.Options{Steps: c.Steps, TailFrac: c.TailFrac, NoCache: true})
}
