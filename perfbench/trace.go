package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/fluid"
	"repro/internal/jobd"
	"repro/internal/metrics"
	"repro/internal/nettopo"
	"repro/internal/obs"
	"repro/internal/packetsim"
	"repro/internal/protocol"
	"repro/internal/runstore"
	"repro/internal/scenario"
)

// The traced run. It repeats the workload's timed phase three ways on
// the same generated list:
//
//  1. untraced, as the reference for trace.overhead_frac and for the Go
//     runtime figures (tracing itself allocates);
//  2. traced, on a fresh set-up (warm-resubmit replays its warm store
//     again), with obs.Enable and obs.EnableTimeline reading the spans
//     and counters the program already emits, plus the benchmark's own
//     spans around each public call;
//  3. a direct replay of a seeded sample, timing the layer entry points
//     themselves: metrics.Characterize, nettopo.Network.Run,
//     packetsim.Run, and a fresh Session's disk hits.
//
// Spans stay in memory and are written once, at the end, as Chrome
// trace-event JSON (load it in ui.perfetto.dev).

// perLayer lists every per-layer metric with its unit; a test holds it
// equal to BENCHMARK.json. Layers idle on a workload report 0.
var perLayer = []metricDef{
	{"jobd.post_ms", "ms", "lower"},
	{"jobd.first_row_ms", "ms", "lower"},
	{"jobd.self_ms", "ms", "lower"},
	{"jobd.cells_simulated", "count", "lower"},
	{"jobd.cells_cached", "count", "higher"},
	{"jobd.cells_failed", "count", "lower"},
	{"jobd.cells_retried", "count", "lower"},
	{"pareto.cells_evaluated", "count", "lower"},
	{"pareto.cells_simulated", "count", "lower"},
	{"pareto.cells_pruned", "count", "higher"},
	{"pareto.rounds", "count", "lower"},
	{"pareto.self_ms", "ms", "lower"},
	{"pareto.frontier_yield", "ratio", "higher"},
	{"metrics.characterize_ms", "ms", "lower"},
	{"metrics.session.hits", "count", "higher"},
	{"metrics.session.misses", "count", "lower"},
	{"metrics.session.disk_hits", "count", "higher"},
	{"metrics.session.hit_ratio", "ratio", "higher"},
	{"metrics.session.simulate_ms", "ms", "lower"},
	{"metrics.session.wait_ms", "ms", "lower"},
	{"metrics.session.disk_hit_us", "us", "lower"},
	{"engine.runs.fluid", "count", "lower"},
	{"engine.runs.packet", "count", "lower"},
	{"engine.runs.net", "count", "lower"},
	{"engine.runs.topo", "count", "lower"},
	{"engine.steps.fluid", "count", "lower"},
	{"engine.steps.packet", "count", "lower"},
	{"engine.steps.net", "count", "lower"},
	{"engine.steps.topo", "count", "lower"},
	{"engine.batched_frac", "ratio", "higher"},
	{"engine.batch.precompute_ms", "ms", "lower"},
	{"engine.batch.step_ms", "ms", "lower"},
	{"engine.batch.emit_ms", "ms", "lower"},
	{"fluid.batch_steps_per_s", "steps/s", "higher"},
	{"fluid.link_steps_per_s", "steps/s", "higher"},
	{"nettopo.steps_per_s", "steps/s", "higher"},
	{"nettopo.allocs_per_step", "allocs", "lower"},
	{"multilink.steps_per_s", "steps/s", "higher"},
	{"packetsim.pkts_per_s", "pkts/s", "higher"},
	{"packetsim.allocs_per_pkt", "allocs", "lower"},
	{"runstore.get_us", "us", "lower"},
	{"runstore.put_us", "us", "lower"},
	{"runstore.flock_wait_ms", "ms", "lower"},
	{"runstore.hits", "count", "higher"},
	{"runstore.misses", "count", "lower"},
	{"runstore.puts", "count", "lower"},
	{"runstore.bytes", "bytes", "lower"},
	{"scenario.load_us", "us", "lower"},
	{"go.alloc_mb_per_cell", "MB", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_cpu_frac", "ratio", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// span is one completed span: the program's (from the obs timeline) or
// the benchmark's own. Times are microseconds from the timeline's start.
type span struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Cat  string  `json:"cat,omitempty"`
	Args any     `json:"args,omitempty"`
}

func (s span) end() float64 { return s.Ts + s.Dur }

func (s span) detail() string {
	if m, ok := s.Args.(map[string]any); ok {
		d, _ := m["detail"].(string)
		return d
	}
	return ""
}

// ledger accumulates the per-layer metrics of one traced run.
type ledger map[string]float64

func (b *bench) traced(ctx context.Context, e *env, cfg config, errw io.Writer) (res *result, err error) {
	defer func() {
		if e == nil {
			return
		}
		if cerr := e.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	led := ledger{}
	for _, m := range perLayer {
		led[m.name] = 0
	}

	// 1. Untraced reference pass, with the Go runtime figures.
	rt0 := readRuntime()
	ref := b.timed(ctx, e)
	rt1 := readRuntime()
	b.postChecks(ctx, e, ref.outs)
	refCells := cellsOf(ref.outs)
	if refCells > 0 {
		led["go.alloc_mb_per_cell"] = (rt1.allocBytes - rt0.allocBytes) / 1e6 / float64(refCells)
	}
	led["go.gc_cycles"] = rt1.gcCycles - rt0.gcCycles
	if cpu := rt1.cpuSeconds - rt0.cpuSeconds; cpu > 0 {
		led["go.gc_cpu_frac"] = (rt1.gcSeconds - rt0.gcSeconds) / cpu
	}

	// 2. Traced pass, on a fresh system unless the workload replays a
	// warm store. The reference system goes first, so its memory does
	// not add to the traced pass's.
	if b.w.name != "warm-resubmit" {
		old := e
		e = nil
		if err := old.close(); err != nil {
			return nil, err
		}
		if e, err = b.setup(ctx, setupReps); err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
	}
	// The timeline keeps at most 2^19 spans, fewer than a long pass
	// makes, so spans are collected and summed block by block; the first
	// block's spans are kept for the written trace.
	var sums spanSums
	var kept []span
	var terr error
	b.onChunk = func() {
		evs, err := collectTimeline()
		if err != nil {
			terr = err
		}
		sums.add(evs)
		if kept == nil {
			kept = evs
		}
		obs.EnableTimeline() // clears the collected spans
	}
	obs.Reset()
	obs.Enable()
	obs.EnableTimeline()
	ph := b.timed(ctx, e)
	b.onChunk = nil
	obs.DisableTimeline()
	snap := obs.TakeSnapshot()
	obs.Disable()
	if terr != nil {
		return nil, terr
	}
	if ref.wall > 0 {
		led["trace.overhead_frac"] = ph.wall.Seconds()/ref.wall.Seconds() - 1
	}
	b.fromTrace(led, &sums, snap, ph, e)

	// 3. Direct replays of a seeded sample.
	replays, err := b.replay(ctx, led, ph.outs)
	if err != nil {
		return nil, err
	}

	failed := 0
	for i := range ph.outs {
		if ph.outs[i].fail != "" || ref.outs[i].fail != "" {
			failed++
			if failed <= 5 {
				fmt.Fprintf(errw, "perfbench: op %d failed: %s%s\n", i, ref.outs[i].fail, ph.outs[i].fail)
			}
		}
	}
	b.digest = digestOf(ph.outs)

	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", b.w.name, b.seed))
	if err := writeTrace(path, kept, replays); err != nil {
		return nil, err
	}
	fmt.Fprintf(errw, "  trace of the first block written to %s (%d spans)\n", path, len(kept)+len(replays))

	res = &result{Correct: failed == 0, Attempted: len(ph.outs), Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{led[m.name], m.unit}
	}
	printMetrics(errw, res.Metrics)
	return res, nil
}

func cellsOf(outs []opOut) int {
	n := 0
	for _, o := range outs {
		n += o.cells
	}
	return n
}

// collectTimeline waits for in-flight spans to close (a daemon span can
// end just after the client read its trailer), then returns the
// collected timeline.
func collectTimeline() ([]span, error) {
	for deadline := time.Now().Add(time.Second); len(obs.ActiveSpans()) > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	raw, err := obs.TimelineJSON("perfbench")
	if err != nil {
		return nil, err
	}
	var tf struct {
		TraceEvents []span `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		return nil, fmt.Errorf("timeline: %w", err)
	}
	return tf.TraceEvents, nil
}

// spanSums accumulates the span-derived totals of the traced pass, one
// timeline segment at a time. Times are milliseconds.
type spanSums struct {
	jobdSelf, paretoSelf, simulate, wait     float64
	precompute, step, emit, runFluid, runNet float64
	flock, getMS, putMS                      float64
	gets, puts                               int
	gridSteps                                float64
}

func (a *spanSums) add(evs []span) {
	var spans []span
	for _, ev := range evs {
		switch {
		case ev.Ph == "X":
			spans = append(spans, ev)
		case ev.Name == "obs.timeline.dropped":
			fmt.Fprintf(os.Stderr, "perfbench: the timeline dropped spans (%v); span-based figures undercount\n", ev.Args)
		}
	}
	pick := func(match func(string) bool) []span {
		var out []span
		for _, s := range spans {
			if match(s.Name) {
				out = append(out, s)
			}
		}
		return out
	}
	is := func(names ...string) func(string) bool {
		return func(n string) bool {
			for _, x := range names {
				if n == x {
					return true
				}
			}
			return false
		}
	}
	prefix := func(ps ...string) func(string) bool {
		return func(n string) bool {
			for _, p := range ps {
				if strings.HasPrefix(n, p) {
					return true
				}
			}
			return false
		}
	}
	ms := func(ss []span) float64 {
		t := 0.0
		for _, s := range ss {
			t += s.Dur
		}
		return t / 1e3
	}
	// A layer's self time is its spans' wall time not covered by any
	// deeper layer's span.
	a.jobdSelf += selfMS(pick(is("jobd.job", "jobd.frontier")), pick(prefix("pareto.", "metrics.", "engine.", "runstore.")))
	a.paretoSelf += selfMS(pick(is("pareto.explore.round")), pick(prefix("metrics.", "engine.", "runstore.")))
	a.simulate += ms(pick(prefix("metrics.session.simulate")))
	a.wait += ms(pick(is("metrics.session.wait")))
	a.precompute += ms(pick(is("engine.batch.precompute")))
	a.step += ms(pick(is("engine.batch.step")))
	a.emit += ms(pick(is("engine.batch.emit")))
	a.runFluid += ms(pick(is("engine.run.fluid")))
	a.runNet += ms(pick(is("engine.run.net")))
	a.flock += ms(pick(is("runstore.flock.wait")))
	gets, puts := pick(is("runstore.get")), pick(is("runstore.put"))
	a.getMS += ms(gets)
	a.putMS += ms(puts)
	a.gets += len(gets)
	a.puts += len(puts)
	for _, g := range pick(is("engine.batch.group")) {
		// detail: "<cells> cells × <steps> steps"
		f := strings.Fields(g.detail())
		if len(f) >= 4 {
			cells, err1 := strconv.Atoi(f[0])
			steps, err2 := strconv.Atoi(f[3])
			if err1 == nil && err2 == nil {
				a.gridSteps += float64(cells * steps)
			}
		}
	}
}

// fromTrace derives the per-layer metrics of the traced pass from its
// span totals, the registry's counters, and the ops' own outputs.
func (b *bench) fromTrace(led ledger, a *spanSums, snap obs.Snapshot, ph phase, e *env) {
	ops := float64(len(ph.outs))
	c := func(name string) float64 { return float64(snap.Counters[name]) }

	// jobd: the client's view of each POST and the daemon's trailers.
	var posts, firsts []float64
	for _, o := range ph.outs {
		if o.firstRow > 0 {
			posts = append(posts, float64(o.lat)/1e6)
			firsts = append(firsts, float64(o.firstRow)/1e6)
		}
		s := o.jobSum
		led["jobd.cells_simulated"] += float64(s.Simulated)
		led["jobd.cells_cached"] += float64(s.CacheHits)
		led["jobd.cells_failed"] += float64(s.Failed)
		led["jobd.cells_retried"] += float64(s.Retried)
		if f := o.frontier; f != nil {
			led["jobd.cells_simulated"] += float64(f.sum.CellsSimulated)
			led["jobd.cells_cached"] += float64(f.sum.CacheHits)
			led["pareto.cells_evaluated"] += float64(f.sum.CellsEvaluated)
			led["pareto.rounds"] += float64(f.sum.Rounds)
			led["pareto.frontier_yield"] += float64(f.sum.FrontierPoints)
		}
	}
	if len(posts) > 0 {
		led["jobd.post_ms"] = median(posts)
		led["jobd.first_row_ms"] = median(firsts)
	}
	led["jobd.self_ms"] = a.jobdSelf / ops

	// pareto
	led["pareto.cells_simulated"] = c("pareto.explore.cells.simulated")
	led["pareto.cells_pruned"] = c("pareto.explore.cells.pruned")
	if n := led["pareto.cells_evaluated"]; n > 0 {
		led["pareto.frontier_yield"] /= n
	}
	led["pareto.self_ms"] = a.paretoSelf / ops

	// metrics.Session
	hits, misses, disk := c("metrics.session.hits"), c("metrics.session.misses"), c("metrics.session.disk_hits")
	led["metrics.session.hits"], led["metrics.session.misses"], led["metrics.session.disk_hits"] = hits, misses, disk
	if all := hits + misses + disk; all > 0 {
		led["metrics.session.hit_ratio"] = (hits + disk) / all
	}
	led["metrics.session.simulate_ms"] = a.simulate / ops
	led["metrics.session.wait_ms"] = a.wait / ops

	// engine and the steppers
	for _, k := range []string{"fluid", "packet", "net", "topo"} {
		led["engine.runs."+k] = c("engine.runs." + k)
		led["engine.steps."+k] = c("engine.steps." + k)
	}
	batched, fallback := c("engine.sweep.cells.batched"), c("engine.sweep.cells.fallback")
	if batched+fallback > 0 {
		led["engine.batched_frac"] = batched / (batched + fallback)
	}
	led["engine.batch.precompute_ms"] = a.precompute / ops
	led["engine.batch.step_ms"] = a.step / ops
	led["engine.batch.emit_ms"] = a.emit / ops
	if a.step > 0 {
		led["fluid.batch_steps_per_s"] = a.gridSteps / (a.step / 1e3)
	}
	if a.runFluid > 0 {
		led["fluid.link_steps_per_s"] = (c("engine.steps.fluid") - a.gridSteps) / (a.runFluid / 1e3)
	}
	if a.runNet > 0 {
		led["multilink.steps_per_s"] = c("engine.steps.net") / (a.runNet / 1e3)
	}

	// runstore
	if a.gets > 0 {
		led["runstore.get_us"] = a.getMS * 1e3 / float64(a.gets)
	}
	if a.puts > 0 {
		led["runstore.put_us"] = a.putMS * 1e3 / float64(a.puts)
	}
	led["runstore.flock_wait_ms"] = a.flock / ops
	led["runstore.hits"], led["runstore.misses"], led["runstore.puts"] = c("runstore.hits"), c("runstore.misses"), c("runstore.puts")
	if e.store != nil {
		led["runstore.bytes"] = float64(e.store.Stats().Bytes)
	}

	// scenario
	if b.w.name == "scenario-runs" {
		led["scenario.load_us"] = float64(b.loadDur.Microseconds()) / ops
	}
}

// selfMS sums, over the parent spans, the wall time no child span
// covers, in milliseconds. Children are any spans of deeper layers that
// overlap the parent; with one closed-loop client every such span
// belongs to the parent's op, whichever goroutine ran it.
func selfMS(parents, children []span) float64 {
	// Merge the children into disjoint intervals.
	sort.Slice(children, func(i, j int) bool { return children[i].Ts < children[j].Ts })
	var iv [][2]float64
	for _, c := range children {
		if n := len(iv); n > 0 && c.Ts <= iv[n-1][1] {
			iv[n-1][1] = max(iv[n-1][1], c.end())
			continue
		}
		iv = append(iv, [2]float64{c.Ts, c.end()})
	}
	self := 0.0
	for _, p := range parents {
		covered := 0.0
		i := sort.Search(len(iv), func(i int) bool { return iv[i][1] > p.Ts })
		for ; i < len(iv) && iv[i][0] < p.end(); i++ {
			covered += min(iv[i][1], p.end()) - max(iv[i][0], p.Ts)
		}
		self += p.Dur - covered
	}
	return self / 1e3
}

// replay times the layer entry points directly on a seeded sample of
// the run's inputs (tracing off), and returns the benchmark's spans.
func (b *bench) replay(ctx context.Context, led ledger, outs []opOut) ([]span, error) {
	var spans []span
	t0 := time.Now()
	rec := func(name string, start time.Time, d time.Duration) {
		spans = append(spans, span{Name: name, Ph: "X", Cat: "benchmark", Pid: 2, Tid: 1,
			Ts: float64(start.Sub(t0).Nanoseconds()) / 1e3, Dur: float64(d.Nanoseconds()) / 1e3})
	}
	switch b.w.name {
	case "jobs-cold":
		var ms []float64
		for _, i := range b.samples("replay", len(b.ops), 3) {
			sp, err := jobd.ParseSpec(b.ops[i])
			if err != nil {
				return nil, err
			}
			for _, c := range sp.Expand()[:2] {
				start := time.Now()
				if _, err := characterizeCell(c); err != nil {
					return nil, fmt.Errorf("replay characterize %s: %w", c.Proto, err)
				}
				d := time.Since(start)
				rec("bench.direct.characterize", start, d)
				ms = append(ms, float64(d)/1e6)
			}
		}
		led["metrics.characterize_ms"] = median(ms)

		// The daemon runs memory-only here, so the store's write and read
		// paths are timed directly: every streamed cell's scores go into
		// a scratch store under the row's key and come back bit-exact.
		st, err := runstore.Open(filepath.Join(b.work, "replay-store"), runstore.Options{})
		if err != nil {
			return nil, err
		}
		var puts, gets []float64
		for _, o := range outs {
			for _, r := range o.jobRows {
				payload, err := json.Marshal(r.Scores)
				if err != nil {
					return nil, err
				}
				start := time.Now()
				if err := st.Put(r.Key, payload); err != nil {
					return nil, fmt.Errorf("replay put: %w", err)
				}
				d := time.Since(start)
				rec("bench.direct.runstore.put", start, d)
				puts = append(puts, float64(d)/1e3)
				start = time.Now()
				got, ok := st.Get(r.Key)
				d = time.Since(start)
				rec("bench.direct.runstore.get", start, d)
				gets = append(gets, float64(d)/1e3)
				if !ok || !bytes.Equal(got, payload) {
					return nil, fmt.Errorf("replay: store returned other bytes for %s", r.Key)
				}
			}
		}
		led["runstore.put_us"], led["runstore.get_us"] = mean(puts), mean(gets)
	case "warm-resubmit":
		// A fresh Session on the warm store resolves sampled explores'
		// runs as disk hits — the read path each /frontier op takes.
		var total time.Duration
		hits := int64(0)
		for _, i := range b.samples("replay", b.distinct, 3) {
			var fs jobd.FrontierSpec
			if err := json.Unmarshal(b.ops[i], &fs); err != nil {
				return nil, err
			}
			sets := frontierRunSets(&fs, b.prefill[i].frontier.rounds)
			sess := metrics.NewSession()
			start := time.Now()
			if _, err := metrics.Prefetch(sets, metrics.Options{Steps: fs.Steps, Session: sess}); err != nil {
				return nil, fmt.Errorf("replay disk hits: %w", err)
			}
			d := time.Since(start)
			rec("bench.direct.session.disk_hits", start, d)
			total += d
			st := sess.Stats()
			if st.Misses != 0 {
				return nil, fmt.Errorf("replay on the warm store simulated %d runs", st.Misses)
			}
			hits += st.DiskHits
		}
		if hits > 0 {
			led["metrics.session.disk_hit_us"] = float64(total.Microseconds()) / float64(hits)
		}
	case "scenario-runs":
		var topoSteps, pkts int64
		var topoDur, pktDur time.Duration
		var topoAllocs, pktAllocs uint64
		for _, i := range b.samples("replay", len(b.ops), 30) {
			spec, err := scenario.Load(bytes.NewReader(b.ops[i]))
			if err != nil {
				return nil, err
			}
			switch spec.Model {
			case "nettopo":
				net, err := topoNetwork(spec)
				if err != nil {
					return nil, err
				}
				m0, start := mallocs(), time.Now()
				if _, err := net.RunObserved(ctx, spec.Steps, false, nil); err != nil {
					return nil, err
				}
				d := time.Since(start)
				topoAllocs += mallocs() - m0
				rec("bench.direct.nettopo.run", start, d)
				topoDur += d
				topoSteps += int64(spec.Steps)
			case "packet":
				cfg, flows, err := packetConfig(spec)
				if err != nil {
					return nil, err
				}
				m0, start := mallocs(), time.Now()
				r, err := packetsim.Run(cfg, flows, spec.Duration)
				if err != nil {
					return nil, err
				}
				d := time.Since(start)
				pktAllocs += mallocs() - m0
				rec("bench.direct.packetsim.run", start, d)
				pktDur += d
				for _, n := range r.Delivered {
					pkts += n
				}
			}
		}
		if topoSteps > 0 {
			led["nettopo.steps_per_s"] = float64(topoSteps) / topoDur.Seconds()
			led["nettopo.allocs_per_step"] = float64(topoAllocs) / float64(topoSteps)
		}
		if pkts > 0 {
			led["packetsim.pkts_per_s"] = float64(pkts) / pktDur.Seconds()
			led["packetsim.allocs_per_pkt"] = float64(pktAllocs) / float64(pkts)
		}
	}
	return spans, nil
}

// frontierRunSets rebuilds the run-sets pareto.AIMDEvaluator prefetches
// for the cells an explore streamed as frontier points: the AIMD cell
// alone, and against one Reno. Each cell appears once.
func frontierRunSets(fs *jobd.FrontierSpec, rounds []jobd.FrontierRound) []metrics.RunSet {
	cfg := fluid.Config{Bandwidth: fluid.MbpsToMSSps(fs.Mbps), PropDelay: fs.RTTms / 2000, Buffer: fs.BufferMSS}
	var sets []metrics.RunSet
	seen := map[[2]string]bool{}
	for _, r := range rounds {
		for _, p := range r.Frontier {
			if k := [2]string{p.AlphaBits, p.BetaBits}; seen[k] {
				continue
			} else {
				seen[k] = true
			}
			a := protocol.NewAIMD(p.Alpha, p.Beta)
			sets = append(sets,
				metrics.RunSet{Cfg: cfg, Protos: []protocol.Protocol{a}},
				metrics.RunSet{Cfg: cfg, Protos: []protocol.Protocol{a, protocol.Reno()}})
		}
	}
	return sets
}

// topoNetwork builds the nettopo network a scenario describes, the way
// the scenario runner converts paper units.
func topoNetwork(s *scenario.Spec) (*nettopo.Network, error) {
	links := make([]nettopo.LinkSpec, len(s.Links))
	for i, l := range s.Links {
		links[i] = nettopo.LinkSpec{Bandwidth: fluid.MbpsToMSSps(l.Mbps), PropDelay: l.RTTms / 2000, Buffer: l.BufferMSS, Src: l.Src, Dst: l.Dst}
	}
	flows := make([]nettopo.FlowSpec, len(s.Flows))
	for i, f := range s.Flows {
		p, err := protocol.Parse(f.Protocol)
		if err != nil {
			return nil, err
		}
		flows[i] = nettopo.FlowSpec{Proto: p, Init: 1, Path: f.Path, ExtraRTT: f.ExtraRTTms / 1000}
	}
	return nettopo.New(links, flows)
}

// packetConfig builds the packetsim inputs of a packet scenario.
func packetConfig(s *scenario.Spec) (packetsim.Config, []packetsim.Flow, error) {
	cfg := packetsim.Config{
		Bandwidth:  fluid.MbpsToMSSps(s.Link.Mbps),
		PropDelay:  s.Link.RTTms / 2000,
		Buffer:     int(s.Link.BufferMSS),
		RandomLoss: s.Link.RandomLoss,
		Seed:       s.Seed,
	}
	if s.Link.RED != nil {
		cfg.Queue = packetsim.NewRED(s.Link.RED.MinThresh, s.Link.RED.MaxThresh, s.Link.RED.MaxP, cfg.Buffer)
	}
	flows := make([]packetsim.Flow, len(s.Flows))
	for i, f := range s.Flows {
		p, err := protocol.Parse(f.Protocol)
		if err != nil {
			return cfg, nil, err
		}
		flows[i] = packetsim.Flow{Proto: p, Init: 1, Start: f.Start, ExtraDelay: f.ExtraDelayMs / 1000}
	}
	return cfg, flows, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runtimeFigures is a snapshot of the Go runtime counters the ledger
// differences.
type runtimeFigures struct {
	allocBytes, gcCycles, gcSeconds, cpuSeconds float64
}

func readRuntime() runtimeFigures {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case rtmetrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case rtmetrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeFigures{allocBytes: v(0), gcCycles: v(1), gcSeconds: v(2), cpuSeconds: v(3)}
}

// writeTrace writes the program's and the benchmark's spans as one Chrome
// trace-event file.
func writeTrace(path string, program, own []span) error {
	all := append(append([]span(nil), program...), own...)
	raw, err := json.Marshal(map[string]any{"traceEvents": all, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
