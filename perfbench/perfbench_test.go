package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/jobd"
	"repro/internal/scenario"
)

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, _ := genOps(w.name, 7, "timed", 20)
		b, _ := genOps(w.name, 7, "timed", 20)
		c, _ := genOps(w.name, 8, "timed", 20)
		if !equalLists(a, b) {
			t.Errorf("%s: seed 7 gave two different op lists", w.name)
		}
		if equalLists(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", w.name)
		}
		warm, _ := genOps(w.name, 7, "warmup", 20)
		if equalLists(a, warm) {
			t.Errorf("%s: warm-up and timed streams coincide", w.name)
		}
	}
	fc, _ := genOps("frontier-cold", 7, "timed", 5)
	wr, _ := genOps("warm-resubmit", 7, "timed", 5)
	if equalLists(fc, wr) {
		t.Error("frontier-cold and warm-resubmit share an op list")
	}
}

func equalLists(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Every /jobs op carries exactly one protocol from a family without an
// SoA kernel, so a quarter of the cells take the fallback path.
func TestJobsFallbackShare(t *testing.T) {
	fallback, total := 0, 0
	for seed := uint64(1); seed <= 3; seed++ {
		bodies, cells := genOps("jobs-cold", seed, "timed", 10*jobsBlock)
		for i, body := range bodies {
			sp, err := jobd.ParseSpec(body)
			if err != nil {
				t.Fatalf("seed %d op %d: %v", seed, i, err)
			}
			if got := len(sp.Expand()); got != cells[i] {
				t.Fatalf("seed %d op %d: %d cells, generator says %d", seed, i, got, cells[i])
			}
			seen := map[string]bool{}
			perOp := 0
			for _, p := range sp.Protocols {
				if seen[p] {
					t.Errorf("seed %d op %d: protocol %s twice", seed, i, p)
				}
				seen[p] = true
				if strings.HasPrefix(p, "vegas") || strings.HasPrefix(p, "pcc") {
					perOp++
				}
			}
			if perOp != 1 {
				t.Errorf("seed %d op %d: %d fallback protocols in %v, want 1", seed, i, perOp, sp.Protocols)
			}
			if sp.Senders < 2 || sp.Senders > 4 {
				t.Errorf("seed %d op %d: senders %d outside {2, 3, 4}", seed, i, sp.Senders)
			}
			fallback += perOp
			total += len(sp.Protocols)
		}
	}
	if share := float64(fallback) / float64(total); share != 0.25 {
		t.Errorf("fallback share %v, want 0.25", share)
	}
}

// The scenario mix holds its model shares exactly over whole blocks,
// and every generated document loads.
func TestScenarioMix(t *testing.T) {
	const blocks = 8
	bodies, _ := genOps("scenario-runs", 3, "timed", blocks*len(scenarioBlock))
	count := map[string]int{}
	for i, body := range bodies {
		sp, err := scenario.Load(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		count[sp.Model]++
	}
	want := map[string]int{}
	for _, m := range scenarioBlock {
		want[m] += blocks
	}
	for m, n := range want {
		if count[m] != n {
			t.Errorf("%s: %d of %d ops, want %d", m, count[m], len(bodies), n)
		}
	}
	if count["nettopo"]+count["multilink"]+count["packet"] != len(bodies) {
		t.Errorf("unexpected models in %v", count)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending, so sorting matters
		}
		return out
	}
	if _, err := percentile(xs(99), 0.9); err == nil {
		t.Error("p90 of 99 samples accepted; only 9 lie beyond it")
	}
	if v, err := percentile(xs(100), 0.9); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(xs(19), 0.5); err == nil {
		t.Error("p50 of 19 samples accepted; only 9 lie beyond it")
	}
	if v, err := percentile(xs(20), 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, md, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6}, // CPython extrapolates below n=3
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 3, 6, 9},
	} {
		q1, md, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(md-tc.md) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, md, q3, tc.q1, tc.md, tc.q3)
		}
	}
}

// The names, units and directions the benchmark prints are BENCHMARK.json's.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	bf, err := readBenchFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []metricDef, want []struct{ name, unit, better string }) {
		if len(got) != len(want) {
			t.Errorf("%s: the benchmark prints %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i].name != want[i].name || got[i].unit != want[i].unit || got[i].better != want[i].better {
				t.Errorf("%s %d: benchmark %v, BENCHMARK.json %v", kind, i, got[i], want[i])
			}
		}
	}
	var e2e, pl []struct{ name, unit, better string }
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, struct{ name, unit, better string }{m.Name, m.Unit, m.Better})
	}
	for _, m := range bf.PerLayer {
		pl = append(pl, struct{ name, unit, better string }{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, pl)
}

// A small run of every workload passes its checks, and two runs of one
// seed produce the same output digest.
func TestWorkloadDigestsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	ctx := context.Background()
	for _, w := range workloads {
		var digests []string
		for rep := 0; rep < 2; rep++ {
			b := newBench(w, 5, 4, t.TempDir())
			e, err := b.setup(ctx, 0)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			ph := b.timed(ctx, e)
			b.postChecks(ctx, e, ph.outs)
			if err := e.close(); err != nil {
				t.Fatal(err)
			}
			for i, o := range ph.outs {
				if o.fail != "" {
					t.Errorf("%s op %d: %s", w.name, i, o.fail)
				}
			}
			digests = append(digests, digestOf(ph.outs))
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: digests %s and %s differ for one seed", w.name, digests[0], digests[1])
		}
	}
}

// The warm pass's canonical stream zeroes exactly the cache accounting,
// so a cold and a warm pass over one explore compare equal.
func TestCanonFrontierIgnoresCacheAccounting(t *testing.T) {
	r := jobd.FrontierRound{Round: 0, Evaluated: 4, Simulated: 4}
	s := jobd.FrontierSummary{Done: true, CellsEvaluated: 4, CellsSimulated: 4, ElapsedMS: 17}
	cold := canonFrontier([]jobd.FrontierRound{r}, s)
	r.Simulated, r.CacheHits = 0, 4
	s.CellsSimulated, s.CacheHits, s.ElapsedMS = 0, 4, 3
	if warm := canonFrontier([]jobd.FrontierRound{r}, s); !bytes.Equal(cold, warm) {
		t.Errorf("cold %s != warm %s", cold, warm)
	}
	var back jobd.FrontierRound
	if err := json.Unmarshal(bytes.SplitN(cold, []byte("\n"), 2)[0], &back); err != nil || back.Evaluated != 4 {
		t.Errorf("canonical round lost its evaluated count: %+v %v", back, err)
	}
}
