package main

import (
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/jobd"
	"repro/internal/scenario"
)

// Op generation. Every workload's inputs are a pure function of the
// workload name and the --seed flag: the same seed yields byte-identical
// request bodies, and the program under test sees nothing else.
//
// Ops are generated in blocks. Within a block every discrete choice (a
// protocol family, a sender count, a topology shape) appears in fixed
// proportions, and the size-setting continuous draws are stratified, so
// different seeds give different inputs but nearly the same total work:
// the run-to-run spread then measures the system, not the seed.

// rng is SplitMix64: tiny, seedable and stable across Go releases, which
// math/rand's global source is not.
type rng struct{ s uint64 }

func newRNG(workload string, seed uint64, stream string) *rng {
	h := uint64(0xcbf29ce484222325) // FNV-1a over the stream identity
	for _, b := range []byte(workload + "/" + stream) {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	return &rng{s: h ^ (seed * 0x9e3779b97f4a7c15)}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// round3 rounds to 3 decimals, so generated specs read like hand-written
// ones and round-trip through JSON exactly.
func round3(v float64) float64 {
	f, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'f', 3, 64), 64)
	return f
}

// uniform draws from [lo, hi).
func (r *rng) uniform(lo, hi float64) float64 { return round3(lo + (hi-lo)*r.float()) }

// strata returns n draws from [lo, hi), one in each of n equal strata,
// in shuffled order.
func (r *rng) strata(n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = round3(lo + (hi-lo)*(float64(i)+r.float())/float64(n))
	}
	shuffle(r, out)
	return out
}

// deal returns the items, each repeated count times, shuffled.
func deal[T any](r *rng, count int, items ...T) []T {
	out := make([]T, 0, count*len(items))
	for _, it := range items {
		for i := 0; i < count; i++ {
			out = append(out, it)
		}
	}
	shuffle(r, out)
	return out
}

// shuffle permutes s in place (Fisher–Yates).
func shuffle[T any](r *rng, s []T) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// ---- jobs-cold: POST /jobs ----

// jobsProtocols is k, the protocols per /jobs op; one of them always
// comes from a family that has no SoA kernel, so a quarter of all cells
// take the per-cell fluid.Link fallback path.
const jobsProtocols = 4

// jobsBlock is the number of /jobs ops over which every family and
// sender count appears in its fixed proportion.
const jobsBlock = 10

// kernelFamilies are the families fluid.Batch steps as one
// structure-of-arrays block.
var kernelFamilies = []string{"aimd", "mimd", "bin", "cubic", "raimd"}

func kernelProto(r *rng, family string) string {
	switch family {
	case "aimd":
		return "aimd:" + num(r.uniform(0.5, 2)) + "," + num(r.uniform(0.3, 0.9))
	case "mimd":
		return "mimd:" + num(r.uniform(1.01, 1.08)) + "," + num(r.uniform(0.5, 0.9))
	case "bin":
		return "bin:" + num(r.uniform(0.5, 1.5)) + "," + num(r.uniform(0.3, 0.8)) + "," + num(r.uniform(0.2, 1)) + "," + num(r.uniform(0.2, 1))
	case "cubic":
		return "cubic:" + num(r.uniform(0.2, 0.6)) + "," + num(r.uniform(0.6, 0.9))
	default:
		return "raimd:" + num(r.uniform(0.5, 2)) + "," + num(r.uniform(0.5, 0.9)) + "," + num(r.uniform(0.005, 0.05))
	}
}

// fallbackProto returns a seeded protocol from a family
// engine.SweepSpecs cannot batch. Of the four such families only vegas
// and pcc can be characterized: tfrc and bbr windows grow without bound
// on the infinite link of the FastUtilization probe, so every /jobs cell
// of theirs fails with "simulation diverged at step 1023".
func fallbackProto(r *rng, family string) string {
	if family == "vegas" {
		a := r.uniform(1, 3)
		return "vegas:" + num(a) + "," + num(a+r.uniform(1, 3))
	}
	return "pcc:" + num(r.uniform(10, 40))
}

// jobsOps builds one block of /jobs specs: each holds k distinct
// protocols × 2 links with senders from {2, 3, 4} and the default 4000
// steps. Link values are drawn per op, so no two ops share a cell and
// every cell simulates on a fresh store.
func jobsOps(r *rng) []jobd.Spec {
	senders := deal(r, 1, 2, 3, 4, 2, 3, 4, 2, 3, 4, 3) // mean 3 per block
	fallback := deal(r, jobsBlock/2, "vegas", "pcc")
	kernel := deal(r, jobsBlock*(jobsProtocols-1)/len(kernelFamilies), kernelFamilies...)
	slow, fast := r.strata(jobsBlock, 5, 20), r.strata(jobsBlock, 20, 60)
	rtt := r.strata(jobsBlock, 20, 80)
	out := make([]jobd.Spec, jobsBlock)
	for i := range out {
		protos := []string{fallbackProto(r, fallback[i])}
		for _, fam := range kernel[i*(jobsProtocols-1) : (i+1)*(jobsProtocols-1)] {
			protos = append(protos, kernelProto(r, fam))
		}
		shuffle(r, protos)
		out[i] = jobd.Spec{
			Protocols: protos,
			Senders:   senders[i],
			Link: jobd.LinkGrid{
				Mbps:      []float64{slow[i], fast[i]},
				RTTms:     []float64{rtt[i]},
				BufferMSS: []float64{r.uniform(0, 40)},
			},
		}
	}
	return out
}

// ---- frontier-cold and warm-resubmit: POST /frontier ----

// Explore geometry. frontier-cold uses the deepest search the daemon
// accepts: it caps the finest lattice at 4096 cells, so three refinement
// rounds at factor 2 need a coarse grid of 8 per axis (a 57×57 finest
// lattice; 9 would be 65×65 and is refused). warm-resubmit's prefill
// writes one store file per run, so its explores are smaller.
const (
	frontierSteps = 300
	frontierBlock = 10
)

// frontierOps builds one block of explorations over seeded dumbbell
// links.
func frontierOps(r *rng, coarse, rounds int) []jobd.FrontierSpec {
	mbps, rtt, buf := r.strata(frontierBlock, 5, 60), r.strata(frontierBlock, 20, 100), r.strata(frontierBlock, 0, 30)
	out := make([]jobd.FrontierSpec, frontierBlock)
	for i := range out {
		out[i] = jobd.FrontierSpec{
			Coarse:       coarse,
			Rounds:       rounds,
			RefineFactor: 2,
			Steps:        frontierSteps,
			Mbps:         mbps[i],
			RTTms:        rtt[i],
			BufferMSS:    buf[i],
		}
	}
	return out
}

// ---- scenario-runs: scenario.Load + Spec.RunContext ----

// Scenario sizes. A packet cell is the paper's 60 s Table 2 run, which
// costs about twice a nettopo op, so a block holds twice as many nettopo
// ops as packet ops: nettopo and packetsim then each take about half the
// timed CPU, and multilink chains a small rest.
const (
	topoSteps  = 40000
	chainSteps = 8000
)

var (
	topoShapes = []string{"parking-lot", "incast", "fat-tree", "random-dag"}
	// scenarioBlock is the model mix of every block of 20 ops.
	scenarioBlock = append(append(repeat("nettopo", 12), repeat("multilink", 2)...), repeat("packet", 6)...)
)

func repeat(s string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// scenarioOps renders one block of scenario documents, numbered from
// first. Each nettopo shape appears three times per block, once at each
// of its three sizes.
func scenarioOps(r *rng, first int) [][]byte {
	models := deal(r, 1, scenarioBlock...)
	type shaped struct {
		shape string
		size  int
	}
	var topo []shaped
	for _, sh := range topoShapes {
		for size := 0; size < 3; size++ {
			topo = append(topo, shaped{sh, size})
		}
	}
	shuffle(r, topo)
	red := deal(r, 3, false, true)
	pktMbps, pktRTT := r.strata(6, 20, 60), r.strata(6, 20, 60)
	var out [][]byte
	for i, model := range models {
		var s scenario.Spec
		switch model {
		case "nettopo":
			s = topoScenario(r, topo[0].shape, topo[0].size)
			topo = topo[1:]
		case "multilink":
			s = chainScenario(r)
		default:
			s = packetScenario(r, pktMbps[0], pktRTT[0], red[0])
			pktMbps, pktRTT, red = pktMbps[1:], pktRTT[1:], red[1:]
		}
		s.Name = fmt.Sprintf("%s-%d", s.Name, first+i)
		s.Model = model
		raw, err := json.Marshal(s)
		if err != nil {
			panic(err) // a scenario.Spec of plain values always marshals
		}
		out = append(out, raw)
	}
	return out
}

func lossProto(r *rng) string {
	if r.intn(3) == 0 {
		return "reno"
	}
	return kernelProto(r, kernelFamilies[r.intn(len(kernelFamilies))])
}

// chainLinks builds hops links in a line; named links let nettopo
// validate the wiring.
func chainLinks(r *rng, hops int, named bool) []scenario.Link {
	links := make([]scenario.Link, hops)
	for i := range links {
		links[i] = scenario.Link{Mbps: r.uniform(10, 50), RTTms: r.uniform(5, 30), BufferMSS: r.uniform(5, 40)}
		if named {
			links[i].Src, links[i].Dst = fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)
		}
	}
	return links
}

// parkingLotFlows puts one long flow over every hop plus one short flow
// per hop.
func parkingLotFlows(r *rng, hops int) []scenario.Flow {
	long := make([]int, hops)
	for i := range long {
		long[i] = i
	}
	flows := []scenario.Flow{{Protocol: lossProto(r), Path: long}}
	for i := 0; i < hops; i++ {
		flows = append(flows, scenario.Flow{Protocol: lossProto(r), Path: []int{i}})
	}
	return flows
}

// topoScenario builds one nettopo scenario of the shape at size 0, 1
// or 2.
func topoScenario(r *rng, shape string, size int) scenario.Spec {
	s := scenario.Spec{Name: shape, Steps: topoSteps, Seed: r.next() >> 1}
	switch shape {
	case "parking-lot":
		hops := 2 + size
		s.Links = chainLinks(r, hops, true)
		s.Flows = parkingLotFlows(r, hops)
	case "incast": // senders fan into one switch, then share its egress
		n := 3 + 2*size
		for i := 0; i < n; i++ {
			s.Links = append(s.Links, scenario.Link{Mbps: r.uniform(20, 60), RTTms: r.uniform(4, 12), BufferMSS: r.uniform(10, 30),
				Src: fmt.Sprintf("s%d", i), Dst: "sw"})
		}
		s.Links = append(s.Links, scenario.Link{Mbps: r.uniform(20, 60), RTTms: r.uniform(10, 30), BufferMSS: r.uniform(20, 60), Src: "sw", Dst: "sink"})
		for i := 0; i < n; i++ {
			s.Flows = append(s.Flows, scenario.Flow{Protocol: lossProto(r), Path: []int{i, n}})
		}
	case "fat-tree": // 2 edges × 2 hosts → aggregation → core
		for e := 0; e < 2; e++ {
			for h := 0; h < 2; h++ {
				s.Links = append(s.Links, scenario.Link{Mbps: r.uniform(20, 50), RTTms: r.uniform(2, 8), BufferMSS: r.uniform(10, 30),
					Src: fmt.Sprintf("h%d%d", e, h), Dst: fmt.Sprintf("e%d", e)})
			}
		}
		for e := 0; e < 2; e++ {
			s.Links = append(s.Links, scenario.Link{Mbps: r.uniform(30, 80), RTTms: r.uniform(4, 12), BufferMSS: r.uniform(20, 50),
				Src: fmt.Sprintf("e%d", e), Dst: "agg"})
		}
		s.Links = append(s.Links, scenario.Link{Mbps: r.uniform(40, 100), RTTms: r.uniform(10, 30), BufferMSS: r.uniform(30, 80), Src: "agg", Dst: "core"})
		for e := 0; e < 2; e++ {
			for h := 0; h < 2; h++ {
				s.Flows = append(s.Flows, scenario.Flow{Protocol: lossProto(r), Path: []int{2*e + h, 4 + e, 6}})
			}
		}
	default: // random DAG: a line of nodes plus seeded forward shortcuts
		nodes := 4 + size
		type edge struct{ a, b int }
		var edges []edge
		for i := 0; i+1 < nodes; i++ {
			edges = append(edges, edge{i, i + 1})
		}
		for k := 0; k < 2; k++ {
			a := r.intn(nodes - 2)
			edges = append(edges, edge{a, a + 2 + r.intn(nodes-a-2)})
		}
		for _, e := range edges {
			s.Links = append(s.Links, scenario.Link{Mbps: r.uniform(10, 60), RTTms: r.uniform(4, 20), BufferMSS: r.uniform(5, 40),
				Src: fmt.Sprintf("v%d", e.a), Dst: fmt.Sprintf("v%d", e.b)})
		}
		// Each flow walks forward from a random node, taking any edge out
		// of the current node, until it reaches the last node.
		for f := 0; f < 3+size; f++ {
			cur := r.intn(nodes - 1)
			var path []int
			for cur != nodes-1 {
				var outs []int
				for i, e := range edges {
					if e.a == cur {
						outs = append(outs, i)
					}
				}
				li := outs[r.intn(len(outs))]
				path = append(path, li)
				cur = edges[li].b
			}
			s.Flows = append(s.Flows, scenario.Flow{Protocol: lossProto(r), Path: path, ExtraRTTms: r.uniform(0, 20)})
		}
	}
	return s
}

func chainScenario(r *rng) scenario.Spec {
	const hops = 3
	return scenario.Spec{
		Name:  "chain",
		Steps: chainSteps,
		Links: chainLinks(r, hops, false),
		Flows: parkingLotFlows(r, hops),
	}
}

// packetScenario is a Table 2 style cell: Robust-AIMD against Reno on
// one bottleneck, droptail or RED.
func packetScenario(r *rng, mbps, rtt float64, red bool) scenario.Spec {
	s := scenario.Spec{
		Name:     "table2-cell",
		Duration: 60,
		Seed:     r.next() >> 1,
		Link:     &scenario.Link{Mbps: mbps, RTTms: rtt, BufferMSS: float64(20 + r.intn(80))},
	}
	if red {
		s.Name = "table2-red"
		buf := int(s.Link.BufferMSS)
		s.Link.RED = &scenario.REDSpec{MinThresh: buf / 4, MaxThresh: 3 * buf / 4, MaxP: r.uniform(0.05, 0.2)}
	}
	s.Flows = []scenario.Flow{
		{Protocol: "raimd:1," + num(r.uniform(0.6, 0.9)) + "," + num(r.uniform(0.005, 0.03))},
		{Protocol: "reno", Start: r.uniform(0, 2)},
	}
	return s
}
