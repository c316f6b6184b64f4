package nettopo

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/fluid"
	"repro/internal/protocol"
	"repro/internal/stats"
)

// oneLink is a 100-MSS-capacity link matching the fluid tests' setup.
func oneLink() LinkSpec {
	theta := 0.021
	return LinkSpec{
		Bandwidth: 100 / (2 * theta),
		PropDelay: theta,
		Buffer:    20,
	}
}

func namedLink(src, dst string) LinkSpec {
	l := oneLink()
	l.Src, l.Dst = src, dst
	return l
}

func renoFlow(path ...int) FlowSpec {
	return FlowSpec{Proto: protocol.Reno(), Init: 1, Path: path}
}

type invalidCase struct {
	name  string
	links []LinkSpec
	flows []FlowSpec
}

func expectRejected(t *testing.T, cases []invalidCase) {
	t.Helper()
	for _, c := range cases {
		if _, err := New(c.links, c.flows); err == nil {
			t.Errorf("%s: invalid network accepted", c.name)
		}
	}
}

// TestAnonymousLinkValidation covers the errors a network of anonymous links
// can make: empty inputs, a bad link, a bad flow or a bad path.
func TestAnonymousLinkValidation(t *testing.T) {
	good := oneLink()
	expectRejected(t, []invalidCase{
		{"no links", nil, []FlowSpec{renoFlow(0)}},
		{"no flows", []LinkSpec{good}, nil},
		{"zero bandwidth", []LinkSpec{{Bandwidth: 0, PropDelay: 1}}, []FlowSpec{renoFlow(0)}},
		{"nil proto", []LinkSpec{good}, []FlowSpec{{Proto: nil, Init: 1, Path: []int{0}}}},
		{"empty path", []LinkSpec{good}, []FlowSpec{{Proto: protocol.Reno(), Init: 1}}},
		{"unknown link", []LinkSpec{good}, []FlowSpec{renoFlow(1)}},
		{"repeated link", []LinkSpec{good}, []FlowSpec{renoFlow(0, 0)}},
	})
}

// TestValidation covers the errors of extra RTT and of named topologies.
func TestValidation(t *testing.T) {
	good := oneLink()
	expectRejected(t, []invalidCase{
		{"negative extra rtt", []LinkSpec{good}, []FlowSpec{{Proto: protocol.Reno(), Init: 1, Path: []int{0}, ExtraRTT: -1}}},
		{"half-named link", []LinkSpec{{Bandwidth: 1, PropDelay: 1, Src: "a"}}, []FlowSpec{renoFlow(0)}},
		{"self-loop", []LinkSpec{{Bandwidth: 1, PropDelay: 1, Src: "a", Dst: "a"}}, []FlowSpec{renoFlow(0)}},
		{"mixed naming", []LinkSpec{namedLink("a", "b"), oneLink()}, []FlowSpec{renoFlow(0), renoFlow(1)}},
		{"cycle", []LinkSpec{namedLink("a", "b"), namedLink("b", "c"), namedLink("c", "a")},
			[]FlowSpec{renoFlow(0)}},
		{"discontiguous path", []LinkSpec{namedLink("a", "b"), namedLink("c", "d")},
			[]FlowSpec{renoFlow(0, 1)}},
		{"backwards path", []LinkSpec{namedLink("a", "b"), namedLink("b", "c")},
			[]FlowSpec{renoFlow(1, 0)}},
	})
}

func TestNamedTopologyAccepted(t *testing.T) {
	// Diamond DAG: a→b, a→c, b→d, c→d. Two node-disjoint paths.
	links := []LinkSpec{
		namedLink("a", "b"), namedLink("a", "c"),
		namedLink("b", "d"), namedLink("c", "d"),
	}
	n, err := New(links, []FlowSpec{renoFlow(0, 2), renoFlow(1, 3)})
	if err != nil {
		t.Fatal(err)
	}
	r := n.RoutingMatrix()
	want := [][]bool{
		{true, false, true, false},
		{false, true, false, true},
	}
	for f := range want {
		for l := range want[f] {
			if r[f][l] != want[f][l] {
				t.Errorf("routing[%d][%d] = %v, want %v", f, l, r[f][l], want[f][l])
			}
		}
	}
}

func TestNewFromRouting(t *testing.T) {
	// The routing matrix names the links out of order; chaining by
	// endpoints must recover a→b→c→d regardless.
	links := []LinkSpec{namedLink("b", "c"), namedLink("a", "b"), namedLink("c", "d")}
	n, err := NewFromRouting(links,
		[]FlowSpec{{Proto: protocol.Reno(), Init: 1}},
		[][]bool{{true, true, true}})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.BaseRTT(0); math.Abs(got-3*2*0.021) > 1e-15 {
		t.Errorf("BaseRTT = %v, want %v", got, 3*2*0.021)
	}

	// A row selecting two links leaving different sources with no chain
	// is not a single path.
	if _, err := NewFromRouting(
		[]LinkSpec{namedLink("a", "b"), namedLink("c", "d")},
		[]FlowSpec{{Proto: protocol.Reno(), Init: 1}},
		[][]bool{{true, true}}); err == nil {
		t.Error("disconnected routing row accepted")
	}

	// Path and routing row are mutually exclusive.
	if _, err := NewFromRouting(links,
		[]FlowSpec{{Proto: protocol.Reno(), Init: 1, Path: []int{0}}},
		[][]bool{{true, false, false}}); err == nil {
		t.Error("flow with both Path and routing row accepted")
	}
}

func TestExtraRTTShiftsBaseRTT(t *testing.T) {
	links := []LinkSpec{oneLink()}
	n, err := New(links, []FlowSpec{
		{Proto: protocol.Reno(), Init: 1, Path: []int{0}},
		{Proto: protocol.Reno(), Init: 1, Path: []int{0}, ExtraRTT: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := n.BaseRTT(1) - n.BaseRTT(0); math.Abs(d-0.1) > 1e-15 {
		t.Errorf("ExtraRTT shifted base RTT by %v, want 0.1", d)
	}
	res := n.Step()
	if d := res.FlowRTT[1] - res.FlowRTT[0]; math.Abs(d-0.1) > 1e-15 {
		t.Errorf("ExtraRTT shifted step RTT by %v, want 0.1", d)
	}
	// The longer-RTT flow must see strictly lower normalized growth under
	// an RTT-sensitive protocol; here just check the RTT composition is
	// per-flow, not shared.
	if res.FlowRTT[0] != 2*links[0].PropDelay {
		t.Errorf("flow 0 RTT = %v, want unloaded %v", res.FlowRTT[0], 2*links[0].PropDelay)
	}
}

// TestSingleLinkMatchesFluid is the differential oracle between the two
// substrates' shared model: a one-link network with synchronized senders,
// no loss process and no chaos reproduces fluid.Link's trajectory bit for
// bit — windows, per-sender loss and RTT, every step.
func TestSingleLinkMatchesFluid(t *testing.T) {
	const steps = 5000
	spec := oneLink()
	for _, c := range []struct {
		name  string
		proto func() protocol.Protocol
	}{
		{"reno", func() protocol.Protocol { return protocol.Reno() }},
		{"mimd", func() protocol.Protocol { return protocol.NewMIMD(1.01, 0.8) }},
	} {
		inits := []float64{1, 60}
		flows := make([]FlowSpec, len(inits))
		senders := make([]fluid.Sender, len(inits))
		for i, init := range inits {
			flows[i] = FlowSpec{Proto: c.proto(), Init: init, Path: []int{0}}
			senders[i] = fluid.Sender{Proto: c.proto(), Init: init}
		}
		net, err := New([]LinkSpec{spec}, flows)
		if err != nil {
			t.Fatal(err)
		}
		fl := fluid.MustNew(fluid.Config{
			Bandwidth: spec.Bandwidth,
			PropDelay: spec.PropDelay,
			Buffer:    spec.Buffer,
		}, senders...)
		for step := 0; step < steps; step++ {
			nres := net.Step()
			fres := fl.Step()
			for i := range inits {
				if nres.Windows[i] != fres.Windows[i] {
					t.Fatalf("%s: step %d flow %d: nettopo window %v != fluid %v",
						c.name, step, i, nres.Windows[i], fres.Windows[i])
				}
				if nres.FlowLoss[i] != fres.Loss[i] {
					t.Fatalf("%s: step %d flow %d: nettopo loss %v != fluid %v",
						c.name, step, i, nres.FlowLoss[i], fres.Loss[i])
				}
				if nres.FlowRTT[i] != fres.RTT {
					t.Fatalf("%s: step %d flow %d: nettopo rtt %v != fluid %v",
						c.name, step, i, nres.FlowRTT[i], fres.RTT)
				}
			}
		}
	}
}

// TestAnonymousChainMatchesNamed: naming a chain's endpoints only adds
// wiring checks. An anonymous-link chain (the scenario "multilink" model
// and the parking-lot experiment) and the named LinearChain that
// ParkingLot builds step bit-identically, stochastic mode included.
func TestAnonymousChainMatchesNamed(t *testing.T) {
	const hops, steps = 3, 800
	named, err := LinearChain(hops, oneLink())
	if err != nil {
		t.Fatal(err)
	}
	anon := make([]LinkSpec, hops)
	for i := range anon {
		anon[i] = oneLink()
	}
	flowSpecs := func() []FlowSpec {
		flows := []FlowSpec{{Proto: protocol.Reno(), Init: 1, Path: []int{0, 1, 2}}}
		for i := 0; i < hops; i++ {
			flows = append(flows, FlowSpec{Proto: protocol.NewAIMD(1, 0.7), Init: 30, Path: []int{i}})
		}
		return flows
	}
	for _, seed := range []uint64{0, 7} {
		var opts []Option
		name := "deterministic"
		if seed != 0 {
			opts = append(opts, WithStochasticLoss(seed))
			name = "stochastic"
		}
		a, err := New(anon, flowSpecs(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(named, flowSpecs(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < steps; s++ {
			ar, nr := a.Step(), n.Step()
			for f := range ar.Windows {
				if ar.Windows[f] != nr.Windows[f] || ar.FlowLoss[f] != nr.FlowLoss[f] || ar.FlowRTT[f] != nr.FlowRTT[f] {
					t.Fatalf("%s: step %d flow %d diverged", name, s, f)
				}
			}
			for l := range ar.LinkLoad {
				if ar.LinkLoss[l] != nr.LinkLoss[l] || ar.LinkLoad[l] != nr.LinkLoad[l] {
					t.Fatalf("%s: step %d link %d diverged", name, s, l)
				}
			}
		}
	}
}

// TestParkingLotDeterministicSymmetry documents a property of the
// synchronized deterministic model: because AIMD reacts only to the
// presence of loss and all flows on a shared bottleneck see loss at
// identical steps, the long flow's WINDOW matches the short flows' —
// path length shows up in goodput (double RTT), not in the window.
func TestParkingLotDeterministicSymmetry(t *testing.T) {
	net, err := ParkingLot(2, oneLink(), protocol.Reno(), 1)
	if err != nil {
		t.Fatal(err)
	}
	res := net.Run(4000)
	long := res.AvgWindow(0, 0.75)
	short := res.AvgWindow(1, 0.75)
	if r := long / short; math.Abs(r-1) > 0.05 {
		t.Fatalf("deterministic parking lot window ratio = %v, want ≈ 1", r)
	}
	// Goodput halves with the doubled path RTT.
	gr := res.AvgGoodput(0, 0.75) / res.AvgGoodput(1, 0.75)
	if gr > 0.6 || gr < 0.4 {
		t.Fatalf("goodput ratio = %v, want ≈ 0.5 (double RTT)", gr)
	}
}

// TestParkingLotBias reproduces the classic network-wide result under
// stochastic loss observation: the long flow crossing k congested links
// is beaten below the short flows' share, and the bias grows with k.
func TestParkingLotBias(t *testing.T) {
	shareAt := func(k int) float64 {
		net, err := ParkingLot(k, oneLink(), protocol.Reno(), 1, WithStochasticLoss(7))
		if err != nil {
			t.Fatal(err)
		}
		res := net.Run(6000)
		long := res.AvgWindow(0, 0.75)
		short := 0.0
		for i := 1; i <= k; i++ {
			short += res.AvgWindow(i, 0.75)
		}
		return long / (short / float64(k))
	}
	two := shareAt(2)
	four := shareAt(4)
	if two >= 0.95 {
		t.Fatalf("2-hop long flow got window ratio %v, want < 1", two)
	}
	if four >= two {
		t.Fatalf("bias did not grow with hops: 2-hop %v, 4-hop %v", two, four)
	}
}

// TestStochasticDeterministicPerSeed ensures stochastic mode replays.
func TestStochasticDeterministicPerSeed(t *testing.T) {
	run := func() float64 {
		net, err := ParkingLot(2, oneLink(), protocol.Reno(), 1, WithStochasticLoss(3))
		if err != nil {
			t.Fatal(err)
		}
		return net.Run(1000).AvgWindow(0, 0.5)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed stochastic runs diverged: %v vs %v", a, b)
	}
}

func TestParkingLotUtilization(t *testing.T) {
	net, err := ParkingLot(3, oneLink(), protocol.Reno(), 1)
	if err != nil {
		t.Fatal(err)
	}
	res := net.Run(3000)
	for l := 0; l < 3; l++ {
		if u := res.LinkUtilization(l, 0.75); u < 0.6 || u > 1.3 {
			t.Errorf("link %d utilization = %v", l, u)
		}
	}
}

// TestLossComposition checks the per-flow loss composition: a flow's loss
// is exactly 1 − Π(1 − L_l) over its path (independent drops per link),
// hence at least each of its links' and at most their sum.
func TestLossComposition(t *testing.T) {
	// Overload two links with MIMD to force simultaneous loss.
	net, err := ParkingLot(2, oneLink(), protocol.Scalable(), 50)
	if err != nil {
		t.Fatal(err)
	}
	res := net.Run(500)
	both := 0
	for s := 0; s < res.Steps; s++ {
		l0, l1 := res.LinkLoss[0][s], res.LinkLoss[1][s]
		fl := res.FlowLoss[0][s] // long flow crosses both
		if want := 1 - (1-l0)*(1-l1); fl != want {
			t.Fatalf("step %d: composed loss %v, want 1−(1−%v)(1−%v) = %v", s, fl, l0, l1, want)
		}
		if fl < math.Max(l0, l1)-1e-12 {
			t.Fatalf("step %d: composed loss %v below max(link)=%v", s, fl, math.Max(l0, l1))
		}
		if fl > l0+l1+1e-12 {
			t.Fatalf("step %d: composed loss %v above sum %v", s, fl, l0+l1)
		}
		if l0 > 0 && l1 > 0 {
			both++
		}
	}
	if both == 0 {
		t.Fatal("no step lost on both links; the composition was never exercised")
	}
}

// TestRTTAddsAlongPath checks delay composition.
func TestRTTAddsAlongPath(t *testing.T) {
	spec := oneLink()
	net, err := New([]LinkSpec{spec, spec}, []FlowSpec{renoFlow(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	res := net.Step()
	want := 2 * 2 * spec.PropDelay // two links, each contributing 2Θ
	if math.Abs(res.FlowRTT[0]-want) > 1e-12 {
		t.Fatalf("path RTT = %v, want %v", res.FlowRTT[0], want)
	}
}

func TestHeterogeneousProtocolsAcrossNetwork(t *testing.T) {
	// A Scalable flow and a Reno flow share link 0; Scalable wins there
	// while an unrelated Reno pair shares link 1 fairly.
	spec := oneLink()
	net, err := New([]LinkSpec{spec, spec}, []FlowSpec{
		{Proto: protocol.Scalable(), Init: 10, Path: []int{0}},
		{Proto: protocol.Reno(), Init: 10, Path: []int{0}},
		{Proto: protocol.Reno(), Init: 1, Path: []int{1}},
		{Proto: protocol.Reno(), Init: 80, Path: []int{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := net.Run(3000)
	if res.AvgWindow(0, 0.75) <= res.AvgWindow(1, 0.75) {
		t.Error("Scalable did not beat Reno on link 0")
	}
	a, b := res.AvgWindow(2, 0.75), res.AvgWindow(3, 0.75)
	if r := math.Min(a, b) / math.Max(a, b); r < 0.85 {
		t.Errorf("link 1 Reno pair unfair: %v", r)
	}
}

func TestGoodputAccountsForLossAndRTT(t *testing.T) {
	net, err := ParkingLot(2, oneLink(), protocol.Reno(), 1)
	if err != nil {
		t.Fatal(err)
	}
	res := net.Run(2000)
	long := res.AvgGoodput(0, 0.75)
	short := res.AvgGoodput(1, 0.75)
	if long <= 0 || short <= 0 {
		t.Fatalf("non-positive goodputs: %v %v", long, short)
	}
	if long >= short {
		t.Errorf("long flow goodput %v ≥ short %v", long, short)
	}
}

// Property: the network never produces loss outside [0,1) or
// non-positive RTTs, across random parking-lot sizes and initial windows.
func TestQuickStepBounds(t *testing.T) {
	f := func(kRaw, initRaw uint8) bool {
		k := int(kRaw%4) + 1
		init := float64(initRaw%200) + 1
		net, err := ParkingLot(k, oneLink(), protocol.Reno(), init)
		if err != nil {
			return false
		}
		for s := 0; s < 100; s++ {
			res := net.Step()
			for _, l := range res.FlowLoss {
				if l < 0 || l >= 1 {
					return false
				}
			}
			for _, r := range res.FlowRTT {
				if r <= 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestTailStats sanity-checks the Result helpers on a known trace.
func TestTailStats(t *testing.T) {
	net, err := ParkingLot(1, oneLink(), protocol.Reno(), 1)
	if err != nil {
		t.Fatal(err)
	}
	res := net.Run(1000)
	if got := res.AvgWindow(0, 0.75); got <= 0 {
		t.Fatalf("AvgWindow = %v", got)
	}
	// Tail utilization of the single link ≈ the fluid single-link case
	// with two senders (the parking lot adds one short flow): ≥ 0.6.
	if u := res.LinkUtilization(0, 0.75); u < 0.6 {
		t.Fatalf("utilization = %v", u)
	}
	// Loss series bounded.
	if mx := stats.Max(res.LinkLoss[0]); mx >= 1 {
		t.Fatalf("max link loss = %v", mx)
	}
}

func TestParkingLotValidation(t *testing.T) {
	if _, err := ParkingLot(0, oneLink(), protocol.Reno(), 1); err == nil {
		t.Fatal("0-hop parking lot accepted")
	}
}

func TestBuilders(t *testing.T) {
	link := oneLink()
	if _, err := LinearChain(0, link); err == nil {
		t.Error("zero-hop chain accepted")
	}
	chain, err := LinearChain(3, link)
	if err != nil {
		t.Fatal(err)
	}
	if chain[0].Src != "n0" || chain[2].Dst != "n3" {
		t.Errorf("chain endpoints %q→%q, want n0→n3", chain[0].Src, chain[2].Dst)
	}

	pl, err := ParkingLot(3, link, protocol.Reno(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(pl.RoutingMatrix()); got != 4 {
		t.Errorf("parking lot has %d flows, want 4", got)
	}

	inc, err := Incast(4, link, link, protocol.Reno(), 1)
	if err != nil {
		t.Fatal(err)
	}
	r := inc.RoutingMatrix()
	for f := range r {
		if !r[f][4] {
			t.Errorf("incast flow %d misses the core link", f)
		}
	}

	ft, err := FatTreeFanIn(2, 2, link, link, link, protocol.Reno(), 1)
	if err != nil {
		t.Fatal(err)
	}
	r = ft.RoutingMatrix()
	if len(r) != 4 {
		t.Fatalf("fat tree has %d flows, want 4", len(r))
	}
	core := len(ft.Links()) - 1
	for f := range r {
		hops := 0
		for _, on := range r[f] {
			if on {
				hops++
			}
		}
		if hops != 3 || !r[f][core] {
			t.Errorf("fat-tree flow %d: %d hops (want 3), core=%v", f, hops, r[f][core])
		}
	}
}

func TestPerturberFlowDeparture(t *testing.T) {
	links := []LinkSpec{oneLink()}
	n, err := New(links, []FlowSpec{renoFlow(0), renoFlow(0)},
		WithPerturber(dropFlow1{}))
	if err != nil {
		t.Fatal(err)
	}
	res := n.Step()
	if res.Windows[1] != 0 {
		t.Errorf("departed flow reported window %v, want 0", res.Windows[1])
	}
	if res.LinkLoad[0] != res.Windows[0] {
		t.Errorf("departed flow still loads the link: load %v, active window %v",
			res.LinkLoad[0], res.Windows[0])
	}
}

type dropFlow1 struct{}

func (dropFlow1) CapacityScale(int, int) float64 { return 1 }
func (dropFlow1) ExtraLoss(int, int) float64     { return 0 }
func (dropFlow1) RTTOffset(int, int) float64     { return 0 }
func (dropFlow1) FlowActive(_, flow int) bool    { return flow != 1 }
