package metrics

import (
	"context"
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/fluid"
	"repro/internal/protocol"
)

// refRunKey builds a run key in one pass, as the reference for the
// per-set keyer: keys address runs in persistent stores, so the keyer
// must reproduce this format byte for byte.
func refRunKey(cfg fluid.Config, protos []protocol.Protocol, init []float64, o Options, recorded bool) (string, bool) {
	hex := func(sb *strings.Builder, v float64) {
		sb.WriteString(strconv.FormatUint(math.Float64bits(v), 16))
	}
	if cfg.Perturb != nil || cfg.BandwidthSchedule != nil {
		return "", false
	}
	var sb strings.Builder
	if recorded {
		sb.WriteString("v1|trace|")
	} else {
		sb.WriteString("v1|stream|tf=")
		hex(&sb, o.TailFrac)
		sb.WriteByte('|')
	}
	sb.WriteString("steps=")
	sb.WriteString(strconv.Itoa(o.Steps))
	sb.WriteString("|link=")
	for _, v := range []float64{cfg.Bandwidth, cfg.PropDelay, cfg.Buffer, cfg.MaxWindow, cfg.TimeoutRTT} {
		hex(&sb, v)
		sb.WriteByte(',')
	}
	if cfg.Infinite {
		sb.WriteString("inf")
	}
	sb.WriteString("|seed=")
	sb.WriteString(strconv.FormatUint(cfg.Seed, 16))
	sb.WriteByte('|')
	if cfg.Loss != nil {
		fp, ok := cfg.Loss.(lossFingerprinter)
		if !ok {
			return "", false
		}
		sb.WriteString("loss=")
		sb.WriteString(fp.Fingerprint())
		sb.WriteByte('|')
	}
	if o.Chaos != nil {
		raw, err := json.Marshal(o.Chaos)
		if err != nil {
			return "", false
		}
		sb.WriteString("chaos=")
		sb.Write(raw)
		sb.WriteString(";cs=")
		sb.WriteString(strconv.FormatUint(o.ChaosSeed, 16))
		sb.WriteByte('|')
	}
	for i, p := range protos {
		f, ok := p.(protocol.Fingerprinter)
		if !ok {
			return "", false
		}
		sb.WriteString(f.Fingerprint())
		sb.WriteByte('@')
		w := protocol.MinWindow
		if len(init) > 0 {
			w = init[i%len(init)]
		}
		hex(&sb, w)
		sb.WriteByte(';')
	}
	return sb.String(), true
}

// TestRunKeyGolden pins two complete keys as literals, so the key format
// cannot drift even if the reference above drifted with it.
func TestRunKeyGolden(t *testing.T) {
	cfg := fluid.Config{Bandwidth: fluid.MbpsToMSSps(20), PropDelay: 0.021, Buffer: 4, Loss: fluid.NewConstantLoss(0.01), Seed: 7}
	o := Options{Steps: 300, TailFrac: 0.75, Chaos: &chaos.Schedule{}, ChaosSeed: 3}
	for _, tc := range []struct {
		protos   []protocol.Protocol
		init     []float64
		o        Options
		recorded bool
		want     string
	}{
		{[]protocol.Protocol{protocol.NewAIMD(1.5, 0.7), protocol.Reno()}, []float64{1, 50}, o, false,
			`v1|stream|tf=3fe8000000000000|steps=300|link=409a0aaaaaaaaaab,3f95810624dd2f1b,4010000000000000,0,0,|seed=7|loss=const[3f847ae147ae147b]|chaos={"events":null};cs=3|aimd[3ff8000000000000,3fe6666666666666]@3ff0000000000000;aimd[3ff0000000000000,3fe0000000000000]@4049000000000000;`},
		{[]protocol.Protocol{protocol.NewAIMD(1.5, 0.7)}, nil, Options{Steps: 300, TailFrac: 0.75}, true,
			`v1|trace|steps=300|link=409a0aaaaaaaaaab,3f95810624dd2f1b,4010000000000000,0,0,|seed=7|loss=const[3f847ae147ae147b]|aimd[3ff8000000000000,3fe6666666666666]@3ff0000000000000;`},
	} {
		if got, ok := runKey(cfg, tc.protos, tc.init, tc.o, tc.recorded); !ok || got != tc.want {
			t.Fatalf("runKey = %q (ok=%v)\nwant      %q", got, ok, tc.want)
		}
	}
}

// fingerprintedFamilies returns one protocol of every builtin family
// that implements protocol.Fingerprinter.
func fingerprintedFamilies() []protocol.Protocol {
	return []protocol.Protocol{
		protocol.NewAIMD(1.5, 0.7),
		protocol.NewMIMD(1.01, 0.875),
		protocol.NewBinomial(1, 0.5, 0.5, 0.5),
		protocol.NewCubic(0.4, 0.8),
		protocol.NewRobustAIMD(1, 0.8, 0.01),
		protocol.NewPCC(20),
		protocol.NewVegas(2, 4),
		protocol.NewProbeUntilLoss(1),
		protocol.NewTFRC(0.01),
		protocol.NewHighSpeed(),
		protocol.NewBBRish(),
	}
}

// sessionKeys returns the keys a session holds, sorted.
func sessionKeys(s *Session) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestResolveKeysMatchRunKey checks that the keys Resolve builds once
// per run-set — prefix and fingerprints shared across initial
// configurations — are exactly the per-run keys, byte for byte, for
// every fingerprinted family, with chaos on and off, under a loss
// process, and with InitConfigs shorter than the sender count.
func TestResolveKeysMatchRunKey(t *testing.T) {
	lossy := cap100()
	lossy.Loss = fluid.NewConstantLoss(0.01)
	links := map[string]fluid.Config{"plain": cap100(), "loss": lossy}
	opts := map[string]Options{
		"default": {Steps: 40},
		"chaos":   {Steps: 40, Chaos: chaos.BurstyLoss(0.02, 0.3, 0.08), ChaosSeed: 5},
		"cycled":  {Steps: 40, InitConfigs: [][]float64{{1, 50}, {30}}},
	}
	for _, p := range fingerprintedFamilies() {
		for ln, cfg := range links {
			for on, opt := range opts {
				protos := []protocol.Protocol{p, p, protocol.Reno()}
				o := opt.withDefaults()
				var want []string
				for _, init := range o.initConfigs(cfg, len(protos)) {
					k, ok := runKey(cfg, protos, init, o, false)
					ref, refOK := refRunKey(cfg, protos, init, o, false)
					if !ok || !refOK || k != ref {
						t.Fatalf("%s/%s/%s: runKey %q (ok=%v), reference %q (ok=%v)", p.Name(), ln, on, k, ok, ref, refOK)
					}
					want = append(want, k)
				}
				sort.Strings(want)
				opt.Session = NewSession()
				streams, sim, err := Resolve(context.Background(), []RunSet{{Cfg: cfg, Protos: protos}}, opt)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", p.Name(), ln, on, err)
				}
				if len(streams[0]) != len(want) || !sim[0] {
					t.Fatalf("%s/%s/%s: %d streams (simulated=%v), want %d simulated", p.Name(), ln, on, len(streams[0]), sim[0], len(want))
				}
				if got := sessionKeys(opt.Session); strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Fatalf("%s/%s/%s: Resolve keyed\n%v\nwant\n%v", p.Name(), ln, on, got, want)
				}
			}
		}
	}
}

// nopPerturber is a Perturber that perturbs nothing: any Perturb value,
// however inert, is an opaque input without a canonical identity.
type nopPerturber struct{}

func (nopPerturber) CapacityScale(int, int) float64 { return 1 }
func (nopPerturber) ExtraLoss(int, int) float64     { return 0 }
func (nopPerturber) RTTOffset(int, int) float64     { return 0 }
func (nopPerturber) FlowActive(int, int) bool       { return true }

// TestResolveUncacheableEveryInit checks that inputs without a canonical
// identity stay uncached for every initial configuration: each run
// executes, counts as Uncacheable, and leaves nothing in the session.
func TestResolveUncacheableEveryInit(t *testing.T) {
	perturbed := cap100()
	perturbed.Perturb = nopPerturber{}
	scheduled := cap100()
	scheduled.BandwidthSchedule = func(int) float64 { return scheduled.Bandwidth }
	opaque := &protocol.Func{Label: "copy", Fn: func(fb protocol.Feedback) float64 { return fb.Window }}
	for name, set := range map[string]RunSet{
		"perturb":        {Cfg: perturbed, Protos: []protocol.Protocol{protocol.Reno(), protocol.Reno()}},
		"schedule":       {Cfg: scheduled, Protos: []protocol.Protocol{protocol.Reno(), protocol.Reno()}},
		"no fingerprint": {Cfg: cap100(), Protos: []protocol.Protocol{protocol.Reno(), opaque}},
	} {
		o := Options{Steps: 40, Session: NewSession()}
		inits := o.withDefaults().initConfigs(set.Cfg, len(set.Protos))
		for i, init := range inits {
			if k, ok := runKey(set.Cfg, set.Protos, init, o.withDefaults(), false); ok {
				t.Fatalf("%s: init %d is cacheable under key %q", name, i, k)
			}
		}
		for pass := 0; pass < 2; pass++ {
			_, sim, err := Resolve(context.Background(), []RunSet{set}, o)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !sim[0] {
				t.Fatalf("%s pass %d: uncacheable runs reported as served from cache", name, pass)
			}
		}
		st := o.Session.Stats()
		if st.Uncacheable != int64(2*len(inits)) || st.Hits+st.Misses+st.DiskHits != 0 {
			t.Fatalf("%s: stats %+v, want %d uncacheable runs and nothing else", name, st, 2*len(inits))
		}
		if keys := sessionKeys(o.Session); len(keys) != 0 {
			t.Fatalf("%s: session holds %d keys", name, len(keys))
		}
	}
}

// TestResolveNilSessionRunsEverything pins the uncached case: every set
// is simulated, and the streams are the ones the session path serves.
func TestResolveNilSessionRunsEverything(t *testing.T) {
	sets := []RunSet{
		{Cfg: cap100(), Protos: []protocol.Protocol{protocol.CubicLinux()}},
		{Cfg: cap100(), Protos: []protocol.Protocol{protocol.CubicLinux(), protocol.Reno()}},
	}
	plain, sim, err := Resolve(context.Background(), sets, Options{Steps: 300})
	if err != nil {
		t.Fatal(err)
	}
	cached, _, err := Resolve(context.Background(), sets, Options{Steps: 300, Session: NewSession()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sets {
		if !sim[i] {
			t.Fatalf("set %d not reported simulated without a session", i)
		}
		if len(plain[i]) != 3 || len(cached[i]) != 3 {
			t.Fatalf("set %d: %d and %d streams, want one per default init", i, len(plain[i]), len(cached[i]))
		}
		for j := range plain[i] {
			a, b := plain[i][j].Friendliness([]int{0}, []int{len(sets[i].Protos) - 1}), cached[i][j].Friendliness([]int{0}, []int{len(sets[i].Protos) - 1})
			if math.Float64bits(a) != math.Float64bits(b) || math.Float64bits(plain[i][j].Efficiency()) != math.Float64bits(cached[i][j].Efficiency()) {
				t.Fatalf("set %d run %d: uncached and cached streams score differently", i, j)
			}
		}
	}
	if _, _, err := Resolve(context.Background(), []RunSet{{Cfg: cap100()}}, Options{}); err == nil {
		t.Fatal("a run-set without protocols must be rejected")
	}
}

// TestPrefetchWarmsSession pins Prefetch's contract: it needs a
// Session, and estimator calls after it are pure memory hits.
func TestPrefetchWarmsSession(t *testing.T) {
	sets := []RunSet{{Cfg: cap100(), Protos: []protocol.Protocol{protocol.Reno()}}}
	if _, err := Prefetch(sets, Options{Steps: 300}); err == nil {
		t.Fatal("Prefetch without a Session must fail")
	}
	opt := Options{Steps: 300, Session: NewSession()}
	sim, err := Prefetch(sets, opt)
	if err != nil || len(sim) != 1 || !sim[0] {
		t.Fatalf("cold Prefetch: simulated %v, err %v", sim, err)
	}
	before := opt.Session.Stats()
	if _, err := Efficiency(cap100(), protocol.Reno(), 1, opt); err != nil {
		t.Fatal(err)
	}
	if st := opt.Session.Stats(); st.Misses != before.Misses || st.Hits != before.Hits+3 {
		t.Fatalf("Efficiency after Prefetch: stats %+v, before %+v; want 3 more hits and no misses", st, before)
	}
}
