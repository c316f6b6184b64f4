package experiment

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/metrics"
)

func TestRobustnessSweep(t *testing.T) {
	entries, err := RobustnessSweep(metrics.Options{Steps: 1500})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]RobustnessEntry{}
	for _, e := range entries {
		byName[e.Name] = e
	}
	// Table 1's robustness column: plain families score 0.
	for _, name := range []string{"AIMD(1,0.5)", "MIMD(1.01,0.875)", "BIN(1,0.5,0.5,0.5)", "CUBIC(0.4,0.8)"} {
		if e := byName[name]; e.Threshold != 0 {
			t.Errorf("%s threshold = %v, want 0", name, e.Threshold)
		}
	}
	// Robust-AIMD scores ≈ ε.
	if e := byName["RobustAIMD(1,0.8,0.05)"]; e.Threshold < 0.03 || e.Threshold > 0.07 {
		t.Errorf("R-AIMD(ε=0.05) threshold = %v, want ≈ 0.05", e.Threshold)
	}
	// PCC tolerates ≈ 1/(1+δ) = 0.048.
	if e := byName["PCC(δ=20)"]; e.Threshold < 0.02 || e.Threshold > 0.09 {
		t.Errorf("PCC threshold = %v, want ≈ 0.05", e.Threshold)
	}
	// Under 0.5% loss the robust protocols keep the link busy while Reno
	// collapses.
	if reno, ra := byName["AIMD(1,0.5)"], byName["RobustAIMD(1,0.8,0.01)"]; ra.UtilAtHalfPercent <= reno.UtilAtHalfPercent {
		t.Errorf("R-AIMD util %v ≤ Reno util %v under 0.5%% loss",
			ra.UtilAtHalfPercent, reno.UtilAtHalfPercent)
	}
	out := RenderRobustness(entries)
	if !strings.Contains(out, "Metric VI") || !strings.Contains(out, "PCC") {
		t.Errorf("render malformed:\n%s", out)
	}
}

// Golden guarantee for the extended robustness report: the Metric VI
// threshold and constant-loss utilization columns are bit-identical to
// RobustnessSweep's output, and the chaos columns behave sanely (bounded,
// deterministic in the seed, and degraded by the flapping link).
func TestChaosRobustnessSweepGolden(t *testing.T) {
	opt := metrics.Options{Steps: 1500}
	plain, err := RobustnessSweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	extended, err := ChaosRobustnessSweep(opt, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(extended) != len(plain) {
		t.Fatalf("extended report has %d rows, plain has %d", len(extended), len(plain))
	}
	for i := range plain {
		if extended[i].RobustnessEntry != plain[i] {
			t.Errorf("row %d: constant columns diverged: %+v vs %+v", i, extended[i].RobustnessEntry, plain[i])
		}
		// Windows count buffered packets, so total/C can exceed 1; the
		// guard is against NaN/Inf/negative values escaping the chaos runs.
		for _, u := range []float64{extended[i].UtilBurstyLoss, extended[i].UtilFlappyLink} {
			if u < 0 || math.IsNaN(u) || math.IsInf(u, 0) {
				t.Errorf("row %d: chaos utilization %v invalid: %+v", i, u, extended[i])
			}
		}
	}
	// Deterministic in the seed.
	again, err := ChaosRobustnessSweep(opt, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range extended {
		if again[i] != extended[i] {
			t.Errorf("row %d: rerun with same seed differs: %+v vs %+v", i, again[i], extended[i])
		}
	}
	out := RenderChaosRobustness(extended)
	if !strings.Contains(out, "bursty") || !strings.Contains(out, "flappy") {
		t.Errorf("render malformed:\n%s", out)
	}
}

func TestParkingLotExperiment(t *testing.T) {
	entries, err := ParkingLotExperiment([]int{1, 3}, 3000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %d", len(entries))
	}
	// One hop: long and short flows are symmetric.
	if e := entries[0]; e.WindowRatio < 0.8 || e.WindowRatio > 1.25 {
		t.Errorf("1-hop window ratio = %v, want ≈ 1", e.WindowRatio)
	}
	// Three hops: the long flow is beaten down, in goodput even more than
	// in windows (triple RTT).
	e3 := entries[1]
	if e3.WindowRatio >= entries[0].WindowRatio {
		t.Errorf("window ratio did not fall with hops: %v -> %v",
			entries[0].WindowRatio, e3.WindowRatio)
	}
	if e3.GoodputRatio >= e3.WindowRatio {
		t.Errorf("goodput ratio %v ≥ window ratio %v; RTT penalty missing",
			e3.GoodputRatio, e3.WindowRatio)
	}
	out := RenderParkingLot(entries)
	if !strings.Contains(out, "hops") {
		t.Errorf("render malformed:\n%s", out)
	}
}

func TestParkingLotExperimentDefaults(t *testing.T) {
	entries, err := ParkingLotExperiment(nil, 800, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("default hops = %d entries, want 4", len(entries))
	}
}

// parkingLotGoldenText renders the sweep as reproduce -exp parkinglot
// prints it, followed by the exact IEEE-754 bits of every ratio.
func parkingLotGoldenText(entries []ParkingLotEntry) string {
	var sb strings.Builder
	sb.WriteString(RenderParkingLot(entries))
	for _, e := range entries {
		fmt.Fprintf(&sb, "hops %d window=%016x goodput=%016x util=%016x\n", e.Hops,
			math.Float64bits(e.WindowRatio), math.Float64bits(e.GoodputRatio), math.Float64bits(e.LinkUtil))
	}
	return sb.String()
}

// TestParkingLotGolden pins reproduce -exp parkinglot's default sweep
// (hops 1–4, 4000 steps, seed 7) byte for byte: any change to the
// network model's arithmetic, RNG order or tail statistics breaks it.
func TestParkingLotGolden(t *testing.T) {
	entries, err := ParkingLotExperiment([]int{1, 2, 3, 4}, 4000, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/parkinglot.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := parkingLotGoldenText(entries); got != string(want) {
		t.Errorf("parking-lot sweep drifted from the golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
