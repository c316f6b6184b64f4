package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func near(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 2, 3}, 2},
		{[]float64{5}, 5},
		{[]float64{-1, 1}, 0},
		{[]float64{0, 0, 0, 0}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !near(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !near(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !near(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if !math.IsNaN(Variance(nil)) {
		t.Error("Variance(nil) should be NaN")
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Min(xs) != -1 {
		t.Errorf("Min = %v", Min(xs))
	}
	if Max(xs) != 5 {
		t.Errorf("Max = %v", Max(xs))
	}
	if Sum(xs) != 12 {
		t.Errorf("Sum = %v", Sum(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be +Inf/-Inf")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !near(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.3); !near(got, 3, 1e-12) {
		t.Errorf("interpolated quantile = %v, want 3", got)
	}
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single-element quantile = %v, want 7", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(nil) should be NaN")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Quantile mutated its input: %v", xs)
	}
}

func TestQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile(q=2) did not panic")
		}
	}()
	Quantile([]float64{1}, 2)
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("Median = %v, want 5", got)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{1, 1, 1, 1}); !near(got, 1, 1e-12) {
		t.Errorf("equal allocation Jain = %v, want 1", got)
	}
	// One of n gets everything: J = 1/n.
	if got := JainIndex([]float64{10, 0, 0, 0}); !near(got, 0.25, 1e-12) {
		t.Errorf("single-winner Jain = %v, want 0.25", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 1 {
		t.Errorf("all-zero Jain = %v, want 1", got)
	}
	if !math.IsNaN(JainIndex(nil)) {
		t.Error("JainIndex(nil) should be NaN")
	}
}

func TestMinOverMax(t *testing.T) {
	if got := MinOverMax([]float64{2, 4}); !near(got, 0.5, 1e-12) {
		t.Errorf("MinOverMax = %v, want 0.5", got)
	}
	if got := MinOverMax([]float64{0, 0}); got != 1 {
		t.Errorf("all-zero MinOverMax = %v, want 1", got)
	}
}

func TestTail(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	if got := Tail(xs, 0.5); len(got) != 4 || got[0] != 4 {
		t.Errorf("Tail(0.5) = %v", got)
	}
	if got := Tail(xs, 0); len(got) != 8 {
		t.Errorf("Tail(0) = %v", got)
	}
	// f=1 still returns at least the last element.
	if got := Tail(xs, 1); len(got) != 1 || got[0] != 7 {
		t.Errorf("Tail(1) = %v", got)
	}
	// Out-of-range f is clamped.
	if got := Tail(xs, 2); len(got) != 1 {
		t.Errorf("Tail(2) = %v", got)
	}
	if got := Tail(nil, 0.5); len(got) != 0 {
		t.Errorf("Tail(nil) = %v", got)
	}
}

func TestLinearFit(t *testing.T) {
	// y = 3x + 1
	xs := []float64{1, 4, 7, 10, 13}
	slope, intercept := LinearFit(xs)
	if !near(slope, 3, 1e-9) || !near(intercept, 1, 1e-9) {
		t.Errorf("LinearFit = (%v, %v), want (3, 1)", slope, intercept)
	}
	if s, _ := LinearFit([]float64{5}); !math.IsNaN(s) {
		t.Error("LinearFit of 1 point should be NaN")
	}
}

func TestMovingAverage(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	got := MovingAverage(xs, 2)
	want := []float64{1, 1.5, 2.5, 3.5}
	for i := range want {
		if !near(got[i], want[i], 1e-12) {
			t.Errorf("MovingAverage[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMovingAveragePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MovingAverage(w=0) did not panic")
		}
	}()
	MovingAverage([]float64{1}, 0)
}

func TestRelativeSpread(t *testing.T) {
	if got := RelativeSpread([]float64{5, 5, 5}); got != 0 {
		t.Errorf("constant spread = %v", got)
	}
	if got := RelativeSpread([]float64{1, 3}); !near(got, 1, 1e-12) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestContainment(t *testing.T) {
	// Constant series: perfect containment.
	if got := Containment([]float64{5, 5, 5}, 0, 1); !near(got, 1, 1e-12) {
		t.Errorf("constant containment = %v, want 1", got)
	}
	// 40/60 oscillation around mean 50: strict containment = 0.8.
	osc := []float64{40, 60, 40, 60}
	if got := Containment(osc, 0, 1); !near(got, 0.8, 1e-12) {
		t.Errorf("oscillating containment = %v, want 0.8", got)
	}
	// One extreme outlier among many 50s: trimming restores the score.
	noisy := make([]float64, 100)
	for i := range noisy {
		noisy[i] = 50
	}
	noisy[7] = 0
	strict := Containment(noisy, 0, 1)
	trimmed := Containment(noisy, 0.05, 0.95)
	if strict != 0 {
		t.Errorf("strict containment with outlier = %v, want 0", strict)
	}
	if trimmed < 0.9 {
		t.Errorf("trimmed containment = %v, want ≈ 1", trimmed)
	}
	if got := Containment([]float64{-1, -1}, 0, 1); got != 0 {
		t.Errorf("non-positive-mean containment = %v, want 0", got)
	}
	if !math.IsNaN(Containment(nil, 0, 1)) {
		t.Error("empty containment should be NaN")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); !near(got, 2, 1e-12) {
		t.Errorf("GeoMean = %v, want 2", got)
	}
	if !math.IsNaN(GeoMean([]float64{1, 0})) {
		t.Error("GeoMean with zero should be NaN")
	}
}

// Property: Jain's index is always in [1/n, 1] for non-negative input.
func TestQuickJainBounds(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			// Skip inputs whose squares or sums would overflow float64;
			// the index is only meaningful for finite arithmetic.
			if math.IsNaN(v) || math.Abs(v) > 1e100 {
				return true
			}
			xs[i] = math.Abs(v)
		}
		j := JainIndex(xs)
		n := float64(len(xs))
		return j >= 1/n-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Mean is between Min and Max.
func TestQuickMeanBetweenMinMax(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				continue
			}
			xs = append(xs, v)
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-6 && m <= Max(xs)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: quantile is monotone in q.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			xs = append(xs, v)
		}
		if len(xs) == 0 {
			return true
		}
		a := math.Abs(math.Mod(q1, 1))
		b := math.Abs(math.Mod(q2, 1))
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return Quantile(xs, a) <= Quantile(xs, b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: PushSlice leaves the ring in exactly the state the same
// values pushed one at a time would — retained tail, write position, and
// count — for every capacity/chunking combination.
func TestRingPushSliceMatchesPush(t *testing.T) {
	f := func(capRaw uint8, chunks [][]float64) bool {
		capacity := int(capRaw % 37)
		bulk, ref := NewRing(capacity), NewRing(capacity)
		for _, chunk := range chunks {
			bulk.PushSlice(chunk)
			for _, v := range chunk {
				ref.Push(v)
			}
			if bulk.Count() != ref.Count() {
				return false
			}
			got, want := bulk.Last(capacity), ref.Last(capacity)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The boundary cases quick.Check may not hit: chunks exactly at, one
// below, and far beyond capacity, landing on a wrapped write position.
func TestRingPushSliceBoundaries(t *testing.T) {
	for _, capacity := range []int{0, 1, 4, 7} {
		for _, sizes := range [][]int{{4}, {3, 4}, {7}, {8}, {15}, {1, 7, 2}, {6, 9}} {
			bulk, ref := NewRing(capacity), NewRing(capacity)
			v := 0.0
			for _, sz := range sizes {
				chunk := make([]float64, sz)
				for i := range chunk {
					v++
					chunk[i] = v
				}
				bulk.PushSlice(chunk)
				for _, x := range chunk {
					ref.Push(x)
				}
			}
			got, want := bulk.Last(capacity), ref.Last(capacity)
			if len(got) != len(want) {
				t.Fatalf("cap %d sizes %v: retained %d vs %d", capacity, sizes, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("cap %d sizes %v: tail %v vs %v", capacity, sizes, got, want)
				}
			}
			if bulk.Count() != ref.Count() {
				t.Fatalf("cap %d sizes %v: count %d vs %d", capacity, sizes, bulk.Count(), ref.Count())
			}
		}
	}
}

// Rings carved from one slab behave like independent NewRing rings:
// pushing far past capacity into one never touches its neighbours.
func TestNewRingsIndependent(t *testing.T) {
	const n, capacity = 4, 5
	rings := NewRings(n, capacity)
	refs := make([]*Ring, n)
	for i := range refs {
		refs[i] = NewRing(capacity)
	}
	for step := 0; step < 3*capacity+2; step++ {
		for i := range rings {
			v := float64(100*i + step)
			rings[i].Push(v)
			refs[i].Push(v)
		}
		rings[step%n].PushSlice([]float64{-1, -2, -3, -4, -5, -6, -7})
		refs[step%n].PushSlice([]float64{-1, -2, -3, -4, -5, -6, -7})
	}
	for i := range rings {
		if rings[i].Cap() != capacity || rings[i].Count() != refs[i].Count() {
			t.Fatalf("ring %d: cap %d count %d, want %d and %d", i, rings[i].Cap(), rings[i].Count(), capacity, refs[i].Count())
		}
		got, want := rings[i].Dump(), refs[i].Dump()
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("ring %d retains %v, want %v", i, got, want)
			}
		}
	}
	if rs := NewRings(3, -1); len(rs) != 3 || rs[0].Cap() != 0 {
		t.Fatal("negative capacity must clamp to zero, as NewRing does")
	}
}
