package metrics

import (
	"testing"

	"repro/internal/engine"
)

// TestStreamObserveAllocFree pins the observer half of the hot-loop
// contract: Observe pushes into preallocated rings and must not allocate
// per step, even after the rings wrap.
func TestStreamObserveAllocFree(t *testing.T) {
	meta := engine.Meta{Flows: 2, Capacity: 100, BaseRTT: 0.042, Horizon: 1000}
	s := NewStream(meta, DefaultTailFrac)
	step := engine.Step{Windows: []float64{10, 20}, Total: 30, RTT: 0.05, Loss: 0.01}
	// Fill beyond ring capacity so the wrap-around path is what's measured.
	for i := 0; i < 2000; i++ {
		s.Observe(step)
	}
	if avg := testing.AllocsPerRun(1000, func() { s.Observe(step) }); avg != 0 {
		t.Fatalf("Stream.Observe allocates %.2f times per step, want 0", avg)
	}
}

// TestStreamObserveStripAllocFree pins the bulk half of the same
// contract: after the first strip has grown the goodput scratch,
// ObserveStrip must be allocation-free no matter how the rings wrap.
func TestStreamObserveStripAllocFree(t *testing.T) {
	meta := engine.Meta{Flows: 2, Capacity: 100, BaseRTT: 0.042, Horizon: 1000}
	s := NewStream(meta, DefaultTailFrac)
	const count = 64
	strip := engine.Strip{
		Count:   count,
		Flows:   2,
		Windows: make([]float64, 2*count),
		Totals:  make([]float64, count),
		RTT:     make([]float64, count),
		Loss:    make([]float64, count),
	}
	for k := 0; k < count; k++ {
		strip.Windows[k] = 10
		strip.Windows[count+k] = 20
		strip.Totals[k] = 30
		strip.RTT[k] = 0.05
		strip.Loss[k] = 0.01
	}
	// Fill beyond ring capacity so the wrap-around path is what's measured.
	for i := 0; i < 40; i++ {
		s.ObserveStrip(strip)
	}
	if avg := testing.AllocsPerRun(1000, func() { s.ObserveStrip(strip) }); avg != 0 {
		t.Fatalf("Stream.ObserveStrip allocates %.2f times per strip, want 0", avg)
	}
}

// TestNewStreamAllocsFlat pins NewStream's ring slab: every ring comes
// from one backing array, so building a stream costs the same number of
// allocations whatever its sender count.
func TestNewStreamAllocsFlat(t *testing.T) {
	allocs := func(flows int) float64 {
		meta := engine.Meta{Flows: flows, Capacity: 100, BaseRTT: 0.042, Horizon: 1000}
		return testing.AllocsPerRun(100, func() { NewStream(meta, DefaultTailFrac) })
	}
	one := allocs(1)
	for _, flows := range []int{2, 8} {
		if got := allocs(flows); got != one {
			t.Fatalf("NewStream with %d flows allocates %v times, with 1 flow %v", flows, got, one)
		}
	}
}
