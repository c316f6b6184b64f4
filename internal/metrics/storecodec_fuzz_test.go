package metrics

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/fluid"
	"repro/internal/packetsim"
	"repro/internal/protocol"
	"repro/internal/stats"
)

// ringPayload hand-builds a checksum-valid stream payload no simulation
// produces: no flows, and three aggregate rings that each claim the
// given capacity and count while retaining `retained` samples.
func ringPayload(capacity int, count uint64, retained int) []byte {
	b := []byte{codecKindStream}
	b = putF64(b, DefaultTailFrac)
	b = putF64(b, 100)
	b = putF64(b, 0.042)
	b = putU32(b, 0)
	for r := 0; r < 3; r++ {
		b = putU32(b, capacity)
		b = putU64(b, count)
		b = putF64s(b, make([]float64, retained))
	}
	return b
}

// badRingPayloads are ring records the decoder must reject; ringPayload
// also builds the consistent shapes TestStoreDecodeRejectsGarbage
// accepts.
var badRingPayloads = map[string][]byte{
	"oversized capacity":       ringPayload(1<<32-1, 0, 0),
	"capacity beyond payload":  ringPayload(64, 0, 0),
	"count below retained":     ringPayload(4, 1, 3),
	"partial ring count":       ringPayload(8, 5, 3),
	"count wraps negative":     ringPayload(4, 1<<63, 4),
	"retained beyond capacity": ringPayload(2, 3, 3),
}

// runPayloads encodes real runs: a fluid stream, a short fluid stream
// that never fills its rings, a packet stream whose tick count falls
// short of its horizon hint (with a tail fraction so small that the
// rings span the whole hint, this leaves the most empty slots a real
// ring has), and a recorded fluid trace.
func runPayloads(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	stream := func(sub engine.Substrate, tail float64) {
		st := NewStream(sub.Meta(), tail)
		if _, err := engine.Run(context.Background(), engine.Spec{Substrate: sub, Observers: []engine.Observer{st}}); err != nil {
			tb.Fatal(err)
		}
		out = append(out, encodeRun(st, nil))
	}
	fluidSub := func(steps int) engine.Substrate {
		senders, err := fluid.HomogeneousSenders(protocol.Reno(), 2, []float64{1, 40})
		if err != nil {
			tb.Fatal(err)
		}
		return &engine.FluidSpec{Cfg: cap100(), Senders: senders, Steps: steps}
	}
	stream(fluidSub(200), DefaultTailFrac)
	stream(fluidSub(3), 0.01)
	stream(&engine.PacketSpec{
		Cfg:      packetsim.Config{Bandwidth: 500, PropDelay: 0.02, Buffer: 25, Seed: 3},
		Flows:    []packetsim.Flow{{Proto: protocol.Reno()}, {Proto: protocol.Reno(), Start: 1}},
		Duration: 4,
	}, 0.001)
	tr, err := runRecorded(cap100(), protocol.Reno(), 2, []float64{1}, Options{Steps: 50, NoCache: true})
	if err != nil {
		tb.Fatal(err)
	}
	return append(out, encodeRun(nil, tr))
}

// checkRingBounds asserts no decoded ring allocates beyond what the
// payload carries plus ringSlack.
func checkRingBounds(t *testing.T, payload []byte, rings ...[]*stats.Ring) {
	t.Helper()
	for _, rs := range rings {
		for _, r := range rs {
			if r.Cap() > len(payload)/8+ringSlack {
				t.Fatalf("ring capacity %d from a %d-byte payload", r.Cap(), len(payload))
			}
		}
	}
}

// FuzzDecodeRun feeds arbitrary payloads to decodeRun. The contract: a
// payload either fails to decode or decodes into a run whose rings stay
// within the payload's size and which re-encodes to the same bytes —
// nothing is dropped, clamped, or invented.
func FuzzDecodeRun(f *testing.F) {
	for _, p := range runPayloads(f) {
		recorded := p[0] == codecKindTrace
		if _, _, err := decodeRun(p, recorded); err != nil {
			f.Fatalf("real payload rejected: %v", err)
		}
		f.Add(p, recorded)
	}
	for _, p := range badRingPayloads {
		f.Add(p, false)
	}
	f.Fuzz(func(t *testing.T, payload []byte, recorded bool) {
		st, tr, err := decodeRun(payload, recorded)
		if err != nil {
			return
		}
		var again []byte
		if st != nil {
			rings := []*stats.Ring{st.total, st.rtt, st.loss}
			for i := range st.windows {
				rings = append(rings, &st.windows[i], &st.goodput[i])
			}
			checkRingBounds(t, payload, rings)
			again = encodeRun(st, nil)
		} else {
			again = encodeRun(nil, tr)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("decoded run re-encodes to %d different bytes (from %d)", len(again), len(payload))
		}
	})
}

// FuzzDecodeTopoRun is FuzzDecodeRun for multi-link topology streams.
func FuzzDecodeTopoRun(f *testing.F) {
	links, flows := topoFixture()
	for _, steps := range []int{300, 3} {
		st, err := RunTopo(context.Background(), TopoRunSpec{Links: links, Flows: flows, Steps: steps})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodeTopoRun(st))
	}
	for _, p := range badRingPayloads {
		bad := append([]byte(nil), p...)
		bad[0] = codecKindTopo
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		st, err := decodeTopoRun(payload)
		if err != nil {
			return
		}
		checkRingBounds(t, payload, st.windows, st.goodput, st.flowRTT, st.linkLoad, st.linkLoss)
		if again := encodeTopoRun(st); !bytes.Equal(again, payload) {
			t.Fatalf("decoded topology run re-encodes to %d different bytes (from %d)", len(again), len(payload))
		}
	})
}
