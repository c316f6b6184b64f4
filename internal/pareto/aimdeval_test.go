package pareto

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fluid"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/rand64"
	"repro/internal/runstore"
)

// TestAIMDEvaluatorMatchesEstimators checks the evaluator's coordinates
// against the official estimators, run uncached, bit for bit: the
// evaluator scores cells from the streams its batch resolved, so this is
// what ties it to metrics.Efficiency and metrics.TCPFriendliness. It
// covers a session, NoCache, and a warm run store, on two links, one of
// them without a buffer.
func TestAIMDEvaluatorMatchesEstimators(t *testing.T) {
	const steps = 200
	cells := []Cell{{0.5, 0.3}, {0.5, 0.8}, {1, 0.5}, {2, 0.3}, {2, 0.8}}
	links := map[string]fluid.Config{"buffered": testLink(), "bufferless": {Bandwidth: fluid.MbpsToMSSps(20), PropDelay: 0.021}}
	st, err := runstore.Open(t.TempDir(), runstore.Options{Version: "testver"})
	if err != nil {
		t.Fatal(err)
	}
	for ln, cfg := range links {
		want := make([][]float64, len(cells))
		for i, c := range cells {
			p := protocol.NewAIMD(c.Alpha, c.Beta)
			eff, err := metrics.Efficiency(cfg, p, 1, metrics.Options{Steps: steps})
			if err != nil {
				t.Fatal(err)
			}
			friendly, err := metrics.TCPFriendliness(cfg, p, 1, 1, metrics.Options{Steps: steps})
			if err != nil {
				t.Fatal(err)
			}
			want[i] = []float64{eff, friendly}
		}
		stored := func() metrics.Options {
			s := metrics.NewSession()
			s.SetStore(st)
			return metrics.Options{Steps: steps, Session: s}
		}
		for _, mode := range []struct {
			name      string
			opt       metrics.Options
			simulated bool
		}{
			{"session", metrics.Options{Steps: steps, Session: metrics.NewSession()}, true},
			{"nocache", metrics.Options{Steps: steps, NoCache: true}, true},
			{"cold store", stored(), true},
			{"warm store", stored(), false},
		} {
			got, err := AIMDEvaluator(cfg, mode.opt)(context.Background(), cells)
			if err != nil {
				t.Fatalf("%s/%s: %v", ln, mode.name, err)
			}
			for i := range cells {
				if !bitsEqual(got[i].Coords, want[i]) {
					t.Fatalf("%s/%s: cell %+v scored %v, estimators %v", ln, mode.name, cells[i], got[i].Coords, want[i])
				}
				if got[i].Simulated != mode.simulated {
					t.Fatalf("%s/%s: cell %+v Simulated = %v, want %v", ln, mode.name, cells[i], got[i].Simulated, mode.simulated)
				}
			}
		}
	}
}

// cancelLoss is a loss-free LossProcess that cancels a context once any
// run reaches step at, and records the furthest step any run reached.
// Its fingerprint keeps the runs cacheable, so a cancelled round
// exercises the session's claim eviction.
type cancelLoss struct {
	at     int
	cancel func()
	once   sync.Once
	max    atomic.Int64
}

func (c *cancelLoss) Rate(step, _ int, _ float64, _ *rand64.Source) float64 {
	if step >= c.at {
		c.once.Do(c.cancel)
	}
	for {
		m := c.max.Load()
		if int64(step) <= m || c.max.CompareAndSwap(m, int64(step)) {
			return 0
		}
	}
}

func (c *cancelLoss) Fingerprint() string { return "cancel-test" }

// TestAIMDEvaluatorCancelMidRound checks that cancelling the context
// stops a round that is already stepping — the runs end well short of
// their horizon and Explore returns the context's error — and that the
// session the cancelled round used still serves a rerun whose frontier
// is bit-identical to a fresh session's.
func TestAIMDEvaluatorCancelMidRound(t *testing.T) {
	const steps = 4000
	explore := func(ctx context.Context, loss *cancelLoss, sess *metrics.Session) (*ExploreResult, error) {
		cfg := testLink()
		cfg.Loss = loss
		return Explore(ctx, ExploreConfig{
			AlphaRange: [2]float64{0.5, 2},
			BetaRange:  [2]float64{0.3, 0.8},
			Coarse:     3,
			Rounds:     1,
			Eval:       AIMDEvaluator(cfg, metrics.Options{Steps: steps, Session: sess}),
		})
	}
	sess := metrics.NewSession()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	loss := &cancelLoss{at: 300, cancel: cancel}
	_, err := explore(ctx, loss, sess)
	if err == nil || !errors.Is(err, ctx.Err()) {
		t.Fatalf("cancelled explore returned %v, want %v", err, ctx.Err())
	}
	if reached := loss.max.Load(); reached >= steps-1 {
		t.Fatalf("runs reached step %d of %d after cancellation: the round ignored its context", reached, steps)
	}

	noop := func() {}
	rerun, err := explore(context.Background(), &cancelLoss{at: steps, cancel: noop}, sess)
	if err != nil {
		t.Fatalf("rerun on the cancelled session: %v", err)
	}
	fresh, err := explore(context.Background(), &cancelLoss{at: steps, cancel: noop}, metrics.NewSession())
	if err != nil {
		t.Fatal(err)
	}
	if len(rerun.Frontier) == 0 || len(rerun.Frontier) != len(fresh.Frontier) {
		t.Fatalf("rerun frontier has %d points, fresh %d", len(rerun.Frontier), len(fresh.Frontier))
	}
	for i, p := range rerun.Frontier {
		q := fresh.Frontier[i]
		if math.Float64bits(p.Alpha) != math.Float64bits(q.Alpha) || math.Float64bits(p.Beta) != math.Float64bits(q.Beta) || !bitsEqual(p.Coords, q.Coords) {
			t.Fatalf("frontier point %d: rerun %+v, fresh session %+v", i, p, q)
		}
	}
}
