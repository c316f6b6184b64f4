package pareto

import (
	"context"
	"fmt"

	"repro/internal/fluid"
	"repro/internal/metrics"
	"repro/internal/protocol"
)

// AIMDEvaluator returns a CellEvaluator measuring AIMD(α, β) cells in
// the 2-objective plane (efficiency, TCP-friendliness) on cfg — the
// empirical face of Figure 1's tradeoff: gentler backoff (higher β)
// buys efficiency at the price of crowding out Reno, so the frontier is
// a genuine curve through the (α, β) box rather than the whole box.
// Both objectives are oriented higher-is-better, so results feed
// Explore's dominance machinery directly.
//
// Each batch is resolved in one pass. Cell i contributes two run-sets —
// its homogeneous efficiency runs (set 2i) and its p-vs-Reno
// friendliness runs (set 2i+1) — and metrics.Resolve pushes every run of
// every cell through the session as one engine batch, so cache misses
// across cells advance together on the SoA fast path (AIMD is
// kernelized). Each cell is then scored from the streams Resolve handed
// back, with the very reductions metrics.Efficiency and
// metrics.TCPFriendliness apply to the same runs, so the coordinates are
// bit-identical to those estimators'. A cell counts as Simulated when
// any of its runs actually executed; on a warm store every flag is
// false. ctx cancels a running batch.
//
// The evaluator owns a Session when opt doesn't carry one (inheriting
// the process default store, if installed), so repeated rounds — and
// repeated Explore calls against the same evaluator — share runs. With
// opt.NoCache every run simulates, uncached, in the same one batch.
func AIMDEvaluator(cfg fluid.Config, opt metrics.Options) CellEvaluator {
	if opt.Session == nil && !opt.NoCache {
		opt.Session = metrics.NewSession()
	}
	return func(ctx context.Context, cells []Cell) ([]CellResult, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sets := make([]metrics.RunSet, 0, 2*len(cells))
		for _, c := range cells {
			if !(c.Alpha > 0) || !(c.Beta > 0) || !(c.Beta < 1) {
				return nil, fmt.Errorf("pareto: AIMD cell (α=%v, β=%v) outside α>0, 0<β<1", c.Alpha, c.Beta)
			}
			p := protocol.NewAIMD(c.Alpha, c.Beta)
			sets = append(sets,
				metrics.RunSet{Cfg: cfg, Protos: []protocol.Protocol{p}},
				metrics.RunSet{Cfg: cfg, Protos: []protocol.Protocol{p, protocol.Reno()}},
			)
		}
		streams, sim, err := metrics.Resolve(ctx, sets, opt)
		if err != nil {
			return nil, err
		}
		out := make([]CellResult, len(cells))
		for i := range cells {
			eff := metrics.WorstEfficiency(streams[2*i])
			friendly := metrics.WorstFriendliness(streams[2*i+1], 1)
			out[i] = CellResult{Coords: []float64{eff, friendly}, Simulated: sim[2*i] || sim[2*i+1]}
		}
		return out, nil
	}
}
