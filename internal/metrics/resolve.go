package metrics

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/fluid"
	"repro/internal/protocol"
)

// RunSet describes the streamed runs one estimator call performs: one
// sender per protocol in Protos on Cfg, over the default (or configured)
// initial-window vectors. Efficiency(cfg, p, n, opt) is {Cfg: cfg,
// Protos: n copies of p}; Friendliness(cfg, p, q, nP, nQ, opt) is
// {Cfg: cfg, Protos: nP ps followed by nQ qs}. Both estimators resolve
// their runs as a one-set Resolve call, so the keys, the streams and the
// scores are the same however the sets are grouped.
type RunSet struct {
	Cfg    fluid.Config
	Protos []protocol.Protocol
}

// Resolve returns the streams of every run of the given run-sets:
// streams[i] holds set i's runs, one per initial configuration in order,
// ready for the worst-case reductions (WorstEfficiency,
// WorstFriendliness). Through opt.Session, all cache misses across all
// sets reach engine.SweepSpecs together, so lockstep-compatible cells
// (kernelized protocols, synchronized feedback) advance as one
// structure-of-arrays block regardless of which set they belong to. A
// nil Session runs everything uncached in that one sweep. ctx bounds the
// sweep; a cancelled call evicts its claims, so the session stays usable.
//
// simulated is parallel to sets: simulated[i] is true when at least one
// of set i's runs was actually executed by this call (a cache miss or an
// uncacheable run), false when every run came from the session's memory,
// the persistent store, or a concurrent claimant. Explore's
// cells-simulated accounting — and its warm-store "zero cells" property —
// is measured through these flags. Streams are shared with the session
// and must be treated as read-only.
func Resolve(ctx context.Context, sets []RunSet, opt Options) (streams [][]*Stream, simulated []bool, err error) {
	o := opt.withDefaults()
	// Runs are flattened set by set; start[i] is set i's first run.
	start := make([]int, len(sets)+1)
	var (
		owner     []int
		inits     [][]float64
		keys      []string
		cacheable []bool
	)
	for si, set := range sets {
		if len(set.Protos) == 0 {
			return nil, nil, fmt.Errorf("metrics: run-set %d has no protocols", si)
		}
		var kr runKeyer
		if o.Session != nil {
			kr = newRunKeyer(set.Cfg, set.Protos, o, false)
		}
		for _, init := range o.initConfigs(set.Cfg, len(set.Protos)) {
			owner = append(owner, si)
			inits = append(inits, init)
			if o.Session != nil {
				k, c := kr.key(init)
				keys = append(keys, k)
				cacheable = append(cacheable, c)
			}
		}
		start[si+1] = len(owner)
	}
	exec := func(miss []int) ([]*Stream, error) {
		specs := make([]engine.Spec, len(miss))
		out := make([]*Stream, len(miss))
		for j, i := range miss {
			// Sender slices are built serially, on the caller's
			// goroutine: protocol cloning is not required to be
			// goroutine-safe. Only runs that simulate pay for them.
			set := &sets[owner[i]]
			sub := &engine.FluidSpec{Cfg: set.Cfg, Senders: fluid.MixedSenders(set.Protos, inits[i]), Steps: o.Steps}
			out[j] = NewStream(sub.Meta(), o.TailFrac)
			specs[j] = engine.Spec{
				Substrate: sub,
				Observers: []engine.Observer{out[j]},
				Chaos:     o.Chaos,
				ChaosSeed: o.ChaosSeed,
			}
		}
		if _, err := engine.SweepSpecs(ctx, specs, engine.SweepConfig{Workers: o.Workers}); err != nil {
			return nil, err
		}
		return out, nil
	}
	var (
		flat  []*Stream
		flags []bool
	)
	if o.Session == nil {
		all := make([]int, len(owner))
		flags = make([]bool, len(owner))
		for i := range all {
			all[i], flags[i] = i, true
		}
		flat, err = exec(all)
	} else {
		flat, flags, err = o.Session.doBatch(keys, cacheable, o.Steps, exec)
	}
	if err != nil {
		return nil, nil, err
	}
	streams = make([][]*Stream, len(sets))
	simulated = make([]bool, len(sets))
	for si := range sets {
		lo, hi := start[si], start[si+1]
		streams[si] = flat[lo:hi:hi]
		for _, f := range flags[lo:hi] {
			simulated[si] = simulated[si] || f
		}
	}
	return streams, simulated, nil
}

// Prefetch is Resolve for its side effect alone: it warms opt.Session
// with every run of the given sets, so estimator calls made afterwards
// with the same Options and Session are pure memory hits, and returns
// the per-set simulated flags. It requires a Session.
func Prefetch(sets []RunSet, opt Options) (simulated []bool, err error) {
	if opt.Session == nil {
		return nil, errors.New("metrics: Prefetch requires Options.Session")
	}
	_, simulated, err = Resolve(context.TODO(), sets, opt)
	return simulated, err
}
