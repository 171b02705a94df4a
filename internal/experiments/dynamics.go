package experiments

import (
	"fmt"
	"reflect"
	"time"

	"sflow/internal/abstract"
	"sflow/internal/metrics"
	"sflow/internal/reduce"
	"sflow/internal/scenario"
	"sflow/internal/session"
)

// dynamicsRounds is the number of interleaved mutation/solve rounds each
// dynamics cell runs: one seeded mutation, then one solve on the incremental
// session and one on a from-scratch rebuild of the same overlay state.
const dynamicsRounds = 30

// Dynamics measures the paper's agility claim quantitatively: a long-lived
// federation session absorbing churn re-solves from incrementally maintained
// caches, against the stateless path that rebuilds the all-pairs table and
// abstract graph per solve. Every round applies one seeded mutation (the
// session.Churn event model: bandwidth changes, link add/remove, instance
// join/leave) and solves with the reduction heuristic on both paths.
//
// The series reports only deterministic columns, so the CSV is byte-identical
// at any Config.Workers:
//
//   - recomputed_frac: per-source routing runs the incremental flush performed,
//     as a fraction of the full rebuild's (one per instance). The smaller, the
//     bigger the win; single-link changes typically dirty a small fraction.
//   - saved_frac: 1 - recomputed_frac, the work the session skipped.
//   - match: fraction of rounds where the session's solution (metric and flow
//     graph, or error) equals the rebuild's exactly — the oracle inlined into
//     the experiment; anything below 1.0 is a cache-invalidation bug.
//   - solved: fraction of rounds where the solve succeeded (churn may
//     legitimately disconnect a requirement; both paths then fail together).
//
// Wall-clock comparisons are scheduling-dependent, so they go to volatile
// histograms on Config.Metrics (exp_dynamics_incremental_us and
// exp_dynamics_rebuild_us, per-solve microseconds) and to the committed
// benchmark results/bench-dynamics.txt rather than into the series.
func Dynamics(cfg Config) (*Series, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	cols := []string{"recomputed_frac", "saved_frac", "match", "solved"}
	incUS := cfg.Metrics.Histogram("exp_dynamics_incremental_us",
		metrics.ExponentialBounds(10, 10, 7), metrics.Volatile())
	rebUS := cfg.Metrics.Histogram("exp_dynamics_rebuild_us",
		metrics.ExponentialBounds(10, 10, 7), metrics.Volatile())
	points, err := run(cfg, cols, func(size, trial int) (map[string]float64, error) {
		s, err := scenario.Generate(scenario.Config{
			Seed:                trialSeed(cfg.Seed, size, trial),
			NetworkSize:         size,
			Services:            cfg.Services,
			InstancesPerService: cfg.instancesFor(size),
			Kind:                mixedKind(trial),
		})
		if err != nil {
			return nil, err
		}
		// The session stays sequential: the sweep pool already fans cells out
		// across cores, and per-cell parallelism would not change the series
		// anyway (flush results are identical at any worker count).
		sess := session.New(s.Overlay, session.Options{Workers: 1, Metrics: cfg.Metrics})
		sess.Flush()
		churn := session.NewChurn(sess, trialSeed(cfg.Seed, size, trial)+13,
			[]int{s.SourceNID}, s.Req.Services())

		var recomputed, total, matches, solves int
		for round := 0; round < dynamicsRounds; round++ {
			if _, err := churn.Step(); err != nil {
				return nil, err
			}

			// Incremental path: the session evicts and refills the dirty
			// sources, then the solve reads the maintained caches.
			before := sess.Stats().RecomputedSources
			start := time.Now()
			ag, incErr := sess.Abstract(s.Req)
			var incSol *reduce.Result
			if incErr == nil {
				incSol, incErr = reduce.Solve(ag, s.SourceNID, nil)
			}
			incUS.Observe(time.Since(start).Microseconds())
			recomputed += int(sess.Stats().RecomputedSources - before)
			total += sess.Overlay().NumInstances()

			// Rebuild path: from-scratch all-pairs and abstract graph over
			// the identical overlay state.
			start = time.Now()
			rg, rebErr := abstract.BuildWorkers(sess.Overlay(), s.Req, 1)
			var rebSol *reduce.Result
			if rebErr == nil {
				rebSol, rebErr = reduce.Solve(rg, s.SourceNID, nil)
			}
			rebUS.Observe(time.Since(start).Microseconds())

			switch {
			case incErr != nil || rebErr != nil:
				if (incErr == nil) == (rebErr == nil) {
					matches++ // both paths failed on the same overlay state
				}
			case incSol.Metric == rebSol.Metric && reflect.DeepEqual(incSol.Flow, rebSol.Flow):
				matches++
				solves++
			default:
				solves++
			}
		}
		frac := float64(recomputed) / float64(total)
		return map[string]float64{
			"recomputed_frac": frac,
			"saved_frac":      1 - frac,
			"match":           float64(matches) / dynamicsRounds,
			"solved":          float64(solves) / dynamicsRounds,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Series{
		ID:      "dynamics",
		Title:   fmt.Sprintf("Incremental session vs per-solve rebuild under churn (%d mutation/solve rounds)", dynamicsRounds),
		XLabel:  "NetworkSize",
		YLabel:  "fraction",
		Columns: cols,
		Points:  points,
	}, nil
}
