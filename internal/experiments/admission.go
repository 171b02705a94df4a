package experiments

import (
	"fmt"
	"math/rand"

	"sflow/internal/abstract"
	"sflow/internal/overlay"
	"sflow/internal/provision"
	"sflow/internal/require"
	"sflow/internal/solver"
)

// admissionDemand is the bandwidth each admitted request reserves.
const admissionDemand int64 = 150

// admissionCap bounds the number of requests probed per trial.
const admissionCap = 200

// Admission measures resource efficiency under contention (experiment A3 of
// DESIGN.md, extending the paper): identical requests are admitted one after
// another over a shared overlay, each reserving its demanded bandwidth along
// its streams, until the federation algorithm can no longer find a flow
// graph sustaining the demand. More admitted requests = the algorithm
// spends the network's capacity more frugally.
func Admission(cfg Config) (*Series, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	cols := []string{"sflow", "fixed", "random"}
	points, err := run(cfg, cols, func(size, trial int) (map[string]float64, error) {
		s, _, err := generalScenario(cfg, size, trial, mixedKind(trial))
		if err != nil {
			return nil, err
		}
		vals := make(map[string]float64, len(cols))
		rng := rand.New(rand.NewSource(trialSeed(cfg.Seed, size, trial) + 13))
		for _, name := range cols {
			m := provision.NewManagerMetrics(s.Overlay, cfg.Metrics)
			n, err := m.AdmitUntilRejected(s.Req, s.SourceNID, admissionDemand, cfg.algorithm(name, rng), admissionCap)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			vals[name] = float64(n)
		}
		return vals, nil
	})
	if err != nil {
		return nil, err
	}
	return &Series{
		ID:      "admission",
		Title:   "Requests admitted before saturation (demand 150 Kbit/s each)",
		XLabel:  "NetworkSize",
		YLabel:  "admitted requests",
		Columns: cols,
		Points:  points,
	}, nil
}

// algorithm returns the named registry algorithm as the admission sweeps run
// it: abstract graphs built with BuildMetrics into cfg.Metrics, the
// distributed protocol instrumented into it, and rng driving "random" across
// every admission of the run.
func (cfg Config) algorithm(name string, rng *rand.Rand) provision.Algorithm {
	return solver.Algorithm(name, solver.Options{Rng: rng, Metrics: cfg.Metrics},
		func(ov *overlay.Overlay, req *require.Requirement) (*abstract.Graph, error) {
			return abstract.BuildMetrics(ov, req, cfg.Metrics)
		})
}
