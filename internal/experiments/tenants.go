package experiments

import (
	"errors"
	"fmt"
	"math/rand"

	"sflow/internal/overlay"
	"sflow/internal/provision"
	"sflow/internal/require"
)

// tenantArrivals is the number of admission requests offered per trial.
const tenantArrivals = 120

// tenantClasses is the number of priority classes in the tenant mix.
const tenantClasses = 3

// tenantQuota throttles the lowest class: with ~tenantArrivals/3 class-0
// arrivals per trial, a quota of 25 forces visible quota rejections.
const tenantQuota = 25

// Tenants measures multi-tenant priority admission through the capacity
// allocator (experiment A13 of DESIGN.md): a seeded stream of mixed-class,
// mixed-demand tenants arrives and departs over a shared overlay, admitted by
// an Allocator with three priority classes, a quota on the lowest class and
// preemption enabled. For each federation algorithm the figure reports the
// overall admission ratio (admitted / offered) and the Jain fairness index of
// the per-class admission ratios — both in [0, 1], so one panel shows whether
// an algorithm buys capacity by starving the low classes.
func Tenants(cfg Config) (*Series, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	algNames := []string{"sflow", "fixed", "random"}
	cols := make([]string, 0, 2*len(algNames))
	for _, n := range algNames {
		cols = append(cols, n, n+"-jain")
	}
	points, err := run(cfg, cols, func(size, trial int) (map[string]float64, error) {
		s, _, err := generalScenario(cfg, size, trial, mixedKind(trial))
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(trialSeed(cfg.Seed, size, trial) + 13))
		vals := make(map[string]float64, len(cols))
		for _, name := range algNames {
			ratio, jain, err := tenantRun(s.Overlay, s.Req, s.SourceNID, cfg.algorithm(name, rng),
				rand.New(rand.NewSource(trialSeed(cfg.Seed, size, trial)+41)), cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			vals[name] = ratio
			vals[name+"-jain"] = jain
		}
		return vals, nil
	})
	if err != nil {
		return nil, err
	}
	return &Series{
		ID:      "tenants",
		Title:   "Multi-tenant priority admission: admission ratio and per-class Jain fairness",
		XLabel:  "NetworkSize",
		YLabel:  "ratio / fairness",
		Columns: cols,
		Points:  points,
	}, nil
}

// tenantRun drives one seeded arrival/departure stream through an Allocator
// and returns the overall admission ratio and the Jain fairness index of the
// per-class admission ratios. The stream is sequential, so the recorded
// serialization — and hence the figure — is deterministic.
func tenantRun(ov *overlay.Overlay, req *require.Requirement, src int,
	alg provision.Algorithm, rng *rand.Rand, cfg Config) (float64, float64, error) {
	alloc := provision.NewAllocator(ov, provision.AllocatorOptions{
		Classes: tenantClasses,
		Quotas:  []int{tenantQuota, 0, 0},
		Preempt: true,
		Metrics: cfg.Metrics,
	})
	defer alloc.Close()

	offered := make([]float64, tenantClasses)
	admitted := make([]float64, tenantClasses)
	var active []uint64
	for i := 0; i < tenantArrivals; i++ {
		// A quarter of the steps are departures: the allocator sees churn,
		// not just a fill-until-full ramp. Preempted tickets may already be
		// gone — a benign race the allocator reports as ErrNoTicket.
		if len(active) > 0 && rng.Intn(4) == 0 {
			k := rng.Intn(len(active))
			if err := alloc.Release(active[k]); err != nil &&
				!errors.Is(err, provision.ErrNoTicket) {
				return 0, 0, err
			}
			active = append(active[:k], active[k+1:]...)
		}
		class := rng.Intn(tenantClasses)
		demand := 50 + rng.Int63n(150)
		offered[class]++
		tk, err := alloc.Admit(provision.AdmitRequest{
			Req: req, Src: src, Demand: demand, Class: class, Alg: alg,
		})
		switch {
		case err == nil:
			admitted[class]++
			active = append(active, tk.ID)
		case errors.Is(err, provision.ErrRejected):
			// Counted as offered but not admitted.
		default:
			return 0, 0, err
		}
	}

	var offSum, admSum float64
	ratios := make([]float64, tenantClasses)
	for c := 0; c < tenantClasses; c++ {
		offSum += offered[c]
		admSum += admitted[c]
		if offered[c] > 0 {
			ratios[c] = admitted[c] / offered[c]
		}
	}
	if offSum == 0 {
		return 0, 0, errors.New("experiments: tenant stream offered no requests")
	}
	return admSum / offSum, jain(ratios), nil
}

// jain is Jain's fairness index (Σx)² / (n·Σx²): 1 when every class fares
// equally, 1/n when one class takes everything.
func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}
