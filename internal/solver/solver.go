// Package solver is the one registry of the federation algorithms the paper
// compares (Fig. 10): the name → implementation table over a built service
// abstract graph, the cluster-based "hierarchical" dispatch over the raw
// overlay, and the adapter to the provisioning Algorithm shape, which also
// serves "sflow", the distributed protocol.
//
// The public facade, the serving daemon and the evaluation sweeps all
// dispatch through it. Each caller supplies its own abstract-graph build (a
// fresh all-pairs computation, a lazy table, a session's maintained table or
// a served epoch's frozen one), so the registry never decides how routing is
// computed.
package solver

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"sflow/internal/abstract"
	"sflow/internal/baseline"
	"sflow/internal/cluster"
	"sflow/internal/control"
	"sflow/internal/core"
	"sflow/internal/exact"
	"sflow/internal/flow"
	"sflow/internal/metrics"
	"sflow/internal/overlay"
	"sflow/internal/provision"
	"sflow/internal/qos"
	"sflow/internal/reduce"
	"sflow/internal/require"
)

// Solution is the outcome of one centralised federation algorithm: the
// computed service flow graph and its end-to-end quality.
type Solution struct {
	Flow   *flow.Graph
	Metric qos.Metric
}

// Options tunes a solve. The zero value is ready to use. It is the facade's
// SolveOptions: Workers, Metrics and Lazy also steer the abstract-graph build
// the facade passes in, while the registry itself reads Workers and Lazy only
// for "hierarchical" and Metrics only for "sflow".
type Options struct {
	// Rng drives the "random" algorithm. Nil defaults to a fixed seed so
	// solves stay reproducible by default.
	Rng *rand.Rand
	// ClusterK is the cluster count of the "hierarchical" algorithm
	// (0 defaults to 4, clamped to the overlay's instance count).
	ClusterK int
	// Workers bounds the all-pairs shortest-widest fan-out behind the
	// abstract-graph build: 0 uses runtime.GOMAXPROCS(0), 1 forces the
	// sequential computation.
	Workers int
	// Metrics, when non-nil, collects instrumentation from the build and
	// the algorithm run.
	Metrics *metrics.Registry
	// Lazy routes demand-driven: no all-pairs computation runs up front, and
	// only the shortest-widest rows the chosen algorithm actually reads —
	// the rows of instances populating service slots — are computed. Answers
	// are byte-identical to eager mode for every algorithm; the cost stops
	// scaling with overlay size, which is what makes 10k–100k-node overlays
	// interactive. For "hierarchical", Lazy prices clusters and solves the
	// intra-cluster problem from lazy tables.
	Lazy bool
	// Contracted switches the "hierarchical" algorithm to the large-overlay
	// fast path: O(E) BFS clustering, inter-cluster routing on the
	// contracted k-node cluster digraph, and a lazily expanded
	// instance-level solve inside the chosen clusters. Cluster pairs are
	// priced by their best boundary link rather than exact member-pair
	// routes, so flows may differ from the classic hierarchical algorithm
	// (they remain valid federations with exact instance-level routes).
	// Ignored by the other algorithms.
	Contracted bool
}

// ErrUnknownAlgorithm is returned for a name outside Names().
var ErrUnknownAlgorithm = errors.New("sflow: unknown algorithm")

// Hierarchical names the cluster-based algorithm: the one registry entry
// that runs over the raw overlay instead of an abstract graph.
const Hierarchical = "hierarchical"

// SFlow names the distributed protocol. It is not a centralised algorithm,
// so only the provisioning adapter (Algorithm) serves it.
const SFlow = "sflow"

// Func runs one algorithm over a built abstract graph. rng drives "random"
// only; nil means a fresh seed-1 source per call.
type Func func(ag *abstract.Graph, src int, rng *rand.Rand) (*Solution, error)

// Build produces the abstract graph an algorithm runs over.
type Build func(ov *overlay.Overlay, req *require.Requirement) (*abstract.Graph, error)

// table maps every abstract-graph algorithm name to its implementation.
var table = map[string]Func{
	"baseline": func(ag *abstract.Graph, src int, _ *rand.Rand) (*Solution, error) {
		r, err := baseline.Solve(ag, src, nil)
		if err != nil {
			return nil, err
		}
		return &Solution{Flow: r.Flow, Metric: r.Metric}, nil
	},
	"heuristic": func(ag *abstract.Graph, src int, _ *rand.Rand) (*Solution, error) {
		r, err := reduce.Solve(ag, src, nil)
		if err != nil {
			return nil, err
		}
		return &Solution{Flow: r.Flow, Metric: r.Metric}, nil
	},
	"optimal": func(ag *abstract.Graph, src int, _ *rand.Rand) (*Solution, error) {
		r, err := exact.Solve(ag, src, exact.Options{})
		if err != nil {
			return nil, err
		}
		return &Solution{Flow: r.Flow, Metric: r.Metric}, nil
	},
	"fixed": func(ag *abstract.Graph, src int, _ *rand.Rand) (*Solution, error) {
		r, err := control.Fixed(ag, src)
		if err != nil {
			return nil, err
		}
		return &Solution{Flow: r.Flow, Metric: r.Metric}, nil
	},
	"random": func(ag *abstract.Graph, src int, rng *rand.Rand) (*Solution, error) {
		if rng == nil {
			rng = rand.New(rand.NewSource(1))
		}
		r, err := control.Random(ag, src, rng)
		if err != nil {
			return nil, err
		}
		return &Solution{Flow: r.Flow, Metric: r.Metric}, nil
	},
	"servicepath": func(ag *abstract.Graph, src int, _ *rand.Rand) (*Solution, error) {
		r, err := control.ServicePath(ag, src)
		if err != nil {
			return nil, err
		}
		if !r.Complete {
			return nil, &core.PartialFederationError{Flow: r.Flow}
		}
		return &Solution{Flow: r.Flow, Metric: r.Metric}, nil
	},
}

// Names lists every centralised algorithm name, sorted: the abstract-graph
// algorithms plus "hierarchical".
func Names() []string {
	names := make([]string, 0, len(table)+1)
	for name := range table {
		names = append(names, name)
	}
	names = append(names, Hierarchical)
	sort.Strings(names)
	return names
}

// Lookup returns the abstract-graph algorithm registered under name. Any
// other name — "hierarchical" included, which needs the overlay and is
// reachable through Solve — yields an error wrapping ErrUnknownAlgorithm.
func Lookup(name string) (Func, error) {
	fn, ok := table[name]
	if !ok {
		return nil, fmt.Errorf("%w %q (have %s)", ErrUnknownAlgorithm,
			name, strings.Join(Names(), ", "))
	}
	return fn, nil
}

// Solve runs the named centralised algorithm. "hierarchical" runs over ov;
// every other name runs over build(ov, req), called only once the name is
// known to be valid. The returned Solution is non-nil exactly when the error
// is nil.
func Solve(name string, ov *overlay.Overlay, req *require.Requirement, src int, opts Options, build Build) (*Solution, error) {
	if name == Hierarchical {
		return hierarchical(ov, req, src, opts)
	}
	fn, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	ag, err := build(ov, req)
	if err != nil {
		return nil, err
	}
	return fn(ag, src, opts.Rng)
}

// hierarchical runs the cluster federation: the classic member-pair priced
// hierarchy, or the contracted large-overlay fast path.
func hierarchical(ov *overlay.Overlay, req *require.Requirement, src int, opts Options) (*Solution, error) {
	k := opts.ClusterK
	if k == 0 {
		k = 4
	}
	if n := ov.NumInstances(); k > n {
		k = n
	}
	var r *cluster.Result
	var err error
	if opts.Contracted {
		r, err = cluster.FederateContracted(ov, req, src, k, opts.Workers)
	} else {
		r, err = cluster.FederateWith(ov, req, src, k, cluster.Options{Lazy: opts.Lazy, Workers: opts.Workers})
	}
	if err != nil {
		return nil, err
	}
	return &Solution{Flow: r.Flow, Metric: r.Metric}, nil
}

// Algorithm adapts a registry name to the provisioning Algorithm shape,
// federating over whatever (residual) overlay the caller passes. Every
// Names() entry dispatches through Solve with opts and build; "sflow" runs
// the distributed protocol with opts.Metrics. An unknown name surfaces as
// ErrUnknownAlgorithm when the algorithm first runs. A non-nil opts.Rng is
// shared by every call, so "random" draws a fresh placement each time.
func Algorithm(name string, opts Options, build Build) provision.Algorithm {
	if name == SFlow {
		return func(ov *overlay.Overlay, req *require.Requirement, src int) (*flow.Graph, qos.Metric, error) {
			res, err := core.Federate(ov, req, src, core.Options{Metrics: opts.Metrics})
			if err != nil {
				return nil, qos.Unreachable, err
			}
			return res.Flow, res.Metric, nil
		}
	}
	return func(ov *overlay.Overlay, req *require.Requirement, src int) (*flow.Graph, qos.Metric, error) {
		sol, err := Solve(name, ov, req, src, opts, build)
		if err != nil {
			return nil, qos.Unreachable, err
		}
		return sol.Flow, sol.Metric, nil
	}
}
