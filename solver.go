package sflow

import (
	"sflow/internal/abstract"
	"sflow/internal/core"
	"sflow/internal/metrics"
	"sflow/internal/qos"
	"sflow/internal/solver"
)

// Metrics is a registry of counters, gauges and histograms that the library
// fills in as it works: protocol messages and bytes, Dijkstra relaxations,
// abstract-graph builds, admissions, sweep cells. A nil *Metrics anywhere one
// is accepted disables instrumentation at (near) zero cost. All updates are
// atomic and safe for concurrent use.
type Metrics = metrics.Registry

// MetricsSnapshot is a point-in-time, deterministically ordered copy of a
// Metrics registry. Text() renders everything; StableText() omits volatile
// (wall-clock / scheduling dependent) metrics, so for a fixed seed it is
// byte-identical at any worker count. JSON() is the machine-readable form.
type MetricsSnapshot = metrics.Snapshot

// NewMetrics returns an empty metrics registry. Pass it in Options.Metrics,
// SolveOptions.Metrics or ExperimentConfig.Metrics and read it back with its
// Snapshot method.
func NewMetrics() *Metrics { return metrics.New() }

// Unreachable is the Metric reported when no route (or no complete
// federation) exists; its Reachable method returns false.
var Unreachable = qos.Unreachable

// Solution is the outcome of one centralised federation algorithm: the
// computed service flow graph and its end-to-end quality.
type Solution = solver.Solution

// SolveOptions tunes Solve: the rng of "random", the cluster count and
// large-overlay switches of "hierarchical", the all-pairs worker bound and
// the metrics registry. The zero value is ready to use.
type SolveOptions = solver.Options

// ErrUnknownAlgorithm is returned by Solve for a name outside Algorithms().
var ErrUnknownAlgorithm = solver.ErrUnknownAlgorithm

// ErrPartialFederation is the sentinel wrapped by every error that carries a
// partial federation: the algorithm placed only part of the requirement
// (ServicePath on a non-path requirement federates just the main chain; a
// distributed run under faults times out or exhausts its retry budget).
// Match with errors.Is and recover the partial flow graph with errors.As on
// *PartialFederationError.
var ErrPartialFederation = core.ErrPartialFederation

// PartialFederationError reports that an algorithm could not satisfy the full
// requirement and carries what it did federate — plus, for distributed runs,
// the unresponsive instances (feed them to RepairPartial) and the protocol
// stats. It unwraps to ErrPartialFederation and to its Cause when set.
type PartialFederationError = core.PartialFederationError

// buildAbstract builds the service abstract graph behind every centralised
// algorithm, mapping build failures (a required service without instances)
// onto the facade's (nil, Unreachable, error) convention.
func buildAbstract(ov *Overlay, req *Requirement, opts SolveOptions) (*abstract.Graph, error) {
	if opts.Lazy {
		return abstract.BuildLazy(ov, req, opts.Workers, opts.Metrics)
	}
	return abstract.BuildWorkersMetrics(ov, req, opts.Workers, opts.Metrics)
}

// Algorithms lists the names Solve accepts, sorted.
func Algorithms() []string { return solver.Names() }

// Solve runs the named centralised federation algorithm over the overlay:
//
//   - "baseline": the paper's polynomial algorithm for path requirements
//   - "heuristic": the reduction heuristic for general DAGs
//   - "optimal": the exhaustive branch-and-bound global optimum
//   - "fixed": widest-direct-link greedy control
//   - "random": random feasible placement control (seed via SolveOptions.Rng)
//   - "servicepath": end-to-end single-path control; on non-path
//     requirements it returns a *PartialFederationError carrying the
//     main-chain flow graph
//   - "hierarchical": cluster-based divide-and-conquer federation
//     (cluster count via SolveOptions.ClusterK)
//
// All algorithms except "hierarchical" share a single abstract-graph build.
// The returned Solution is non-nil exactly when the error is nil.
func Solve(name string, ov *Overlay, req *Requirement, src int, opts SolveOptions) (*Solution, error) {
	return solver.Solve(name, ov, req, src, opts, func(ov *Overlay, req *Requirement) (*abstract.Graph, error) {
		return buildAbstract(ov, req, opts)
	})
}
