// Package baseline implements the paper's baseline algorithm (Table 1): the
// polynomial-time exact construction of the optimal service flow graph for a
// *single-path* service requirement.
//
// The steps follow the paper: (1) all-pairs shortest-widest paths over the
// overlay (done once when the abstract graph is built), (2) construct the
// service abstract graph, (3) compute the shortest-widest abstract path from
// the source instance to the best sink instance, (4) expand every abstract
// edge into the concrete shortest-widest overlay route.
//
// Solve additionally accepts pinned instances (a SID -> NID map). Pins are
// how the reduction heuristics reuse the baseline: a split-and-merge block is
// solved branch by branch with the splitting and merging instances pinned.
package baseline

import (
	"errors"
	"fmt"

	"sflow/internal/abstract"
	"sflow/internal/flow"
	"sflow/internal/qos"
)

// ErrNotPath is returned when the requirement is not a single service path.
var ErrNotPath = errors.New("baseline: requirement is not a single service path")

// ErrInfeasible is returned when no instance assignment connects the source
// to the sink.
var ErrInfeasible = errors.New("baseline: no feasible service flow graph")

// Result is the output of the baseline algorithm.
type Result struct {
	// Flow is the computed (partial) service flow graph covering exactly
	// the services of the path requirement.
	Flow *flow.Graph
	// Metric is the end-to-end shortest-widest quality of the selected
	// abstract path.
	Metric qos.Metric
}

// Solve runs the baseline algorithm on a path-shaped requirement within the
// given abstract graph. src is the designated instance of the source service
// (the node where federation starts); pins force specific instances for
// specific services (nil for none). The source service is implicitly pinned
// to src.
func Solve(ag *abstract.Graph, src int, pins map[int]int) (*Result, error) {
	chain := ag.Requirement().PathServices()
	if chain == nil {
		return nil, ErrNotPath
	}
	return SolveChain(ag, chain, src, pins)
}

// SolveChain runs the baseline algorithm along an explicit chain of services
// within ag. The chain need not be the whole requirement: the reduction
// heuristics call SolveChain on each single-path fragment of a general
// requirement, typically with both endpoints pinned. src is the instance of
// chain[0]; pins force instances for later chain services.
func SolveChain(ag *abstract.Graph, chain []int, src int, pins map[int]int) (*Result, error) {
	if len(chain) < 2 {
		return nil, fmt.Errorf("baseline: chain %v too short", chain)
	}
	if got := ag.Overlay().SIDOf(src); got != chain[0] {
		return nil, fmt.Errorf("baseline: source instance %d provides service %d, chain starts at %d",
			src, got, chain[0])
	}
	for i, sid := range chain {
		for _, prev := range chain[:i] {
			if prev == sid {
				return nil, fmt.Errorf("baseline: chain %v repeats service %d", chain, sid)
			}
		}
	}
	layers, err := buildLayers(ag, chain, src, pins)
	if err != nil {
		return nil, err
	}
	return SolveLayers(ag, chain, layers, new(Scratch))
}

// SolveLayers is SolveChain over explicit candidate layers: layers[0] holds
// exactly the source instance and layers[i] the candidate instances of
// chain[i]. The caller guarantees what SolveChain validates — every
// candidate provides its layer's service and no service repeats — so the
// layers are disjoint and the abstract graph between them is a layered DAG.
//
// Step 3 of the algorithm runs as two passes in layer order, the layered
// form of the two-phase shortest-widest computation: a max-min pass for the
// widest bottleneck to every candidate, then a min-latency pass restricted
// to abstract edges at least as wide as the best sink's bottleneck. Ties are
// broken exactly as the two-phase Dijkstra settles them (see DESIGN.md,
// "Layered-DAG chain solves").
func SolveLayers(ag *abstract.Graph, chain []int, layers [][]int, sc *Scratch) (*Result, error) {
	sc.load(ag, layers)
	sink, m := sc.best()
	if sink < 0 {
		return nil, ErrInfeasible
	}
	abstractPath := sc.trace(sink)

	// Step 4: expand abstract edges into concrete overlay routes.
	fg := flow.New()
	if err := fg.Assign(chain[0], abstractPath[0]); err != nil {
		return nil, err
	}
	for i := 0; i+1 < len(abstractPath); i++ {
		from, to := abstractPath[i], abstractPath[i+1]
		e := flow.Edge{
			FromSID: chain[i], ToSID: chain[i+1],
			FromNID: from, ToNID: to,
			Path:   ag.EdgePath(from, to),
			Metric: ag.EdgeMetric(from, to),
		}
		if err := fg.AddEdge(e); err != nil {
			return nil, err
		}
	}
	return &Result{Flow: fg, Metric: m}, nil
}

// LayersMetric returns the metric SolveLayers would report for the same
// layers (qos.Unreachable where it would fail with ErrInfeasible) without
// building the flow graph: the same two passes, minus the predecessor walk
// and the route expansion. It reads exactly the abstract edges SolveLayers
// reads before its expansion step, in the same order.
func LayersMetric(ag *abstract.Graph, layers [][]int, sc *Scratch) qos.Metric {
	sc.load(ag, layers)
	_, m := sc.best()
	return m
}

// SolveBestSource runs Solve from every instance of the source service and
// returns the best result (used when the consumer does not designate a
// particular source instance).
func SolveBestSource(ag *abstract.Graph, pins map[int]int) (*Result, error) {
	req := ag.Requirement()
	chain := req.PathServices()
	if chain == nil {
		return nil, ErrNotPath
	}
	sources := ag.Slots(chain[0])
	if nid, ok := pins[chain[0]]; ok {
		sources = []int{nid}
	}
	var best *Result
	for _, src := range sources {
		r, err := Solve(ag, src, pins)
		if err != nil {
			if errors.Is(err, ErrInfeasible) {
				continue
			}
			return nil, err
		}
		if best == nil || r.Metric.Better(best.Metric) {
			best = r
		}
	}
	if best == nil {
		return nil, ErrInfeasible
	}
	return best, nil
}

// CheckPin returns the error SolveChain reports for pinning instance nid to
// service sid when nid provides a different service, and nil otherwise.
func CheckPin(ag *abstract.Graph, sid, nid int) error {
	if got := ag.Overlay().SIDOf(nid); got != sid {
		return fmt.Errorf("baseline: pin %d for service %d provides service %d", nid, sid, got)
	}
	return nil
}

// buildLayers returns, per chain position, the candidate instances (a single
// one where pinned).
func buildLayers(ag *abstract.Graph, chain []int, src int, pins map[int]int) ([][]int, error) {
	layers := make([][]int, len(chain))
	for i, sid := range chain {
		switch {
		case i == 0:
			layers[i] = []int{src}
		default:
			if nid, ok := pins[sid]; ok {
				if err := CheckPin(ag, sid, nid); err != nil {
					return nil, err
				}
				layers[i] = []int{nid}
			} else {
				layers[i] = ag.Slots(sid)
			}
		}
		if len(layers[i]) == 0 {
			return nil, fmt.Errorf("baseline: no candidate instance for service %d", sid)
		}
	}
	return layers, nil
}
