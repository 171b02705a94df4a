// Package reduce implements the reduction heuristics of Sec 3.4 that extend
// the polynomial baseline algorithm from single service paths to general DAG
// requirements:
//
//   - Path reduction decomposes the requirement into maximal single-path
//     fragments (chains) between junction services — the services where
//     streams split or merge, plus the source and the sinks.
//   - Split-and-merge reduction isolates the parallel branches between a
//     splitting and a merging junction; once each branch is solved (by the
//     baseline algorithm with the junction instances pinned), the whole block
//     behaves like one edge between the junctions.
//
// Solve combines the two: the requirement collapses to its junction
// skeleton, junction instances are chosen by bounded exhaustive search over
// the skeleton (greedy topological scoring beyond the bound), and with all
// junctions fixed every fragment is solved optimally by the baseline and the
// pieces merged into the final service flow graph. As the paper notes, the
// reductions are best-effort heuristics — the underlying problem is
// NP-complete (Theorem 1) — but each fragment is individually optimal.
package reduce

import (
	"errors"
	"fmt"
	"sort"

	"sflow/internal/abstract"
	"sflow/internal/baseline"
	"sflow/internal/flow"
	"sflow/internal/qos"
	"sflow/internal/require"
)

// ErrInfeasible is returned when no instance assignment connects the
// requirement under the heuristic's choices.
var ErrInfeasible = errors.New("reduce: no feasible service flow graph")

// Chain is one single-path fragment of a requirement produced by path
// reduction: From and To are junction services, Via the intermediate
// (non-junction) services in order.
type Chain struct {
	From, To int
	Via      []int
}

// Services returns the full service chain including both junctions.
func (c Chain) Services() []int {
	out := make([]int, 0, len(c.Via)+2)
	out = append(out, c.From)
	out = append(out, c.Via...)
	out = append(out, c.To)
	return out
}

// PathReduction decomposes a validated requirement into its chain fragments
// between junctions. Every requirement edge belongs to exactly one chain;
// every non-junction service appears in exactly one chain's Via list. The
// result is sorted by (From, To, first Via).
func PathReduction(req *require.Requirement) []Chain {
	junction := make(map[int]bool)
	for _, j := range req.Junctions() {
		junction[j] = true
	}
	var chains []Chain
	for _, j := range req.Junctions() {
		for _, next := range req.Downstream(j) {
			c := Chain{From: j}
			cur := next
			for !junction[cur] {
				c.Via = append(c.Via, cur)
				cur = req.Downstream(cur)[0] // non-junction: out-degree exactly 1
			}
			c.To = cur
			chains = append(chains, c)
		}
	}
	sort.Slice(chains, func(i, k int) bool {
		a, b := chains[i], chains[k]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return firstVia(a) < firstVia(b)
	})
	return chains
}

// Block is a split-and-merge block: >= 2 parallel chains from the same
// splitting junction to the same merging junction.
type Block struct {
	Split, Merge int
	Branches     []Chain
}

// SplitMergeBlocks identifies the split-and-merge blocks of a requirement:
// junction pairs connected by two or more parallel chain fragments. These
// are the regions the split-and-merge reduction isolates and replaces by a
// single edge.
func SplitMergeBlocks(req *require.Requirement) []Block {
	group := make(map[[2]int][]Chain)
	for _, c := range PathReduction(req) {
		key := [2]int{c.From, c.To}
		group[key] = append(group[key], c)
	}
	keys := make([][2]int, 0, len(group))
	for k, cs := range group {
		if len(cs) >= 2 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]Block, 0, len(keys))
	for _, k := range keys {
		out = append(out, Block{Split: k[0], Merge: k[1], Branches: group[k]})
	}
	return out
}

// Result is the outcome of the reduction-based heuristic.
type Result struct {
	// Flow is the computed service flow graph.
	Flow *flow.Graph
	// Metric is its end-to-end quality.
	Metric qos.Metric
	// Junctions records the instances chosen for the junction services.
	Junctions map[int]int
}

// maxJunctionCombos bounds the exhaustive search over junction instance
// combinations; above this the solver falls back to the greedy scorer.
// Chain interiors are never enumerated — each fragment is solved by the
// polynomial baseline — so the bound only concerns the junction skeleton.
const maxJunctionCombos = 50_000

// Solve computes a service flow graph for an arbitrary requirement using the
// reduction heuristics. src is the designated instance of the source
// service; pins (optional) force instances for specific services and take
// precedence over the heuristic's own junction choices. A pin naming an
// instance of another service is an error, reported before any search.
//
// Junction services are assigned first: when the combination space is small
// (the common case — requirements have few junctions), every combination is
// scored with memoized optimal chain solves under branch-and-bound, which
// makes the result bandwidth-optimal given that each fragment is realised by
// its own shortest-widest solution. Large skeletons fall back to a greedy
// topological scorer. Either way the interiors of the chain fragments are
// then solved exactly by the baseline algorithm with the junctions pinned.
func Solve(ag *abstract.Graph, src int, pins map[int]int) (*Result, error) {
	req := ag.Requirement()
	if got := ag.Overlay().SIDOf(src); got != req.Source() {
		return nil, fmt.Errorf("reduce: source instance %d provides service %d, requirement starts at %d",
			src, got, req.Source())
	}
	// The source service's pin, if any, is ignored: src plays its role.
	for _, sid := range req.Services() {
		if nid, ok := pins[sid]; ok && sid != req.Source() {
			if err := baseline.CheckPin(ag, sid, nid); err != nil {
				return nil, err
			}
		}
	}
	s, err := compile(ag, src, pins)
	if err != nil {
		return nil, err
	}
	chosen, err := s.chooseJunctions()
	if err != nil {
		return nil, err
	}

	// Assembly: with all junction instances fixed, solve every chain
	// fragment optimally and merge. Each fragment's route realises its
	// metric exactly, so the flow graph's quality is the skeleton quality
	// of the fragment metrics.
	fg := flow.New()
	for i, c := range s.chains {
		l := &s.links[i]
		l.pin(s.cands[l.from][chosen[l.from]], s.cands[l.to][chosen[l.to]])
		r, err := baseline.SolveLayers(ag, l.services, l.layers, &s.sc)
		if err != nil {
			return nil, fmt.Errorf("%w: fragment %d->%d: %v", ErrInfeasible, c.From, c.To, err)
		}
		if err := fg.Merge(r.Flow); err != nil {
			return nil, fmt.Errorf("reduce: merge fragment %d->%d: %w", c.From, c.To, err)
		}
		s.metrics[i] = r.Metric
	}
	junctions := make(map[int]int, len(s.sids))
	for j, sid := range s.sids {
		junctions[sid] = s.cands[j][chosen[j]]
	}
	return &Result{Flow: fg, Metric: s.quality(), Junctions: junctions}, nil
}

// solver is the junction skeleton of one reduction solve, compiled once:
// junctions are indexed densely in topological order (index 0 is the
// source), candidates and assignments are slot indexes into per-junction
// instance lists, and every chain fragment carries its candidate layers.
type solver struct {
	ag     *abstract.Graph
	chains []Chain
	sids   []int   // junction services in topological order
	cands  [][]int // candidate instances per junction
	in     [][]int // chains entering each junction
	out    [][]int // chains leaving each junction
	sinks  []int   // junction indexes of the requirement's sinks
	links  []link  // compiled chains, parallel to chains
	// metrics holds one metric per chain for quality; dist is its
	// critical-path scratch.
	metrics []qos.Metric
	dist    []int64
	sc      baseline.Scratch
}

// link is one compiled chain fragment: its junction endpoints, its services
// and its candidate layers. The end layers hold one instance each, set by
// pin before every read.
type link struct {
	from, to int // junction indexes
	services []int
	layers   [][]int
	// memo caches the chain's optimal metric per (from slot, to slot),
	// row-major, during the exhaustive search; unscored until first read.
	memo []qos.Metric
}

// unscored marks a memo entry not computed yet (no real metric has a
// negative width).
var unscored = qos.Metric{Bandwidth: -1}

func (l *link) pin(fromNID, toNID int) {
	l.layers[0][0] = fromNID
	l.layers[len(l.layers)-1][0] = toNID
}

// compile builds the junction skeleton of ag's requirement. Pins are
// already validated.
func compile(ag *abstract.Graph, src int, pins map[int]int) (*solver, error) {
	req := ag.Requirement()
	candidates := func(sid int) []int {
		if nid, ok := pins[sid]; ok {
			return []int{nid}
		}
		return ag.Slots(sid)
	}
	s := &solver{ag: ag, chains: PathReduction(req)}
	index := make(map[int]int)
	for _, sid := range req.Junctions() {
		index[sid] = -1
	}
	for _, sid := range req.TopoOrder() {
		if _, ok := index[sid]; ok {
			index[sid] = len(s.sids)
			s.sids = append(s.sids, sid)
		}
	}
	s.cands = make([][]int, len(s.sids))
	for j, sid := range s.sids {
		if sid == req.Source() {
			s.cands[j] = []int{src}
		} else {
			s.cands[j] = candidates(sid)
		}
		if len(s.cands[j]) == 0 {
			return nil, fmt.Errorf("%w: no instance of junction service %d", ErrInfeasible, sid)
		}
	}
	for _, sid := range req.Sinks() {
		s.sinks = append(s.sinks, index[sid])
	}
	s.in = make([][]int, len(s.sids))
	s.out = make([][]int, len(s.sids))
	s.links = make([]link, len(s.chains))
	for i, c := range s.chains {
		l := &s.links[i]
		l.from, l.to = index[c.From], index[c.To]
		l.services = c.Services()
		l.layers = make([][]int, 0, len(l.services))
		l.layers = append(l.layers, []int{0})
		for _, sid := range c.Via {
			l.layers = append(l.layers, candidates(sid))
		}
		l.layers = append(l.layers, []int{0})
		s.in[l.to] = append(s.in[l.to], i)
		s.out[l.from] = append(s.out[l.from], i)
	}
	s.metrics = make([]qos.Metric, len(s.chains))
	s.dist = make([]int64, len(s.sids))
	return s, nil
}

// score returns the optimal metric of chain i with its junction endpoints
// fixed to the given slots (qos.Unreachable when infeasible).
func (s *solver) score(i, fromSlot, toSlot int) qos.Metric {
	l := &s.links[i]
	l.pin(s.cands[l.from][fromSlot], s.cands[l.to][toSlot])
	return baseline.LayersMetric(s.ag, l.layers, &s.sc)
}

// chainMetric is score memoized for the exhaustive search.
func (s *solver) chainMetric(i, fromSlot, toSlot int) qos.Metric {
	l := &s.links[i]
	k := fromSlot*len(s.cands[l.to]) + toSlot
	if l.memo[k] == unscored {
		l.memo[k] = s.score(i, fromSlot, toSlot)
	}
	return l.memo[k]
}

// chooseJunctions assigns a candidate slot to every junction.
func (s *solver) chooseJunctions() ([]int, error) {
	combos := 1
	for _, c := range s.cands {
		if combos <= maxJunctionCombos {
			combos *= len(c)
		}
	}
	if combos <= maxJunctionCombos {
		return s.exhaustiveJunctions()
	}
	return s.greedyJunctions()
}

// exhaustiveJunctions enumerates every junction combination in topological
// order with branch-and-bound on the running bottleneck width. For each
// complete combination the quality is the bottleneck over all chain
// fragments plus the critical-path latency over the junction skeleton. A
// chain's tail junction precedes its head in topological order, so both
// ends are fixed when the head is assigned.
func (s *solver) exhaustiveJunctions() ([]int, error) {
	size := 0
	for _, l := range s.links {
		size += len(s.cands[l.from]) * len(s.cands[l.to])
	}
	memo := make([]qos.Metric, size)
	for i := range memo {
		memo[i] = unscored
	}
	for i := range s.links {
		l := &s.links[i]
		n := len(s.cands[l.from]) * len(s.cands[l.to])
		l.memo, memo = memo[:n:n], memo[n:]
	}

	var (
		assign     = make([]int, len(s.sids))
		best       []int
		bestMetric = qos.Unreachable
	)
	var walk func(j int, width int64)
	walk = func(j int, width int64) {
		if j == len(s.sids) {
			for i := range s.links {
				l := &s.links[i]
				s.metrics[i] = s.chainMetric(i, assign[l.from], assign[l.to])
			}
			if m := s.quality(); best == nil || m.Better(bestMetric) {
				bestMetric = m
				best = append(best[:0], assign...)
			}
			return
		}
		for k := range s.cands[j] {
			w := width
			feasible := true
			for _, i := range s.in[j] {
				m := s.chainMetric(i, assign[s.links[i].from], k)
				if !m.Reachable() {
					feasible = false
					break
				}
				w = min(w, m.Bandwidth)
			}
			if !feasible {
				continue
			}
			if best != nil && w < bestMetric.Bandwidth {
				continue
			}
			assign[j] = k
			walk(j+1, w)
		}
	}
	walk(0, qos.InfBandwidth)
	if best == nil {
		return nil, fmt.Errorf("%w: no junction combination connects the requirement", ErrInfeasible)
	}
	return best, nil
}

// quality combines the reachable chain metrics in s.metrics into the
// requirement's end-to-end metric: the bottleneck over all chains and the
// critical path over the junction skeleton, relaxed in topological order,
// each chain weighing its own latency.
func (s *solver) quality() qos.Metric {
	width := qos.InfBandwidth
	for _, m := range s.metrics {
		width = min(width, m.Bandwidth)
	}
	clear(s.dist) // every junction is reached from the source, at index 0
	for j, d := range s.dist {
		for _, i := range s.out[j] {
			to := s.links[i].to
			s.dist[to] = max(s.dist[to], d+s.metrics[i].Latency)
		}
	}
	var worst int64
	for _, j := range s.sinks {
		worst = max(worst, s.dist[j])
	}
	return qos.Metric{Bandwidth: width, Latency: worst}
}

// greedyJunctions is the fallback for huge junction skeletons: junctions are
// assigned in topological order, each scored by exactly solving its incoming
// chain fragments. Every (chain, tail, head) is scored at most once, so
// nothing is memoized.
func (s *solver) greedyJunctions() ([]int, error) {
	chosen := make([]int, len(s.sids))
	for j := 1; j < len(s.sids); j++ {
		bestSlot, bestScore := -1, qos.Unreachable
		for k := range s.cands[j] {
			width := qos.InfBandwidth
			var latency int64
			ok := true
			for _, i := range s.in[j] {
				m := s.score(i, chosen[s.links[i].from], k)
				if !m.Reachable() {
					ok = false
					break
				}
				width = min(width, m.Bandwidth)
				latency = max(latency, m.Latency)
			}
			if !ok {
				continue
			}
			score := qos.Metric{Bandwidth: width, Latency: latency}
			if bestSlot == -1 || score.Better(bestScore) {
				bestSlot, bestScore = k, score
			}
		}
		if bestSlot == -1 {
			return nil, fmt.Errorf("%w: no instance of junction service %d is reachable", ErrInfeasible, s.sids[j])
		}
		chosen[j] = bestSlot
	}
	return chosen, nil
}

func firstVia(c Chain) int {
	if len(c.Via) == 0 {
		return -1
	}
	return c.Via[0]
}
