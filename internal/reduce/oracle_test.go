package reduce

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sflow/internal/abstract"
	"sflow/internal/baseline"
	"sflow/internal/flow"
	"sflow/internal/graph"
	"sflow/internal/qos"
	"sflow/internal/require"
	"sflow/internal/scenario"
)

// This file keeps the reduction solve as first written, as the oracle of the
// compiled skeleton and the layered chain passes: junction search over maps
// with a map memo, a graph.New critical path per complete combination, and
// every chain solved by the map kernel qos.ShortestWidest over a map-backed
// layered graph.

type oracleSolver struct {
	ag     *abstract.Graph
	req    *require.Requirement
	chains []Chain
	pins   map[int]int
	memo   map[oracleKey]qos.Metric
}

type oracleKey struct{ idx, from, to int }

func solveOracle(ag *abstract.Graph, src int, pins map[int]int) (*Result, error) {
	req := ag.Requirement()
	if got := ag.Overlay().SIDOf(src); got != req.Source() {
		return nil, fmt.Errorf("reduce: source instance %d provides service %d, requirement starts at %d",
			src, got, req.Source())
	}
	chains := PathReduction(req)
	s := &oracleSolver{ag: ag, req: req, chains: chains, pins: pins, memo: make(map[oracleKey]qos.Metric)}
	chosen, err := s.chooseJunctions(src)
	if err != nil {
		return nil, err
	}
	fg := flow.New()
	for _, c := range chains {
		r, err := oracleChainPinned(ag, c, chosen[c.From], chosen[c.To], pins)
		if err != nil {
			return nil, fmt.Errorf("%w: fragment %d->%d: %v", ErrInfeasible, c.From, c.To, err)
		}
		if err := fg.Merge(r.Flow); err != nil {
			return nil, fmt.Errorf("reduce: merge fragment %d->%d: %w", c.From, c.To, err)
		}
	}
	m := fg.Quality(req)
	if !m.Reachable() {
		return nil, ErrInfeasible
	}
	return &Result{Flow: fg, Metric: m, Junctions: chosen}, nil
}

func (s *oracleSolver) chainMetric(idx, fromNID, toNID int) qos.Metric {
	key := oracleKey{idx: idx, from: fromNID, to: toNID}
	if m, ok := s.memo[key]; ok {
		return m
	}
	m := qos.Unreachable
	if r, err := oracleChainPinned(s.ag, s.chains[idx], fromNID, toNID, s.pins); err == nil {
		m = r.Metric
	}
	s.memo[key] = m
	return m
}

func (s *oracleSolver) chooseJunctions(src int) (map[int]int, error) {
	junctions := s.req.Junctions()
	order := make([]int, 0, len(junctions))
	isJunction := make(map[int]bool, len(junctions))
	for _, j := range junctions {
		isJunction[j] = true
	}
	for _, sid := range s.req.TopoOrder() {
		if isJunction[sid] {
			order = append(order, sid)
		}
	}
	cands := make(map[int][]int, len(order))
	combos := 1
	for _, sid := range order {
		switch {
		case sid == s.req.Source():
			cands[sid] = []int{src}
		default:
			if nid, ok := s.pins[sid]; ok {
				cands[sid] = []int{nid}
			} else {
				cands[sid] = s.ag.Slots(sid)
			}
		}
		if len(cands[sid]) == 0 {
			return nil, fmt.Errorf("%w: no instance of junction service %d", ErrInfeasible, sid)
		}
		if combos <= maxJunctionCombos {
			combos *= len(cands[sid])
		}
	}
	inChains := make(map[int][]int, len(order))
	for i, c := range s.chains {
		inChains[c.To] = append(inChains[c.To], i)
	}
	if combos <= maxJunctionCombos {
		return s.exhaustive(order, cands, inChains)
	}
	return s.greedy(order, cands, inChains)
}

func (s *oracleSolver) exhaustive(order []int, cands, inChains map[int][]int) (map[int]int, error) {
	var (
		assign     = make(map[int]int, len(order))
		best       map[int]int
		bestMetric = qos.Unreachable
	)
	var walk func(i int, width int64)
	walk = func(i int, width int64) {
		if i == len(order) {
			m := s.comboMetric(assign, width)
			if m.Reachable() && (best == nil || m.Better(bestMetric)) {
				bestMetric = m
				best = make(map[int]int, len(assign))
				for k, v := range assign {
					best[k] = v
				}
			}
			return
		}
		sid := order[i]
		for _, nid := range cands[sid] {
			w := width
			feasible := true
			for _, ci := range inChains[sid] {
				tail, ok := assign[s.chains[ci].From]
				if !ok {
					continue
				}
				m := s.chainMetric(ci, tail, nid)
				if !m.Reachable() {
					feasible = false
					break
				}
				if m.Bandwidth < w {
					w = m.Bandwidth
				}
			}
			if !feasible {
				continue
			}
			if best != nil && w < bestMetric.Bandwidth {
				continue
			}
			assign[sid] = nid
			walk(i+1, w)
			delete(assign, sid)
		}
	}
	walk(0, qos.InfBandwidth)
	if best == nil {
		return nil, fmt.Errorf("%w: no junction combination connects the requirement", ErrInfeasible)
	}
	return best, nil
}

func (s *oracleSolver) comboMetric(assign map[int]int, width int64) qos.Metric {
	skel := graph.New()
	lat := make(map[[2]int]int64)
	for i, c := range s.chains {
		m := s.chainMetric(i, assign[c.From], assign[c.To])
		if !m.Reachable() {
			return qos.Unreachable
		}
		skel.AddEdge(c.From, c.To)
		key := [2]int{c.From, c.To}
		if m.Latency > lat[key] {
			lat[key] = m.Latency
		}
	}
	dist, err := skel.LongestPathFrom(s.req.Source(), func(u, v int) int64 {
		return lat[[2]int{u, v}]
	})
	if err != nil {
		return qos.Unreachable
	}
	var worst int64
	for _, sink := range s.req.Sinks() {
		if d, ok := dist[sink]; ok && d > worst {
			worst = d
		}
	}
	return qos.Metric{Bandwidth: width, Latency: worst}
}

func (s *oracleSolver) greedy(order []int, cands, inChains map[int][]int) (map[int]int, error) {
	chosen := make(map[int]int, len(order))
	for i, sid := range order {
		if i == 0 {
			chosen[sid] = cands[sid][0]
			continue
		}
		bestNID, bestScore := -1, qos.Unreachable
		for _, nid := range cands[sid] {
			width := qos.InfBandwidth
			var latency int64
			ok := true
			for _, ci := range inChains[sid] {
				tail, have := chosen[s.chains[ci].From]
				if !have {
					continue
				}
				m := s.chainMetric(ci, tail, nid)
				if !m.Reachable() {
					ok = false
					break
				}
				if m.Bandwidth < width {
					width = m.Bandwidth
				}
				if m.Latency > latency {
					latency = m.Latency
				}
			}
			if !ok {
				continue
			}
			score := qos.Metric{Bandwidth: width, Latency: latency}
			if bestNID == -1 || score.Better(bestScore) {
				bestNID, bestScore = nid, score
			}
		}
		if bestNID == -1 {
			return nil, fmt.Errorf("%w: no instance of junction service %d is reachable", ErrInfeasible, sid)
		}
		chosen[sid] = bestNID
	}
	return chosen, nil
}

func oracleChainPinned(ag *abstract.Graph, c Chain, fromNID, toNID int, pins map[int]int) (*baseline.Result, error) {
	p := map[int]int{c.To: toNID}
	for _, sid := range c.Via {
		if nid, ok := pins[sid]; ok {
			p[sid] = nid
		}
	}
	return oracleChain(ag, c.Services(), fromNID, p)
}

// oracleChain is the map-kernel chain solve: a layered map graph solved by
// qos.ShortestWidest, with the baseline's validation and errors.
func oracleChain(ag *abstract.Graph, chain []int, src int, pins map[int]int) (*baseline.Result, error) {
	if got := ag.Overlay().SIDOf(src); got != chain[0] {
		return nil, fmt.Errorf("baseline: source instance %d provides service %d, chain starts at %d",
			src, got, chain[0])
	}
	layers := make([][]int, len(chain))
	layers[0] = []int{src}
	for i, sid := range chain[1:] {
		if nid, ok := pins[sid]; ok {
			if err := baseline.CheckPin(ag, sid, nid); err != nil {
				return nil, err
			}
			layers[i+1] = []int{nid}
		} else {
			layers[i+1] = ag.Slots(sid)
		}
		if len(layers[i+1]) == 0 {
			return nil, fmt.Errorf("baseline: no candidate instance for service %d", sid)
		}
	}
	lg := &oracleLayered{out: make(map[int][]qos.Arc)}
	for i, layer := range layers {
		for _, nid := range layer {
			lg.nodes = append(lg.nodes, nid)
			if i+1 >= len(layers) {
				continue
			}
			for _, next := range layers[i+1] {
				if m := ag.EdgeMetric(nid, next); m.Reachable() && next != nid {
					lg.out[nid] = append(lg.out[nid], qos.Arc{To: next, Bandwidth: m.Bandwidth, Latency: m.Latency})
				}
			}
		}
	}
	sort.Ints(lg.nodes)
	res := qos.ShortestWidest(lg, src)
	best, bestMetric := -1, qos.Unreachable
	for _, nid := range layers[len(layers)-1] {
		if m := res.Metric(nid); m.Reachable() && (best == -1 || m.Better(bestMetric)) {
			best, bestMetric = nid, m
		}
	}
	if best == -1 {
		return nil, baseline.ErrInfeasible
	}
	path := res.PathTo(best)
	fg := flow.New()
	if err := fg.Assign(chain[0], src); err != nil {
		return nil, err
	}
	for i := 0; i+1 < len(path); i++ {
		from, to := path[i], path[i+1]
		if err := fg.AddEdge(flow.Edge{
			FromSID: chain[i], ToSID: chain[i+1],
			FromNID: from, ToNID: to,
			Path:   ag.EdgePath(from, to),
			Metric: ag.EdgeMetric(from, to),
		}); err != nil {
			return nil, err
		}
	}
	return &baseline.Result{Flow: fg, Metric: bestMetric}, nil
}

type oracleLayered struct {
	nodes []int
	out   map[int][]qos.Arc
}

func (lg *oracleLayered) Nodes() []int        { return lg.nodes }
func (lg *oracleLayered) Out(u int) []qos.Arc { return lg.out[u] }

// diffSolve reports how Solve and the oracle differ, or "" when they agree:
// the same error class and message, or byte-identical flow JSON and the same
// metric and junctions.
func diffSolve(ag *abstract.Graph, src int, pins map[int]int) string {
	got, gerr := Solve(ag, src, pins)
	want, werr := solveOracle(ag, src, pins)
	if gerr != nil || werr != nil {
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() ||
			errors.Is(gerr, ErrInfeasible) != errors.Is(werr, ErrInfeasible) {
			return fmt.Sprintf("pins %v: err %v, oracle err %v", pins, gerr, werr)
		}
		return ""
	}
	gj, _ := json.Marshal(got.Flow)
	wj, _ := json.Marshal(want.Flow)
	if !bytes.Equal(gj, wj) || got.Metric != want.Metric || !reflect.DeepEqual(got.Junctions, want.Junctions) {
		return fmt.Sprintf("pins %v:\n  got  %s %+v %v\n  want %s %+v %v",
			pins, gj, got.Metric, got.Junctions, wj, want.Metric, want.Junctions)
	}
	return ""
}

// paperPool returns paper-sweep-shaped scenarios: sizes 10-50, six services,
// max(2, size/10) instances, general, disjoint and split-merge requirements,
// four seeds.
func paperPool(t *testing.T) []*scenario.Scenario {
	t.Helper()
	var out []*scenario.Scenario
	for _, size := range []int{10, 20, 30, 40, 50} {
		for _, kind := range []scenario.Kind{scenario.KindGeneral, scenario.KindDisjoint, scenario.KindSplitMerge} {
			for seed := int64(1); seed <= 4; seed++ {
				s, err := scenario.Generate(scenario.Config{
					Seed: seed, NetworkSize: size, Services: 6,
					InstancesPerService: max(2, size/10), Kind: kind,
				})
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, s)
			}
		}
	}
	return out
}

// randomPins pins a random subset of the non-source services to random
// instances of theirs.
func randomPins(rng *rand.Rand, ag *abstract.Graph) map[int]int {
	req := ag.Requirement()
	pins := make(map[int]int)
	for _, sid := range req.Services() {
		if sid != req.Source() && rng.Intn(3) == 0 {
			slots := ag.Slots(sid)
			pins[sid] = slots[rng.Intn(len(slots))]
		}
	}
	return pins
}

func TestSolveMatchesOracleOnPaperPools(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, s := range paperPool(t) {
		ag, err := abstract.Build(s.Overlay, s.Req)
		if err != nil {
			t.Fatal(err)
		}
		for _, pins := range []map[int]int{nil, randomPins(rng, ag), randomPins(rng, ag)} {
			if diff := diffSolve(ag, s.SourceNID, pins); diff != "" {
				t.Fatalf("size %d %v seed %d: %s", s.Config.NetworkSize, s.Config.Kind, s.Config.Seed, diff)
			}
		}
	}
}

// TestChainScoresMatchOracle scores every chain of every paper-pool
// requirement for every (from, to) junction instance pair, metric-only and
// in the assembly's full form, against the map-kernel chain solve.
func TestChainScoresMatchOracle(t *testing.T) {
	pairs := 0
	for _, sc := range paperPool(t) {
		ag, err := abstract.Build(sc.Overlay, sc.Req)
		if err != nil {
			t.Fatal(err)
		}
		s, err := compile(ag, sc.SourceNID, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range s.chains {
			l := &s.links[i]
			for f, from := range s.cands[l.from] {
				for k, to := range s.cands[l.to] {
					pairs++
					want, werr := oracleChainPinned(ag, c, from, to, nil)
					wantMetric := qos.Unreachable
					if werr == nil {
						wantMetric = want.Metric
					}
					if m := s.score(i, f, k); m != wantMetric {
						t.Fatalf("chain %+v %d->%d: score %+v, oracle %+v", c, from, to, m, wantMetric)
					}
					l.pin(from, to)
					got, gerr := baseline.SolveLayers(ag, l.services, l.layers, &s.sc)
					if (gerr == nil) != (werr == nil) {
						t.Fatalf("chain %+v %d->%d: err %v, oracle err %v", c, from, to, gerr, werr)
					}
					if gerr != nil {
						continue
					}
					gj, _ := json.Marshal(got.Flow)
					wj, _ := json.Marshal(want.Flow)
					if !bytes.Equal(gj, wj) || got.Metric != want.Metric {
						t.Fatalf("chain %+v %d->%d:\n  got  %s\n  want %s", c, from, to, gj, wj)
					}
				}
			}
		}
	}
	if pairs < 1000 {
		t.Fatalf("only %d chain pairs compared", pairs)
	}
}

// TestGreedyFallbackMatchesOracle runs the greedy scorer on skeletons too
// large for the exhaustive search: the scenario of
// TestSolveGreedyFallbackOnHugeSkeletons and two more seeds of its shape.
func TestGreedyFallbackMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, seed := range []int64{77, 78, 79} {
		s, err := scenario.Generate(scenario.Config{
			Seed: seed, NetworkSize: 30, Services: 16,
			InstancesPerService: 5, Kind: scenario.KindGeneral, EdgeProb: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		ag, err := abstract.Build(s.Overlay, s.Req)
		if err != nil {
			t.Fatal(err)
		}
		sv, err := compile(ag, s.SourceNID, nil)
		if err != nil {
			t.Fatal(err)
		}
		combos := 1
		for _, c := range sv.cands {
			combos *= len(c)
			if combos > maxJunctionCombos {
				break
			}
		}
		if combos <= maxJunctionCombos {
			t.Fatalf("seed %d: %d combos do not reach the greedy fallback", seed, combos)
		}
		for _, pins := range []map[int]int{nil, randomPins(rng, ag)} {
			if diff := diffSolve(ag, s.SourceNID, pins); diff != "" {
				t.Fatalf("seed %d: %s", seed, diff)
			}
		}
	}
}

// readLog is a qos.Table that records the row (source) of every read of the
// table it wraps.
type readLog struct {
	qos.Table
	rows []int
}

func (r *readLog) Metric(src, dst int) qos.Metric {
	r.rows = append(r.rows, src)
	return r.Table.Metric(src, dst)
}

func (r *readLog) Path(src, dst int) []int {
	r.rows = append(r.rows, src)
	return r.Table.Path(src, dst)
}

// firstAndLast returns the rows in the order of their first read and in the
// order of their last read.
func (r *readLog) firstAndLast() (first, last []int) {
	seen := make(map[int]bool)
	for _, row := range r.rows {
		if !seen[row] {
			seen[row] = true
			first = append(first, row)
		}
	}
	seen = make(map[int]bool)
	for i := len(r.rows) - 1; i >= 0; i-- {
		if row := r.rows[i]; !seen[row] {
			seen[row] = true
			last = append(last, row)
		}
	}
	return first, last
}

// TestSolveReadsRowsInTheOracleOrder pins the read invariant lazy tables
// rely on. Metric-only scoring drops the route expansion of every scored
// chain, so Solve reads the table less often than the oracle, but it reads
// the same rows, first reads them in the same order (a demand-driven table
// computes the same rows in the same order) and last reads them in the same
// order (a bounded table's recency after the solve is the same).
func TestSolveReadsRowsInTheOracleOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, s := range paperPool(t) {
		ap := qos.ComputeAllPairs(s.Overlay)
		plain, err := abstract.FromAllPairs(s.Overlay, s.Req, ap)
		if err != nil {
			t.Fatal(err)
		}
		for _, pins := range []map[int]int{nil, randomPins(rng, plain)} {
			got, want := &readLog{Table: ap}, &readLog{Table: ap}
			agGot, err := abstract.FromAllPairs(s.Overlay, s.Req, got)
			if err != nil {
				t.Fatal(err)
			}
			agWant, err := abstract.FromAllPairs(s.Overlay, s.Req, want)
			if err != nil {
				t.Fatal(err)
			}
			_, gerr := Solve(agGot, s.SourceNID, pins)
			_, werr := solveOracle(agWant, s.SourceNID, pins)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("err %v, oracle err %v", gerr, werr)
			}
			gotFirst, gotLast := got.firstAndLast()
			wantFirst, wantLast := want.firstAndLast()
			if !reflect.DeepEqual(gotFirst, wantFirst) || !reflect.DeepEqual(gotLast, wantLast) {
				t.Fatalf("size %d %v seed %d pins %v: rows first read %v, last read %v; oracle %v, %v",
					s.Config.NetworkSize, s.Config.Kind, s.Config.Seed, pins, gotFirst, gotLast, wantFirst, wantLast)
			}
		}
	}
}
