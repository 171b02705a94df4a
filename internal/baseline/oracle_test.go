package baseline

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sflow/internal/abstract"
	"sflow/internal/flow"
	"sflow/internal/overlay"
	"sflow/internal/qos"
	"sflow/internal/require"
	"sflow/internal/scenario"
)

// solveChainOracle is the chain solve as first written: the abstract graph
// of the chain exposed as a map-backed qos.Graph whose arcs go from each
// layer to the next, solved by the two-phase map kernel qos.ShortestWidest.
// The layered passes of SolveChain must match it byte for byte.
func solveChainOracle(ag *abstract.Graph, chain []int, src int, pins map[int]int) (*Result, error) {
	if len(chain) < 2 {
		return nil, fmt.Errorf("baseline: chain %v too short", chain)
	}
	if got := ag.Overlay().SIDOf(src); got != chain[0] {
		return nil, fmt.Errorf("baseline: source instance %d provides service %d, chain starts at %d",
			src, got, chain[0])
	}
	layers, err := buildLayers(ag, chain, src, pins)
	if err != nil {
		return nil, err
	}
	lg := newLayeredGraph(ag, layers)
	res := qos.ShortestWidest(lg, src)
	best, bestMetric := -1, qos.Unreachable
	for _, nid := range layers[len(layers)-1] {
		if m := res.Metric(nid); m.Reachable() && (best == -1 || m.Better(bestMetric)) {
			best, bestMetric = nid, m
		}
	}
	if best == -1 {
		return nil, ErrInfeasible
	}
	abstractPath := res.PathTo(best)
	if len(abstractPath) != len(chain) {
		return nil, fmt.Errorf("baseline: abstract path %v does not span %d layers", abstractPath, len(chain))
	}
	fg := flow.New()
	if err := fg.Assign(chain[0], src); err != nil {
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
	return &Result{Flow: fg, Metric: bestMetric}, nil
}

type layeredGraph struct {
	nodes []int
	out   map[int][]qos.Arc
}

func newLayeredGraph(ag *abstract.Graph, layers [][]int) *layeredGraph {
	lg := &layeredGraph{out: make(map[int][]qos.Arc)}
	seen := make(map[int]struct{})
	for i, layer := range layers {
		for _, nid := range layer {
			if _, dup := seen[nid]; !dup {
				seen[nid] = struct{}{}
				lg.nodes = append(lg.nodes, nid)
			}
			if i+1 >= len(layers) {
				continue
			}
			for _, next := range layers[i+1] {
				m := ag.EdgeMetric(nid, next)
				if !m.Reachable() || next == nid {
					continue
				}
				lg.out[nid] = append(lg.out[nid], qos.Arc{To: next, Bandwidth: m.Bandwidth, Latency: m.Latency})
			}
		}
	}
	sort.Ints(lg.nodes)
	return lg
}

func (lg *layeredGraph) Nodes() []int        { return lg.nodes }
func (lg *layeredGraph) Out(u int) []qos.Arc { return lg.out[u] }

// sameSolve reports how SolveChain and the oracle differ on one chain, or ""
// when they agree: the same error class and message, or byte-identical flow
// JSON and the same metric. LayersMetric must report the same metric too.
func sameSolve(ag *abstract.Graph, chain []int, src int, pins map[int]int) string {
	got, gerr := SolveChain(ag, chain, src, pins)
	want, werr := solveChainOracle(ag, chain, src, pins)
	if gerr != nil || werr != nil {
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() ||
			errors.Is(gerr, ErrInfeasible) != errors.Is(werr, ErrInfeasible) {
			return fmt.Sprintf("chain %v src %d pins %v: err %v, oracle err %v", chain, src, pins, gerr, werr)
		}
	} else {
		gj, _ := json.Marshal(got.Flow)
		wj, _ := json.Marshal(want.Flow)
		if !bytes.Equal(gj, wj) || got.Metric != want.Metric {
			return fmt.Sprintf("chain %v src %d pins %v:\n  got  %s %+v\n  want %s %+v",
				chain, src, pins, gj, got.Metric, wj, want.Metric)
		}
	}
	if layers, err := buildLayers(ag, chain, src, pins); err == nil {
		wantMetric := qos.Unreachable
		if werr == nil {
			wantMetric = want.Metric
		}
		if m := LayersMetric(ag, layers, new(Scratch)); m != wantMetric {
			return fmt.Sprintf("chain %v src %d pins %v: LayersMetric %+v, oracle %+v", chain, src, pins, m, wantMetric)
		}
	}
	return ""
}

// requirementChains returns every contiguous sub-chain (two services or
// more) of every source-to-sink path of req, deduplicated, in a fixed order.
func requirementChains(req *require.Requirement) [][]int {
	seen := make(map[string]bool)
	var out [][]int
	dag := req.DAG()
	for _, sink := range req.Sinks() {
		for _, p := range dag.AllPaths(req.Source(), sink, 0) {
			for i := 0; i < len(p); i++ {
				for j := i + 2; j <= len(p); j++ {
					c := p[i:j]
					if key := fmt.Sprint(c); !seen[key] {
						seen[key] = true
						out = append(out, append([]int(nil), c...))
					}
				}
			}
		}
	}
	return out
}

// TestSolveChainMatchesOracleOnPaperPools runs every sub-chain of every
// requirement path of paper-sweep-shaped scenarios (sizes 10-50, general,
// disjoint and split-merge requirements, four seeds) from every instance of
// its first service, unpinned and with the last service pinned to each of
// its instances — every (from, to) pair — and with random valid pins.
func TestSolveChainMatchesOracleOnPaperPools(t *testing.T) {
	kinds := []scenario.Kind{scenario.KindGeneral, scenario.KindDisjoint, scenario.KindSplitMerge}
	rng := rand.New(rand.NewSource(5))
	solves := 0
	for _, size := range []int{10, 20, 30, 40, 50} {
		for _, kind := range kinds {
			for seed := int64(1); seed <= 4; seed++ {
				s, err := scenario.Generate(scenario.Config{
					Seed: seed, NetworkSize: size, Services: 6,
					InstancesPerService: max(2, size/10), Kind: kind,
				})
				if err != nil {
					t.Fatal(err)
				}
				ag, err := abstract.Build(s.Overlay, s.Req)
				if err != nil {
					t.Fatal(err)
				}
				for _, chain := range requirementChains(s.Req) {
					last := chain[len(chain)-1]
					for _, src := range ag.Slots(chain[0]) {
						pinSets := []map[int]int{nil}
						for _, to := range ag.Slots(last) {
							pinSets = append(pinSets, map[int]int{last: to})
						}
						random := make(map[int]int)
						for _, sid := range chain[1:] {
							if slots := ag.Slots(sid); rng.Intn(2) == 0 {
								random[sid] = slots[rng.Intn(len(slots))]
							}
						}
						pinSets = append(pinSets, random)
						for _, pins := range pinSets {
							solves++
							if diff := sameSolve(ag, chain, src, pins); diff != "" {
								t.Fatalf("size %d %v seed %d: %s", size, kind, seed, diff)
							}
						}
					}
				}
			}
		}
	}
	if solves < 1000 {
		t.Fatalf("only %d chain solves compared", solves)
	}
}

// stubTable is a qos.Table over hand-picked abstract edge metrics: every
// routed edge is a direct overlay hop.
type stubTable map[[2]int]qos.Metric

func (st stubTable) Metric(src, dst int) qos.Metric { return st[[2]int{src, dst}] }
func (st stubTable) Path(src, dst int) []int {
	if !st.Metric(src, dst).Reachable() {
		return nil
	}
	return []int{src, dst}
}
func (st stubTable) From(int) *qos.Result { return nil }
func (st stubTable) Sources() []int       { return nil }

// stubGraph builds an abstract graph for the path requirement 1 -> ... ->
// len(layers) whose service i+1 has the instances layers[i], with the given
// abstract edges as {from, to, bandwidth, latency}.
func stubGraph(t testing.TB, layers [][]int, edges [][4]int64) *abstract.Graph {
	t.Helper()
	ov := overlay.New()
	sids := make([]int, len(layers))
	for i, layer := range layers {
		sids[i] = i + 1
		for _, nid := range layer {
			if err := ov.AddInstance(nid, i+1, -1); err != nil {
				t.Fatal(err)
			}
		}
	}
	req, err := require.NewPath(sids...)
	if err != nil {
		t.Fatal(err)
	}
	st := make(stubTable)
	for _, e := range edges {
		st[[2]int{int(e[0]), int(e[1])}] = qos.Metric{Bandwidth: e[2], Latency: e[3]}
	}
	ag, err := abstract.FromAllPairs(ov, req, st)
	if err != nil {
		t.Fatal(err)
	}
	return ag
}

// solveStub solves the stub graph's whole path from its source instance,
// checks it against the oracle and returns the chosen abstract path.
func solveStub(t *testing.T, ag *abstract.Graph) ([]int, qos.Metric) {
	t.Helper()
	chain := ag.Requirement().PathServices()
	src := ag.Slots(chain[0])[0]
	if diff := sameSolve(ag, chain, src, nil); diff != "" {
		t.Fatal(diff)
	}
	res, err := SolveChain(ag, chain, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	var path []int
	for _, sid := range chain {
		nid, _ := res.Flow.Assigned(sid)
		path = append(path, nid)
	}
	return path, res.Metric
}

func TestSolveChainTieOnTotalLatency(t *testing.T) {
	// Four middle instances reach the sink at total latency 6; their own
	// latencies are 5, 4, 3, 3. The Dijkstra settles the latency-3 ones
	// first, and of those the lower instance, so 22 is the predecessor.
	ag := stubGraph(t, [][]int{{1}, {20, 21, 22, 23}, {30}}, [][4]int64{
		{1, 20, 9, 5}, {1, 21, 9, 4}, {1, 22, 9, 3}, {1, 23, 9, 3},
		{20, 30, 9, 1}, {21, 30, 9, 2}, {22, 30, 9, 3}, {23, 30, 9, 3},
	})
	path, m := solveStub(t, ag)
	if want := []int{1, 22, 30}; fmt.Sprint(path) != fmt.Sprint(want) {
		t.Fatalf("path %v, want %v", path, want)
	}
	if m != (qos.Metric{Bandwidth: 9, Latency: 6}) {
		t.Fatalf("metric %+v", m)
	}
}

func TestSolveChainZeroLatencyEdges(t *testing.T) {
	// Every node sits at latency 0. The source queues 5 and 9. Settling 5
	// queues 2 over a zero edge, and 2 settles before 9. Instance 1 is
	// reached at latency 0 only through 9, so it settles after 9. Both 1
	// and 2 reach the sink at latency 0, so 2, settled first, is the
	// predecessor; a plain (latency, instance) order would pick 1.
	ag := stubGraph(t, [][]int{{50}, {5, 9}, {1, 2}, {60}}, [][4]int64{
		{50, 5, 7, 0}, {50, 9, 7, 0},
		{5, 2, 7, 0}, {5, 1, 7, 10}, {9, 1, 7, 0}, {9, 2, 7, 10},
		{1, 60, 7, 0}, {2, 60, 7, 0},
	})
	path, m := solveStub(t, ag)
	if want := []int{50, 5, 2, 60}; fmt.Sprint(path) != fmt.Sprint(want) {
		t.Fatalf("path %v, want %v", path, want)
	}
	if m != (qos.Metric{Bandwidth: 7}) {
		t.Fatalf("metric %+v", m)
	}
}

func TestSolveChainEqualWidthSinks(t *testing.T) {
	// Sinks 30 and 31 are equally wide and equally fast: the earlier wins.
	// 32 is as wide but slower; 33 is faster but narrower; 34 is
	// unreachable.
	ag := stubGraph(t, [][]int{{1}, {20}, {30, 31, 32, 33, 34}}, [][4]int64{
		{1, 20, 50, 1},
		{20, 30, 40, 2}, {20, 31, 40, 2}, {20, 32, 40, 3}, {20, 33, 30, 0},
	})
	path, m := solveStub(t, ag)
	if want := []int{1, 20, 30}; fmt.Sprint(path) != fmt.Sprint(want) {
		t.Fatalf("path %v, want %v", path, want)
	}
	if m != (qos.Metric{Bandwidth: 40, Latency: 3}) {
		t.Fatalf("metric %+v", m)
	}
	// The wider sink wins even though it is slower.
	ag = stubGraph(t, [][]int{{1}, {20, 21}, {30, 31}}, [][4]int64{
		{1, 20, 50, 1}, {1, 21, 50, 1},
		{20, 30, 40, 1}, {21, 31, 45, 90},
	})
	if path, _ := solveStub(t, ag); fmt.Sprint(path) != fmt.Sprint([]int{1, 21, 31}) {
		t.Fatalf("path %v, want the wider sink 31", path)
	}
}

func TestSolveChainUnreachableLayerPairs(t *testing.T) {
	// No abstract edge between the middle layers.
	ag := stubGraph(t, [][]int{{1}, {20, 21}, {30}, {40}}, [][4]int64{
		{1, 20, 5, 1}, {1, 21, 5, 1}, {30, 40, 5, 1},
	})
	chain := ag.Requirement().PathServices()
	if diff := sameSolve(ag, chain, 1, nil); diff != "" {
		t.Fatal(diff)
	}
	if _, err := SolveChain(ag, chain, 1, nil); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	// 21 is unreachable from the source but has the widest onward edge: it
	// must not carry the path.
	ag = stubGraph(t, [][]int{{1}, {20, 21}, {30}}, [][4]int64{
		{1, 20, 5, 1}, {20, 30, 5, 1}, {21, 30, 99, 0},
	})
	if path, m := solveStub(t, ag); fmt.Sprint(path) != fmt.Sprint([]int{1, 20, 30}) || m.Bandwidth != 5 {
		t.Fatalf("path %v metric %+v, want via 20 at width 5", path, m)
	}
}

func TestSolveChainRejectsRepeatedService(t *testing.T) {
	ag, _ := trapOverlay(t)
	if _, err := SolveChain(ag, []int{1, 2, 1}, 10, nil); err == nil {
		t.Fatal("chain repeating a service accepted")
	}
}

// fuzzGraph decodes a small layered abstract graph from data: two to five
// services of one to three instances each, instance numbers shuffled across
// layers, and for every edge a bandwidth in 0..3 (0: no route) and a latency
// of 0 or 1, so ties of every kind, zero-latency ones included, are common. It also returns
// random valid pins.
func fuzzGraph(t testing.TB, data []byte) (*abstract.Graph, []int, map[int]int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nLayers := 2 + next()%4
	sizes := make([]int, nLayers)
	total := 0
	for i := range sizes {
		sizes[i] = 1 + next()%3
		if i == 0 {
			sizes[i] = 1
		}
		total += sizes[i]
	}
	nids := rand.New(rand.NewSource(int64(next()))).Perm(total)
	layers := make([][]int, nLayers)
	for i, k := 0, 0; i < nLayers; i++ {
		layers[i] = append([]int(nil), nids[k:k+sizes[i]]...)
		sort.Ints(layers[i])
		k += sizes[i]
	}
	var edges [][4]int64
	for i := 0; i+1 < nLayers; i++ {
		for _, u := range layers[i] {
			for _, v := range layers[i+1] {
				b := next()
				edges = append(edges, [4]int64{int64(u), int64(v), int64(b % 4), int64(b / 4 % 2)})
			}
		}
	}
	pins := make(map[int]int)
	for i := 1; i < nLayers; i++ {
		if b := next(); b%3 == 0 {
			pins[i+1] = layers[i][b/3%len(layers[i])]
		}
	}
	ag := stubGraph(t, layers, edges)
	return ag, ag.Requirement().PathServices(), pins
}

// FuzzSolveChain checks the layered passes against the map-kernel oracle on
// random small layered metric tables.
func FuzzSolveChain(f *testing.F) {
	f.Add([]byte{3, 2, 2, 1, 7, 0, 1, 4, 5, 8, 9, 1, 2, 3})
	f.Add([]byte{1, 2, 0, 3, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{2, 2, 2, 2, 9, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0})
	f.Add([]byte{4, 2, 2, 2, 2, 11, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15, 1, 5, 9, 13, 0, 3, 6, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		ag, chain, pins := fuzzGraph(t, data)
		src := ag.Slots(chain[0])[0]
		if diff := sameSolve(ag, chain, src, nil); diff != "" {
			t.Fatal(diff)
		}
		if diff := sameSolve(ag, chain, src, pins); diff != "" {
			t.Fatal(diff)
		}
	})
}

// TestSolveChainMatchesOracleOnRandomTables is the fuzz target's property
// over a fixed stream of random inputs, so plain `go test` exercises it
// beyond the seed corpus.
func TestSolveChainMatchesOracleOnRandomTables(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	data := make([]byte, 64)
	for trial := 0; trial < 3000; trial++ {
		rng.Read(data)
		ag, chain, pins := fuzzGraph(t, data)
		src := ag.Slots(chain[0])[0]
		for _, p := range []map[int]int{nil, pins} {
			if diff := sameSolve(ag, chain, src, p); diff != "" {
				t.Fatalf("trial %d: %s", trial, diff)
			}
		}
	}
}
