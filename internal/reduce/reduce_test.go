package reduce

import (
	"errors"
	"reflect"
	"testing"

	"sflow/internal/abstract"
	"sflow/internal/baseline"
	"sflow/internal/exact"
	"sflow/internal/overlay"
	"sflow/internal/require"
	"sflow/internal/scenario"
)

// paperDAG is the Fig 5-style requirement used across the tests:
// 1 -> {2,3}; 2 -> 4; 3 -> {4,5}; 4 -> 6; 5 -> 6.
func paperDAG(t *testing.T) *require.Requirement {
	t.Helper()
	r, err := require.FromEdges([][2]int{{1, 2}, {1, 3}, {2, 4}, {3, 4}, {3, 5}, {4, 6}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestPathReduction(t *testing.T) {
	req := paperDAG(t)
	chains := PathReduction(req)
	want := []Chain{
		{From: 1, To: 3},
		{From: 1, To: 4, Via: []int{2}},
		{From: 3, To: 4},
		{From: 3, To: 6, Via: []int{5}},
		{From: 4, To: 6},
	}
	if !reflect.DeepEqual(chains, want) {
		t.Fatalf("chains = %+v, want %+v", chains, want)
	}
	// Coverage invariant: every requirement edge in exactly one chain.
	covered := make(map[[2]int]int)
	for _, c := range chains {
		svcs := c.Services()
		for i := 0; i+1 < len(svcs); i++ {
			covered[[2]int{svcs[i], svcs[i+1]}]++
		}
	}
	for _, e := range req.Edges() {
		if covered[e] != 1 {
			t.Fatalf("edge %v covered %d times", e, covered[e])
		}
	}
	if total := len(covered); total != req.NumDependencies() {
		t.Fatalf("covered %d edges, requirement has %d", total, req.NumDependencies())
	}
}

func TestPathReductionOnPath(t *testing.T) {
	req, err := require.NewPath(1, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	chains := PathReduction(req)
	want := []Chain{{From: 1, To: 4, Via: []int{2, 3}}}
	if !reflect.DeepEqual(chains, want) {
		t.Fatalf("chains = %+v, want %+v", chains, want)
	}
}

func TestSplitMergeBlocks(t *testing.T) {
	// Diamond: 1 -> 2 -> 4, 1 -> 3 -> 4.
	req, err := require.FromEdges([][2]int{{1, 2}, {2, 4}, {1, 3}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	blocks := SplitMergeBlocks(req)
	if len(blocks) != 1 {
		t.Fatalf("blocks = %+v", blocks)
	}
	b := blocks[0]
	if b.Split != 1 || b.Merge != 4 || len(b.Branches) != 2 {
		t.Fatalf("block = %+v", b)
	}
	// A pure path has no blocks.
	p, _ := require.NewPath(1, 2, 3)
	if got := SplitMergeBlocks(p); len(got) != 0 {
		t.Fatalf("path blocks = %+v", got)
	}
	// paperDAG has no 2-parallel-chain pair (1->4 via 2 and 3->4 direct
	// have different tails), so no blocks either.
	if got := SplitMergeBlocks(paperDAG(t)); len(got) != 0 {
		t.Fatalf("paperDAG blocks = %+v", got)
	}
}

// diamondOverlay builds an overlay for requirement 1 -> {2,3} -> 4 where the
// merge instance choice matters: instance 40 is good for branch 2 but bad
// for branch 3, instance 41 is balanced and globally best.
func diamondOverlay(t *testing.T) (*abstract.Graph, *require.Requirement) {
	t.Helper()
	o := overlay.New()
	for _, in := range [][2]int{{10, 1}, {20, 2}, {30, 3}, {40, 4}, {41, 4}} {
		if err := o.AddInstance(in[0], in[1], -1); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][4]int64{
		{10, 20, 100, 1}, {10, 30, 100, 1},
		{20, 40, 100, 1}, {30, 40, 10, 1}, // 40: great for 2, terrible for 3
		{20, 41, 80, 1}, {30, 41, 80, 1}, // 41: balanced
	} {
		if err := o.AddLink(int(l[0]), int(l[1]), l[2], l[3]); err != nil {
			t.Fatal(err)
		}
	}
	req, err := require.FromEdges([][2]int{{1, 2}, {1, 3}, {2, 4}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	ag, err := abstract.Build(o, req)
	if err != nil {
		t.Fatal(err)
	}
	return ag, req
}

func TestSolveConsidersAllBranchesAtMerge(t *testing.T) {
	ag, req := diamondOverlay(t)
	res, err := Solve(ag, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nid := res.Junctions[4]; nid != 41 {
		t.Fatalf("merge placed on %d, want the balanced instance 41", nid)
	}
	if res.Metric.Bandwidth != 80 {
		t.Fatalf("metric = %+v, want width 80", res.Metric)
	}
	if err := res.Flow.Validate(req, ag.Overlay()); err != nil {
		t.Fatalf("flow invalid: %v", err)
	}
	// On this instance the heuristic finds the global optimum.
	opt, err := exact.Solve(ag, 10, exact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metric != opt.Metric {
		t.Fatalf("reduce %+v != optimal %+v", res.Metric, opt.Metric)
	}
}

func TestSolveRespectsPins(t *testing.T) {
	ag, req := diamondOverlay(t)
	res, err := Solve(ag, 10, map[int]int{4: 40})
	if err != nil {
		t.Fatal(err)
	}
	if nid := res.Junctions[4]; nid != 40 {
		t.Fatalf("pin ignored: merge on %d", nid)
	}
	if res.Metric.Bandwidth != 10 {
		t.Fatalf("pinned metric = %+v", res.Metric)
	}
	if err := res.Flow.Validate(req, ag.Overlay()); err != nil {
		t.Fatal(err)
	}
}

func TestSolveRejectsWrongSource(t *testing.T) {
	ag, _ := diamondOverlay(t)
	if _, err := Solve(ag, 20, nil); err == nil {
		t.Fatal("wrong-service source accepted")
	}
}

func TestSolveRejectsWrongServicePin(t *testing.T) {
	ag, _ := diamondOverlay(t)
	// Instance 20 provides service 2, not 4: a caller error, reported as
	// such rather than as an infeasible requirement.
	_, err := Solve(ag, 10, map[int]int{4: 20})
	if err == nil || errors.Is(err, ErrInfeasible) || errors.Is(err, baseline.ErrInfeasible) {
		t.Fatalf("err = %v, want a non-infeasible pin error", err)
	}
	if want := "baseline: pin 20 for service 4 provides service 2"; err.Error() != want {
		t.Fatalf("err = %q, want %q", err, want)
	}
	// A pin on a chain interior is checked the same way.
	if _, err := Solve(ag, 10, map[int]int{2: 30}); err == nil || errors.Is(err, ErrInfeasible) {
		t.Fatalf("interior pin: err = %v, want a non-infeasible pin error", err)
	}
	// The source service's pin is ignored, as before: src plays its role.
	if _, err := Solve(ag, 10, map[int]int{1: 20}); err != nil {
		t.Fatalf("source pin: %v", err)
	}
}

func TestSolveOnPathEqualsBaseline(t *testing.T) {
	s, err := scenario.Generate(scenario.Config{
		Seed: 11, NetworkSize: 15, Services: 5,
		InstancesPerService: 3, Kind: scenario.KindPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	ag, err := abstract.Build(s.Overlay, s.Req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(ag, s.SourceNID, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := exact.Solve(ag, s.SourceNID, exact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// On a single path the reduction degenerates to the baseline, which is
	// exact.
	if res.Metric != opt.Metric {
		t.Fatalf("path reduce %+v != optimal %+v", res.Metric, opt.Metric)
	}
}

func TestSolveNeverBeatsExactAndAlwaysValidates(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		for _, kind := range []scenario.Kind{scenario.KindGeneral, scenario.KindDisjoint, scenario.KindSplitMerge} {
			services := 6
			s, err := scenario.Generate(scenario.Config{
				Seed: seed, NetworkSize: 20, Services: services,
				InstancesPerService: 2, Kind: kind,
			})
			if err != nil {
				t.Fatal(err)
			}
			ag, err := abstract.Build(s.Overlay, s.Req)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Solve(ag, s.SourceNID, nil)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, kind, err)
			}
			if err := res.Flow.Validate(s.Req, s.Overlay); err != nil {
				t.Fatalf("seed %d %v: invalid flow: %v", seed, kind, err)
			}
			if got := res.Flow.Quality(s.Req); got != res.Metric {
				t.Fatalf("seed %d %v: quality %+v != metric %+v", seed, kind, got, res.Metric)
			}
			opt, err := exact.Solve(ag, s.SourceNID, exact.Options{})
			if err != nil {
				t.Fatalf("seed %d %v: exact: %v", seed, kind, err)
			}
			if res.Metric.Better(opt.Metric) {
				t.Fatalf("seed %d %v: heuristic %+v beats optimal %+v",
					seed, kind, res.Metric, opt.Metric)
			}
		}
	}
}

func TestChainServices(t *testing.T) {
	c := Chain{From: 1, To: 4, Via: []int{2, 3}}
	if want := []int{1, 2, 3, 4}; !reflect.DeepEqual(c.Services(), want) {
		t.Fatalf("Services = %v", c.Services())
	}
}

func TestSolveGreedyFallbackOnHugeSkeletons(t *testing.T) {
	// A requirement with many junctions and many instances per service
	// exceeds the exhaustive-combination budget; the greedy fallback must
	// still produce a valid flow graph.
	s, err := scenario.Generate(scenario.Config{
		Seed: 77, NetworkSize: 30, Services: 16,
		InstancesPerService: 5, Kind: scenario.KindGeneral, EdgeProb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	junctions := s.Req.Junctions()
	combos := 1
	for _, j := range junctions {
		if j == s.Req.Source() {
			continue
		}
		combos *= len(s.Overlay.InstancesOf(j))
		if combos > maxJunctionCombos {
			break
		}
	}
	if combos <= maxJunctionCombos {
		t.Fatalf("scenario too small to trigger the fallback: %d combos", combos)
	}
	ag, err := abstract.Build(s.Overlay, s.Req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(ag, s.SourceNID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Flow.Validate(s.Req, s.Overlay); err != nil {
		t.Fatalf("greedy-fallback flow invalid: %v", err)
	}
}
