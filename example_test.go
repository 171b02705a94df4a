package sflow_test

import (
	"fmt"
	"math/rand"

	"sflow"
)

// ExampleFederate runs the distributed sFlow algorithm on a hand-built
// diamond: the merge service has a throughput-balanced instance (41) that a
// greedy first-hop choice would miss.
func ExampleFederate() {
	ov := sflow.NewOverlay()
	for _, in := range [][2]int{{10, 1}, {20, 2}, {30, 3}, {40, 4}, {41, 4}} {
		if err := ov.AddInstance(in[0], in[1], -1); err != nil {
			panic(err)
		}
	}
	for _, l := range [][4]int64{
		{10, 20, 100, 10}, {10, 30, 100, 10},
		{20, 40, 100, 10}, {30, 40, 10, 10},
		{20, 41, 80, 10}, {30, 41, 80, 10},
	} {
		if err := ov.AddLink(int(l[0]), int(l[1]), l[2], l[3]); err != nil {
			panic(err)
		}
	}
	req, err := sflow.RequirementFromEdges([][2]int{{1, 2}, {1, 3}, {2, 4}, {3, 4}})
	if err != nil {
		panic(err)
	}
	res, err := sflow.Federate(ov, req, 10, sflow.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Flow)
	fmt.Printf("bandwidth %d latency %d\n", res.Metric.Bandwidth, res.Metric.Latency)
	// Output:
	// flow{1/10 2/20 3/30 4/41}
	// bandwidth 80 latency 20
}

// ExampleSolve_baseline solves a single service path exactly with the
// paper's polynomial baseline algorithm.
func ExampleSolve_baseline() {
	ov := sflow.NewOverlay()
	for _, in := range [][2]int{{1, 1}, {2, 2}, {3, 2}, {4, 3}} {
		if err := ov.AddInstance(in[0], in[1], -1); err != nil {
			panic(err)
		}
	}
	for _, l := range [][4]int64{
		{1, 2, 100, 1}, {2, 4, 10, 1}, // wide first hop, narrow after
		{1, 3, 50, 1}, {3, 4, 50, 1}, // balanced end to end
	} {
		if err := ov.AddLink(int(l[0]), int(l[1]), l[2], l[3]); err != nil {
			panic(err)
		}
	}
	req, err := sflow.PathRequirement(1, 2, 3)
	if err != nil {
		panic(err)
	}
	sol, err := sflow.Solve("baseline", ov, req, 1, sflow.SolveOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println(sol.Flow, sol.Metric.Bandwidth)
	// Output:
	// flow{1/1 2/3 3/4} 50
}

// ExampleGenerateScenario produces a reproducible workload and inspects it.
func ExampleGenerateScenario() {
	sc, err := sflow.GenerateScenario(sflow.ScenarioConfig{
		Seed: 42, NetworkSize: 20, Services: 5, InstancesPerService: 2,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(sc.Req.NumServices(), sc.Req.Shape(), sc.Overlay.SIDOf(sc.SourceNID) == sc.Req.Source())
	// Output:
	// 5 general true
}

// ExampleReduceSATToMSFG machine-checks Theorem 1 on a tiny formula.
func ExampleReduceSATToMSFG() {
	f := sflow.NewSATFormula(2)
	for _, cl := range [][]sflow.SATLiteral{{1, 2}, {-1}} {
		if err := f.AddClause(cl...); err != nil {
			panic(err)
		}
	}
	in, err := sflow.ReduceSATToMSFG(f)
	if err != nil {
		panic(err)
	}
	feasible, _, assign := in.Decide()
	_, dpll := f.Solve()
	fmt.Println(feasible, dpll, f.Satisfies(assign))
	// Output:
	// true true true
}

// ExampleNewProvisioner admits requests until the overlay saturates.
func ExampleNewProvisioner() {
	ov := sflow.NewOverlay()
	for _, in := range [][2]int{{1, 1}, {2, 2}} {
		if err := ov.AddInstance(in[0], in[1], -1); err != nil {
			panic(err)
		}
	}
	if err := ov.AddLink(1, 2, 100, 5); err != nil {
		panic(err)
	}
	req, err := sflow.PathRequirement(1, 2)
	if err != nil {
		panic(err)
	}
	p := sflow.NewProvisioner(ov)
	admitted := 0
	for {
		if _, err := p.Admit(req, 1, 30, sflow.RegistryAlgorithm("heuristic", sflow.SolveOptions{})); err != nil {
			break
		}
		admitted++
	}
	fmt.Println(admitted, p.AggregateDemand())
	// Output:
	// 3 90
}

// ExampleSolve_random shows the random control algorithm with a seeded
// generator.
func ExampleSolve_random() {
	sc, err := sflow.GenerateScenario(sflow.ScenarioConfig{
		Seed: 7, NetworkSize: 15, Services: 4, InstancesPerService: 2,
	})
	if err != nil {
		panic(err)
	}
	sol, err := sflow.Solve("random", sc.Overlay, sc.Req, sc.SourceNID,
		sflow.SolveOptions{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		panic(err)
	}
	fmt.Println(sol.Flow.Complete(sc.Req), sol.Metric.Reachable())
	// Output:
	// true true
}
