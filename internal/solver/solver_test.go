package solver

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sflow/internal/abstract"
	"sflow/internal/core"
	"sflow/internal/overlay"
	"sflow/internal/require"
	"sflow/internal/scenario"
)

func testScenario(t *testing.T, kind scenario.Kind) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.Generate(scenario.Config{
		Seed: 5, NetworkSize: 20, Services: 5,
		InstancesPerService: 3, Kind: kind,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestNames(t *testing.T) {
	names := Names()
	want := []string{"baseline", "fixed", "heuristic", "hierarchical", "optimal", "random", "servicepath"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
}

// Every registered name federates a path requirement completely, and so
// does the contracted hierarchy.
func TestSolveEveryName(t *testing.T) {
	sc := testScenario(t, scenario.KindPath)
	run := func(name string, opts Options) {
		sol, err := Solve(name, sc.Overlay, sc.Req, sc.SourceNID, opts, abstract.Build)
		if err != nil {
			t.Fatalf("%s %+v: %v", name, opts, err)
		}
		if !sol.Flow.Complete(sc.Req) || !sol.Metric.Reachable() {
			t.Fatalf("%s %+v: incomplete solution %v %+v", name, opts, sol.Flow, sol.Metric)
		}
	}
	for _, name := range Names() {
		run(name, Options{})
	}
	run(Hierarchical, Options{Contracted: true, ClusterK: 3})
	run(Hierarchical, Options{Lazy: true, ClusterK: 100})
}

// Names outside the abstract-graph table are rejected before any build.
func TestUnknownNamesSkipTheBuild(t *testing.T) {
	sc := testScenario(t, scenario.KindPath)
	for _, name := range []string{Hierarchical, SFlow, "nope"} {
		if _, err := Lookup(name); !errors.Is(err, ErrUnknownAlgorithm) {
			t.Fatalf("Lookup(%q) = %v, want ErrUnknownAlgorithm", name, err)
		}
	}
	build := func(*overlay.Overlay, *require.Requirement) (*abstract.Graph, error) {
		t.Fatal("build ran for an unknown name")
		return nil, nil
	}
	if _, err := Solve("nope", sc.Overlay, sc.Req, sc.SourceNID, Options{}, build); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("Solve(nope) = %v, want ErrUnknownAlgorithm", err)
	}
}

// A nil rng means a fresh seed-1 source on every call.
func TestRandomNilRngIsSeedOne(t *testing.T) {
	sc := testScenario(t, scenario.KindGeneral)
	ag, err := abstract.Build(sc.Overlay, sc.Req)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := Lookup("random")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := fn(ag, sc.SourceNID, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fn(ag, sc.SourceNID, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		if got.Metric != want.Metric || !reflect.DeepEqual(got.Flow.Assignment(), want.Flow.Assignment()) {
			t.Fatalf("call %d: nil rng %v, seed 1 %v", i, got.Flow, want.Flow)
		}
	}
}

func TestAlgorithmAdapter(t *testing.T) {
	sc := testScenario(t, scenario.KindGeneral)

	// "sflow" is the distributed protocol, byte for byte.
	fg, m, err := Algorithm(SFlow, Options{}, nil)(sc.Overlay, sc.Req, sc.SourceNID)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Federate(sc.Overlay, sc.Req, sc.SourceNID, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m != res.Metric || !reflect.DeepEqual(fg.Assignment(), res.Flow.Assignment()) {
		t.Fatalf("sflow adapter %v %+v, core.Federate %v %+v", fg, m, res.Flow, res.Metric)
	}

	// Registry names match Solve over the same build.
	fg, m, err = Algorithm("heuristic", Options{}, abstract.Build)(sc.Overlay, sc.Req, sc.SourceNID)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve("heuristic", sc.Overlay, sc.Req, sc.SourceNID, Options{}, abstract.Build)
	if err != nil {
		t.Fatal(err)
	}
	if m != sol.Metric || !reflect.DeepEqual(fg.Assignment(), sol.Flow.Assignment()) {
		t.Fatalf("heuristic adapter %v, Solve %v", fg, sol.Flow)
	}

	// Failures come back with no flow and an unreachable metric: a partial
	// servicepath federation on a DAG, and an unknown name at run time.
	for name, want := range map[string]error{
		"servicepath": core.ErrPartialFederation,
		"nope":        ErrUnknownAlgorithm,
	} {
		fg, m, err := Algorithm(name, Options{}, abstract.Build)(sc.Overlay, sc.Req, sc.SourceNID)
		if !errors.Is(err, want) || fg != nil || m.Reachable() {
			t.Fatalf("%s: got %v %+v %v, want %v", name, fg, m, err, want)
		}
	}
}
