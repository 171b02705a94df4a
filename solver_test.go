package sflow_test

import (
	"errors"
	"strings"
	"testing"

	"sflow"
)

// pathScenario generates a seeded path-requirement scenario every algorithm
// in the registry (including baseline and servicepath) can solve.
func pathScenario(t *testing.T) *sflow.Scenario {
	t.Helper()
	sc, err := sflow.GenerateScenario(sflow.ScenarioConfig{
		Seed: 5, NetworkSize: 20, Services: 5,
		InstancesPerService: 3, Kind: sflow.KindPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestSolveRegistryCompleteness(t *testing.T) {
	sc := pathScenario(t)
	names := sflow.Algorithms()
	if len(names) != 7 {
		t.Fatalf("Algorithms() = %v, want 7 names", names)
	}
	for _, name := range names {
		sol, err := sflow.Solve(name, sc.Overlay, sc.Req, sc.SourceNID, sflow.SolveOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sol == nil || sol.Flow == nil {
			t.Fatalf("%s: nil solution", name)
		}
		if !sol.Metric.Reachable() {
			t.Fatalf("%s: unreachable metric on a solvable path scenario", name)
		}
		if !sol.Flow.Complete(sc.Req) {
			t.Fatalf("%s: incomplete flow graph", name)
		}
	}
}

func TestSolveUnknownAlgorithm(t *testing.T) {
	sc := pathScenario(t)
	_, err := sflow.Solve("simulated-annealing", sc.Overlay, sc.Req, sc.SourceNID, sflow.SolveOptions{})
	if !errors.Is(err, sflow.ErrUnknownAlgorithm) {
		t.Fatalf("got %v, want ErrUnknownAlgorithm", err)
	}
	for _, name := range sflow.Algorithms() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q should list %q", err, name)
		}
	}
}

// TestSolveInstrumentation checks Solve fills a registry passed through
// SolveOptions.
func TestSolveInstrumentation(t *testing.T) {
	sc := pathScenario(t)
	reg := sflow.NewMetrics()
	if _, err := sflow.Solve("heuristic", sc.Overlay, sc.Req, sc.SourceNID,
		sflow.SolveOptions{Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	text := snap.StableText()
	for _, key := range []string{"abstract_builds_total", "qos_relaxations_total"} {
		if !strings.Contains(text, key) {
			t.Fatalf("snapshot missing %s:\n%s", key, text)
		}
	}
}

// TestMetricsSnapshotDeterminism pins the tentpole acceptance criterion: an
// instrumented fixed-seed Fig10a sweep yields a non-empty metrics snapshot
// whose stable rendering is byte-identical at 1 and 4 workers.
func TestMetricsSnapshotDeterminism(t *testing.T) {
	sweep := func(workers int) string {
		reg := sflow.NewMetrics()
		_, err := sflow.Fig10a(sflow.ExperimentConfig{
			Sizes: []int{10, 20}, Trials: 3, Seed: 1,
			Workers: workers, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot().StableText()
	}
	s1 := sweep(1)
	s4 := sweep(4)
	if !strings.Contains(s1, "counter exp_cells_total 6") {
		t.Fatalf("snapshot missing the sweep's cell counter:\n%s", s1)
	}
	if !strings.Contains(s1, "core_messages_delivered_total") {
		t.Fatalf("snapshot missing protocol counters:\n%s", s1)
	}
	if s1 != s4 {
		t.Fatalf("stable snapshot differs between 1 and 4 workers:\n--- workers=1\n%s\n--- workers=4\n%s", s1, s4)
	}
	// The volatile wall-clock histogram must render in the full text but
	// stay out of the stable one.
	if strings.Contains(s1, "exp_cell_wall_us") {
		t.Fatal("volatile metric leaked into StableText")
	}
}
