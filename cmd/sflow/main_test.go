package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sflow"
)

func runCmd(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(args, &buf)
	return buf.String(), err
}

func TestRunAlgorithms(t *testing.T) {
	algs := []string{"sflow"}
	for _, name := range sflow.Algorithms() {
		if name != "baseline" { // path requirements only: TestRunBaselineNeedsPath
			algs = append(algs, name)
		}
	}
	for _, alg := range algs {
		out, err := runCmd(t, "-seed", "3", "-size", "12", "-services", "4", "-alg", alg)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		for _, want := range []string{"algorithm:   " + alg, "flow graph:", "quality:", "stream"} {
			if !strings.Contains(out, want) {
				t.Fatalf("%s: missing %q in:\n%s", alg, want, out)
			}
		}
	}
}

func TestRunBaselineNeedsPath(t *testing.T) {
	if _, err := runCmd(t, "-seed", "3", "-size", "12", "-services", "4", "-alg", "baseline"); err == nil {
		t.Fatal("baseline on a DAG accepted")
	}
	out, err := runCmd(t, "-seed", "3", "-size", "12", "-services", "4", "-kind", "path", "-alg", "baseline")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "shape path") {
		t.Fatalf("missing shape in:\n%s", out)
	}
}

func TestRunStatsAndTrace(t *testing.T) {
	out, err := runCmd(t, "-seed", "3", "-size", "12", "-services", "4", "-stats", "-trace")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "stats:") || !strings.Contains(out, "messages") {
		t.Fatalf("missing stats in:\n%s", out)
	}
	if !strings.Contains(out, "sfederate") || !strings.Contains(out, "report") {
		t.Fatalf("missing trace in:\n%s", out)
	}
}

func TestRunDOTTargets(t *testing.T) {
	for target, header := range map[string]string{
		"requirement": "digraph requirement",
		"overlay":     "digraph overlay",
		"abstract":    "digraph abstract",
		"flow":        "digraph flowgraph",
	} {
		out, err := runCmd(t, "-seed", "3", "-size", "12", "-services", "4", "-dot", target)
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		if !strings.HasPrefix(out, header) {
			t.Fatalf("%s: output starts with %q", target, out[:min(40, len(out))])
		}
	}
	if _, err := runCmd(t, "-dot", "bogus"); err == nil {
		t.Fatal("bogus dot target accepted")
	}
}

func TestRunScenarioFile(t *testing.T) {
	// Generate a bundle with the sibling generator logic via the public
	// API and feed it back through -scenario.
	dir := t.TempDir()
	path := filepath.Join(dir, "bundle.json")
	out, err := runCmd(t, "-seed", "7", "-size", "10", "-services", "4", "-dot", "requirement")
	if err != nil {
		t.Fatal(err)
	}
	_ = out
	// Use sflowgen's output format: write the scenario through the JSON
	// encoder by regenerating it here.
	if err := writeScenario(path, 7, 10, 4); err != nil {
		t.Fatal(err)
	}
	got, err := runCmd(t, "-scenario", path, "-alg", "optimal")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "flow graph:") {
		t.Fatalf("scenario run output:\n%s", got)
	}
	if _, err := runCmd(t, "-scenario", filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing scenario file accepted")
	}
	if err := os.WriteFile(path, []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCmd(t, "-scenario", path); err == nil {
		t.Fatal("garbage scenario accepted")
	}
}

func TestRunRejections(t *testing.T) {
	if _, err := runCmd(t, "-alg", "bogus", "-seed", "1", "-size", "10", "-services", "4"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := runCmd(t, "-kind", "bogus"); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := runCmd(t, "-badflag"); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// writeScenario saves a generated scenario bundle as JSON, as sflowgen does.
func writeScenario(path string, seed int64, size, services int) error {
	sc, err := sflow.GenerateScenario(sflow.ScenarioConfig{
		Seed: seed, NetworkSize: size, Services: services,
	})
	if err != nil {
		return err
	}
	data, err := json.Marshal(sc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func TestRunMermaidTrace(t *testing.T) {
	out, err := runCmd(t, "-seed", "3", "-size", "12", "-services", "4", "-mermaid")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "sequenceDiagram") || !strings.Contains(out, "consumer->>") {
		t.Fatalf("mermaid output wrong:\n%s", out)
	}
}
