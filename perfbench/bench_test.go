package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	sflow "sflow"
	"sflow/internal/daemon"
	"sflow/internal/qos"
	"sflow/internal/scenario"
	"sflow/internal/session"
)

// runTiny runs one workload for a fraction of a second and returns its
// output lines and exit code.
func runTiny(t *testing.T, name string, trace string) ([]string, int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := runMain([]string{"--workload", name, "--seed", "5", "--seconds", "0.2", "--trace", trace,
		"--trace-dir", t.TempDir()}, &out, &errOut)
	if errOut.Len() > 0 {
		t.Logf("stderr: %s", errOut.String())
	}
	return strings.Split(strings.TrimSpace(out.String()), "\n"), code
}

// checkResult asserts the last line is the result object carrying exactly
// defs, each with its unit, and that the table printed each of them.
func checkResult(t *testing.T, lines []string, defs []metricDef) {
	t.Helper()
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("result %+v, want correct with attempted >= 1", res)
	}
	if len(res.Metrics) != len(defs) {
		t.Fatalf("result has %d metrics, want %d", len(res.Metrics), len(defs))
	}
	table := strings.Join(lines[:len(lines)-1], "\n")
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("result metric %s = %+v, want unit %s", d.Name, m, d.Unit)
		}
		found := false
		for _, l := range strings.Split(table, "\n") {
			f := strings.Fields(l)
			if len(f) >= 3 && f[0] == d.Name && f[2] == d.Unit {
				found = true
			}
		}
		if !found {
			t.Errorf("table does not print %s with unit %s", d.Name, d.Unit)
		}
	}
}

func TestTinyRunPrintsEveryEndToEndMetric(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			lines, code := runTiny(t, wl.name, "0")
			if code != 0 {
				t.Fatalf("exit code %d\n%s", code, strings.Join(lines, "\n"))
			}
			checkResult(t, lines, endToEnd)
			for _, v := range []string{"solve_p50_ms", "solves_per_s", "setup_s"} {
				var res result
				_ = json.Unmarshal([]byte(lines[len(lines)-1]), &res)
				if res.Metrics[v].Value <= 0 {
					t.Errorf("%s = %g, want > 0", v, res.Metrics[v].Value)
				}
			}
		})
	}
}

func TestTinyTracedRunPrintsEveryPerLayerMetric(t *testing.T) {
	lines, code := runTiny(t, "paper-sweep", "1")
	if code != 0 {
		t.Fatalf("exit code %d\n%s", code, strings.Join(lines, "\n"))
	}
	checkResult(t, lines, perLayer)
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %s %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

// The oracle must flag a deliberately corrupted answer. The corruption is
// injected into the checker's input, never into the program.
func TestOracleFlagsCorruptedAnswers(t *testing.T) {
	sc, err := scenario.Generate(scenario.Config{Seed: 4, NetworkSize: 20, Services: 5, InstancesPerService: 2})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := sflow.Solve("heuristic", sc.Overlay, sc.Req, sc.SourceNID, sflow.SolveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	flowJSON, err := json.Marshal(sol.Flow)
	if err != nil {
		t.Fatal(err)
	}
	metric := sol.Metric

	t.Run("served", func(t *testing.T) {
		good := &daemon.Response{Epoch: 1, Flow: flowJSON, Metric: &metric}
		if _, err := checkServed(sc.Overlay, sc.Req, sc.SourceNID, false, good); err != nil {
			t.Fatalf("correct answer flagged: %v", err)
		}
		corrupt := *good
		corrupt.Flow = bytes.Replace(flowJSON, []byte(`"SID":`), []byte(`"SID": `), 1)
		if _, err := checkServed(sc.Overlay, sc.Req, sc.SourceNID, false, &corrupt); err == nil {
			t.Error("re-encoded flow bytes not flagged")
		}
		wrong := metric
		wrong.Latency++
		corrupt = *good
		corrupt.Metric = &wrong
		if _, err := checkServed(sc.Overlay, sc.Req, sc.SourceNID, false, &corrupt); err == nil {
			t.Error("wrong metric not flagged")
		}
		corrupt = *good
		corrupt.Flow, corrupt.Metric, corrupt.Err = nil, nil, "daemon: injected failure"
		if _, err := checkServed(sc.Overlay, sc.Req, sc.SourceNID, false, &corrupt); err == nil {
			t.Error("spurious failure not flagged")
		}
	})

	t.Run("epochs", func(t *testing.T) {
		o := newServedOracle(nil, false)
		o.hook(&session.Snapshot{Epoch: 1, Overlay: sc.Overlay, AllPairs: qos.ComputeAllPairsWorkers(sc.Overlay, 1)})
		good := &daemon.Response{Epoch: 1, Flow: flowJSON, Metric: &metric}
		if err := o.observe(0, good); err != nil {
			t.Fatal(err)
		}
		changed := *good
		changed.Flow = append(append([]byte(nil), flowJSON...), ' ')
		if err := o.observe(0, &changed); err == nil {
			t.Error("changed answer on the same overlay state not flagged")
		}
		unknown := *good
		unknown.Epoch = 9
		if err := o.observe(0, &unknown); err == nil {
			t.Error("answer naming an unpublished epoch not flagged")
		}
	})

	t.Run("paper", func(t *testing.T) {
		good := &answer{flow: flowJSON, metric: metric}
		if _, err := checkFlow(sc, good, true); err != nil {
			t.Fatalf("correct answer flagged: %v", err)
		}
		wrong := metric
		wrong.Bandwidth++
		if _, err := checkFlow(sc, &answer{flow: flowJSON, metric: wrong}, true); err == nil {
			t.Error("wrong metric not flagged")
		}
		var raw map[string]any
		if err := json.Unmarshal(flowJSON, &raw); err != nil {
			t.Fatal(err)
		}
		edges := raw["edges"].([]any)
		e := edges[0].(map[string]any)
		e["Path"] = []any{e["FromNID"], e["FromNID"], e["ToNID"]}
		bad, err := json.Marshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := checkFlow(sc, &answer{flow: bad, metric: metric}, true); err == nil {
			t.Errorf("corrupted route not flagged: %s", bad)
		}
	})
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", q)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "solve_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25}
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02}
	cases := []struct {
		name string
		head []float64
		want string
	}{
		{"faster everywhere", []float64{0.8, 0.81, 0.79, 0.8, 0.82, 0.8, 0.79, 0.81, 0.8, 0.8}, "improved"},
		{"same", []float64{1.01, 0.99, 1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01}, "unchanged"},
		{"much slower", []float64{1.4, 1.41, 1.39, 1.4, 1.42, 1.4, 1.39, 1.41, 1.4, 1.4}, "worse"},
	}
	for _, c := range cases {
		if got := judge(lower, base, c.head).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	noisy := []float64{0.5, 1.5, 0.6, 1.4, 1.0, 0.7, 1.3, 0.8, 1.2, 1.0}
	if got := judge(lower, noisy, base).verdict; got != "unresolved" {
		t.Errorf("noisy base: verdict %s, want unresolved", got)
	}
}

func TestSpanSummary(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "op.solve", Start: 0, End: 100, Parent: -1, Req: 1},
		{Name: "qos.allpairs", Start: 10, End: 40, Parent: 0, Req: 1},
		{Name: "reduce.solve", Start: 50, End: 90, Parent: 0, Req: 1},
		{Name: "shadow", Start: 100, End: 200, Parent: -1},
		{Name: "qos.row", Start: 110, End: 190, Parent: 3},
	}}
	s := tr.summarize()
	if s.ops != 1 || s.coverage["solve"] != 0.7 {
		t.Fatalf("ops %d coverage %v, want 1 op covered 0.7", s.ops, s.coverage)
	}
	if s.selfUS["op"] != 0.03 || s.selfUS["qos"] != 0.03 || s.selfUS["reduce"] != 0.04 {
		t.Fatalf("self times %v", s.selfUS)
	}
}

// The calibration kernel must allocate nothing, so that no change to the
// program's heap or collector moves the host speed it measures.
func TestCalibrationAllocatesNothing(t *testing.T) {
	g := loadCalibGraph()
	if n := testing.AllocsPerRun(20, g.unit); n != 0 {
		t.Fatalf("calibration unit allocates %g times, want 0", n)
	}
	w := &windowRec{}
	w.calibrate()
	w.calibrate() // not due yet: no second slice
	if len(w.calib) != 1 || w.calib[0] <= 0 || w.hostSpeed() <= 0 {
		t.Fatalf("calibration rates %v, host speed %g", w.calib, w.hostSpeed())
	}
}
