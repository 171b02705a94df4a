// Command perfbench is the repository benchmark. One run sets up one named
// workload from a seed, measures it for a fixed time, checks every answer
// against an oracle, prints a metric table and ends with one JSON result
// line. Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload serve-churn --seed 3 --seconds 10 --trace 0
//	bash perfbench/run.sh compare base.jsonl head.jsonl
//
// --trace 0 reports the end-to-end metrics, their times at the speed of a
// reference host measured by a calibration kernel run between operations
// (calib.go); --trace 1 runs an untraced half and a traced half of the
// window and reports the per-layer metrics. With --out FILE every run also
// appends a record that the compare mode reads.
// METRICS.md maps each metric to its layer and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

var workloads = []*workload{paperSweep, serveChurn, largeLazy}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// metricValue is one metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as the compare mode reads it: the result line plus every
// other metric the run measured.
type record struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Trace    int                    `json:"trace"`
	Result   result                 `json:"result"`
	All      map[string]metricValue `json:"all"`
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-sweep, serve-churn or large-lazy")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	out := fs.String("out", "", "append a record of the run to this JSON-lines file")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl := findWorkload(*name)
	switch {
	case wl == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *seconds <= 0:
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	case *traceFlag != 0 && *traceFlag != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	traced := *traceFlag == 1

	fmt.Fprintf(stdout, "# perfbench %s seed=%d seconds=%g trace=%d\n", wl.name, *seed, *seconds, *traceFlag)
	fmt.Fprintf(stdout, "# %s; nproc=%d GOMAXPROCS=%d; daemon traffic on loopback TCP only\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "# why: %s\n", wl.why)
	o, err := runWorkload(wl, *seed, time.Duration(*seconds*float64(time.Second)), traced, *traceDir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	printTable(stdout, o, traced)

	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: o.values[d.Name], Unit: d.Unit}
	}
	if *out != "" {
		rec := record{Workload: wl.name, Seed: *seed, Trace: *traceFlag, Result: res, All: map[string]metricValue{}}
		for n, v := range o.values {
			d, _ := lookupDef(n)
			rec.All[n] = metricValue{Value: v, Unit: d.Unit}
		}
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printTable prints every metric the run measured, by name and unit, with
// the base of every ratio and the sample count of every latency.
func printTable(w io.Writer, o *outcome, traced bool) {
	sections := []struct {
		title string
		defs  []metricDef
	}{{"end-to-end", endToEnd}, {"end-to-end (workload-specific)", workloadOnly}}
	if traced {
		sections = append(sections, struct {
			title string
			defs  []metricDef
		}{"per-layer (traced half)", perLayer})
	}
	for _, s := range sections {
		fmt.Fprintf(w, "## %s\n", s.title)
		for _, d := range s.defs {
			v, ok := o.values[d.Name]
			if !ok {
				continue
			}
			extra := ""
			if b, ok := o.bases[d.Name]; ok {
				extra = " (" + b + ")"
			}
			if kind, ok := latencyKind(d.Name); ok {
				n, seen := o.samples[kind]
				if seen && n == 0 {
					fmt.Fprintf(w, "%-30s %14s %-6s (this workload runs no %s operations)\n", d.Name, "n/a", d.Unit, kind)
					continue
				}
				if seen {
					extra = fmt.Sprintf(" (n=%d)", n)
				}
			}
			fmt.Fprintf(w, "%-30s %14.6g %-6s%s\n", d.Name, v, d.Unit, extra)
		}
	}
	fmt.Fprintf(w, "## oracle: %d failed of %d attempted\n", o.failed, o.attempted)
	for _, f := range o.failures {
		fmt.Fprintf(w, "#   %s\n", f)
	}
	if o.tracePath != "" {
		fmt.Fprintf(w, "## spans written to %s\n", o.tracePath)
	}
}

// latencyKind returns the operation kind of a latency percentile metric
// such as "admit_p90_ms".
func latencyKind(name string) (string, bool) {
	for _, k := range []string{"solve", "federate", "mutate", "admit"} {
		if strings.HasPrefix(name, k+"_p") {
			return k, true
		}
	}
	return "", false
}

func appendRecord(path string, rec record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encoding record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("opening %s: %w", path, err)
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
