// Command sflow runs one service federation over a scenario — either loaded
// from a JSON bundle produced by sflowgen, or generated on the fly — and
// prints the resulting service flow graph, its quality, and optionally the
// protocol statistics or a Graphviz rendering.
//
// Usage:
//
//	sflow -seed 42 -size 30 -services 6 -alg sflow -stats
//	sflow -scenario bundle.json -alg optimal
//	sflow -seed 1 -size 20 -alg sflow -dot flow > flow.dot
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"sflow"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sflow:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sflow", flag.ContinueOnError)
	var (
		scenarioPath = fs.String("scenario", "", "path to a scenario JSON bundle (overrides generation flags)")
		seed         = fs.Int64("seed", 1, "random seed for scenario generation")
		size         = fs.Int("size", 30, "underlay network size")
		services     = fs.Int("services", 6, "number of required services")
		instances    = fs.Int("instances", 3, "instances per non-source service")
		kind         = fs.String("kind", "general", "requirement shape: path, disjoint, split-merge or general")
		alg          = fs.String("alg", "sflow", "algorithm: sflow (distributed) or one of "+strings.Join(sflow.Algorithms(), ", "))
		hops         = fs.Int("hops", 2, "local view radius for the sflow algorithm")
		concurrent   = fs.Bool("concurrent", false, "run sflow on the goroutine transport instead of the DES")
		loopback     = fs.Bool("loopback", false, "run sflow over real loopback TCP sockets")
		linkstate    = fs.Bool("linkstate", false, "build local views from a link-state exchange instead of the oracle")
		noReduce     = fs.Bool("no-reductions", false, "sflow ablation: disable the reduction heuristics")
		showStats    = fs.Bool("stats", false, "print protocol statistics (sflow only)")
		showTrace    = fs.Bool("trace", false, "print the protocol event timeline (sflow only)")
		mermaid      = fs.Bool("mermaid", false, "print the timeline as a Mermaid sequence diagram (implies -trace)")
		dotOut       = fs.String("dot", "", "emit Graphviz DOT instead of text: requirement, overlay, abstract or flow")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	sc, err := loadScenario(*scenarioPath, *seed, *size, *services, *instances, *kind)
	if err != nil {
		return err
	}

	switch *dotOut {
	case "requirement":
		fmt.Fprint(out, sflow.RequirementDOT(sc.Req))
		return nil
	case "overlay":
		fmt.Fprint(out, sflow.OverlayDOT(sc.Overlay))
		return nil
	case "abstract":
		d, err := sflow.AbstractDOT(sc.Overlay, sc.Req)
		if err != nil {
			return err
		}
		fmt.Fprint(out, d)
		return nil
	case "", "flow":
		// handled after federation
	default:
		return fmt.Errorf("unknown -dot target %q", *dotOut)
	}

	var rec *sflow.TraceRecorder
	if *showTrace || *mermaid {
		rec = sflow.NewTrace()
	}
	opts := sflow.Options{
		Hops: *hops, Concurrent: *concurrent, Loopback: *loopback,
		LinkState: *linkstate, DisableReductions: *noReduce, Trace: rec,
	}
	fg, metric, stats, err := federate(sc, *alg, opts, *seed)
	if err != nil {
		return err
	}
	if *dotOut == "flow" {
		fmt.Fprint(out, sflow.FlowDOT(sc.Overlay, fg))
		return nil
	}

	fmt.Fprintf(out, "requirement: %d services, %d streams, shape %s\n",
		sc.Req.NumServices(), sc.Req.NumDependencies(), sc.Req.Shape())
	fmt.Fprintf(out, "overlay:     %d instances, %d service links\n",
		sc.Overlay.NumInstances(), sc.Overlay.NumLinks())
	fmt.Fprintf(out, "algorithm:   %s\n", *alg)
	fmt.Fprintf(out, "flow graph:  %v\n", fg)
	if metric.Reachable() {
		fmt.Fprintf(out, "quality:     bandwidth %d Kbit/s, latency %d us\n", metric.Bandwidth, metric.Latency)
	} else {
		fmt.Fprintf(out, "quality:     incomplete (the %s algorithm could not satisfy the full requirement)\n", *alg)
	}
	for _, e := range fg.Edges() {
		fmt.Fprintf(out, "  stream %d->%d via %v (bw %d, lat %d)\n",
			e.FromSID, e.ToSID, e.Path, e.Metric.Bandwidth, e.Metric.Latency)
	}
	if rec != nil {
		if *mermaid {
			fmt.Fprint(out, rec.Mermaid())
		} else {
			fmt.Fprint(out, rec)
		}
	}
	if *showStats && stats != nil {
		fmt.Fprintf(out, "stats:       %d messages, %d local computations (%d re-computations), %d nodes, virtual time %d us, compute time %v\n",
			stats.Messages, stats.LocalComputations, stats.Recomputations,
			stats.NodesInvolved, stats.VirtualTime, stats.ComputeTime)
	}
	return nil
}

func loadScenario(path string, seed int64, size, services, instances int, kind string) (*sflow.Scenario, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var sc sflow.Scenario
		if err := json.Unmarshal(data, &sc); err != nil {
			return nil, err
		}
		return &sc, nil
	}
	k, err := sflow.ParseScenarioKind(kind)
	if err != nil {
		return nil, err
	}
	return sflow.GenerateScenario(sflow.ScenarioConfig{
		Seed: seed, NetworkSize: size, Services: services,
		InstancesPerService: instances, Kind: k,
	})
}

func federate(sc *sflow.Scenario, alg string, opts sflow.Options, seed int64) (*sflow.FlowGraph, sflow.Metric, *sflow.Stats, error) {
	if alg == "sflow" {
		res, err := sflow.Federate(sc.Overlay, sc.Req, sc.SourceNID, opts)
		if err != nil {
			return nil, sflow.Metric{}, nil, err
		}
		return res.Flow, res.Metric, &res.Stats, nil
	}
	sol, err := sflow.Solve(alg, sc.Overlay, sc.Req, sc.SourceNID, sflow.SolveOptions{
		Rng:     rand.New(rand.NewSource(seed)),
		Metrics: opts.Metrics,
	})
	if err != nil {
		// A partial federation still has a flow graph worth printing; the
		// unreachable metric makes the output say so.
		var partial *sflow.PartialFederationError
		if errors.As(err, &partial) {
			return partial.Flow, sflow.Unreachable, nil, nil
		}
		return nil, sflow.Metric{}, nil, err
	}
	return sol.Flow, sol.Metric, nil, nil
}
