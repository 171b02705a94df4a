// Travel: the paper's running example (Figs 1–5). A travel engine feeds
// airline, hotel and attraction services whose outputs are converted by
// currency, map and translator services before reaching a travel agency —
// a general DAG requirement with splits and merges, federated over an
// overlay with multiple instances per service (e.g. two competing airline
// back-ends).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"sflow"
)

// Service identifiers of the travel scenario.
const (
	travelEngine = iota + 1
	airline
	hotel
	attraction
	currency
	mapSvc
	translator
	agency
)

var serviceName = map[int]string{
	travelEngine: "TravelEngine",
	airline:      "Airline",
	hotel:        "Hotel",
	attraction:   "Attraction",
	currency:     "Currency",
	mapSvc:       "Map",
	translator:   "Translator",
	agency:       "Agency",
}

func main() {
	emitDOT := flag.Bool("dot", false, "emit the federated flow graph as Graphviz DOT and exit")
	flag.Parse()
	if err := run(os.Stdout, *emitDOT); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, emitDOT bool) error {

	// The requirement: airline and hotel results are converted by the
	// currency service; hotel and attraction locations feed the map;
	// attraction descriptions are translated; everything merges at the
	// agency (compare Fig 5 of the paper).
	req, err := sflow.RequirementFromEdges([][2]int{
		{travelEngine, airline}, {travelEngine, hotel}, {travelEngine, attraction},
		{airline, currency}, {hotel, currency},
		{hotel, mapSvc}, {attraction, mapSvc},
		{attraction, translator},
		{currency, agency}, {mapSvc, agency}, {translator, agency},
	})
	if err != nil {
		return err
	}

	// A 20-node ISP-like underlay; service instances are placed on it and
	// the overlay is derived with the latency-routed link metrics.
	rng := rand.New(rand.NewSource(7))
	under, err := sflow.GenerateNetwork(rng, sflow.NetworkConfig{
		Nodes: 20, ExtraLinks: 12, MinBandwidth: 200, MaxBandwidth: 10000,
	})
	if err != nil {
		return err
	}
	// Compatibility is derived from the services' typed interfaces, not
	// hand-enumerated: a service can feed another when its outputs match
	// the other's inputs (the paper's semantic definition).
	reg := sflow.NewServiceRegistry()
	for _, d := range []sflow.ServiceDescription{
		{SID: travelEngine, Name: "TravelEngine", Outputs: []sflow.ServiceType{"query"}},
		{SID: airline, Name: "Airline", Inputs: []sflow.ServiceType{"query"}, Outputs: []sflow.ServiceType{"prices"}},
		{SID: hotel, Name: "Hotel", Inputs: []sflow.ServiceType{"query"}, Outputs: []sflow.ServiceType{"prices", "location"}},
		{SID: attraction, Name: "Attraction", Inputs: []sflow.ServiceType{"query"}, Outputs: []sflow.ServiceType{"location", "attraction-info"}},
		{SID: currency, Name: "Currency", Inputs: []sflow.ServiceType{"prices"}, Outputs: []sflow.ServiceType{"local-prices"}},
		{SID: mapSvc, Name: "Map", Inputs: []sflow.ServiceType{"location"}, Outputs: []sflow.ServiceType{"map"}},
		{SID: translator, Name: "Translator", Inputs: []sflow.ServiceType{"attraction-info"}, Outputs: []sflow.ServiceType{"translated"}},
		{SID: agency, Name: "Agency", Inputs: []sflow.ServiceType{"local-prices", "map", "translated"}},
	} {
		if err := reg.Register(d); err != nil {
			return err
		}
	}
	// Every requirement dependency must be type-sound.
	if err := reg.Validate(req.Edges()); err != nil {
		return err
	}
	compat := reg.Compatibility()
	// Two instances of every service except the consumer-facing ends
	// (think "Delta Airlines" and "Northwest Airlines" for the airline
	// service).
	var placements []sflow.Placement
	nid := 0
	for _, sid := range req.Services() {
		n := 2
		if sid == travelEngine || sid == agency {
			n = 1
		}
		for k := 0; k < n; k++ {
			placements = append(placements, sflow.Placement{NID: nid, SID: sid, Host: rng.Intn(20)})
			nid++
		}
	}
	ov, err := sflow.BuildOverlay(under, placements, compat)
	if err != nil {
		return err
	}
	source := ov.InstancesOf(travelEngine)[0]

	res, err := sflow.Federate(ov, req, source, sflow.Options{})
	if err != nil {
		return err
	}
	if emitDOT {
		fmt.Fprint(w, sflow.FlowDOT(ov, res.Flow))
		return nil
	}

	fmt.Fprintln(w, "travel-agency federation (the paper's running example)")
	fmt.Fprintf(w, "overlay: %d instances, %d service links on a %d-node network\n\n",
		ov.NumInstances(), ov.NumLinks(), under.Size())
	fmt.Fprintln(w, "sFlow selected instances:")
	for _, sid := range req.Services() {
		inst, _ := res.Flow.Assigned(sid)
		fmt.Fprintf(w, "  %-13s -> instance %d (host %d)\n", serviceName[sid], inst, hostOf(ov, inst))
	}
	fmt.Fprintf(w, "\nend-to-end: bandwidth %d Kbit/s, latency %d us\n",
		res.Metric.Bandwidth, res.Metric.Latency)
	fmt.Fprintf(w, "protocol:   %d messages, %d re-computations, virtual time %d us\n\n",
		res.Stats.Messages, res.Stats.Recomputations, res.Stats.VirtualTime)

	// How do the controls fare on the same scenario?
	fixed, err := sflow.Solve("fixed", ov, req, source, sflow.SolveOptions{})
	if err != nil {
		return err
	}
	random, err := sflow.Solve("random", ov, req, source, sflow.SolveOptions{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		return err
	}
	opt, err := sflow.Solve("optimal", ov, req, source, sflow.SolveOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "comparison (bandwidth Kbit/s / latency us):")
	fmt.Fprintf(w, "  optimal: %6d / %d\n", opt.Metric.Bandwidth, opt.Metric.Latency)
	fmt.Fprintf(w, "  sflow:   %6d / %d\n", res.Metric.Bandwidth, res.Metric.Latency)
	fmt.Fprintf(w, "  fixed:   %6d / %d\n", fixed.Metric.Bandwidth, fixed.Metric.Latency)
	fmt.Fprintf(w, "  random:  %6d / %d\n", random.Metric.Bandwidth, random.Metric.Latency)

	// Optional services (Fig 2 of the paper): the attraction information
	// may flow through EITHER the map OR the translator service; the
	// better-performing topology is preferably selected.
	spec := sflow.NewChoiceSpec()
	for _, step := range []error{
		spec.AddTerm(travelEngine, travelEngine),
		spec.AddTerm(attraction, attraction),
		spec.AddTerm(99 /* map-or-translator slot */, mapSvc, translator),
		spec.AddTerm(agency, agency),
		spec.Connect(travelEngine, attraction),
		spec.Connect(attraction, 99),
		spec.Connect(99, agency),
	} {
		if step != nil {
			return step
		}
	}
	pick, err := sflow.BestChoice(ov, spec, source,
		func(o *sflow.Overlay, r *sflow.Requirement, s int) (*sflow.FlowGraph, sflow.Metric, error) {
			fr, err := sflow.Federate(o, r, s, sflow.Options{})
			if err != nil {
				return nil, sflow.Metric{}, err
			}
			return fr.Flow, fr.Metric, nil
		})
	if err != nil {
		return err
	}
	chosen := "Map"
	if pick.Req.Has(translator) {
		chosen = "Translator"
	}
	fmt.Fprintf(w, "\noptional services (Fig 2): Map-or-Translator resolved to %s "+
		"(bandwidth %d Kbit/s; %d of %d expansions feasible)\n",
		chosen, pick.Metric.Bandwidth, pick.Feasible, pick.Considered)
	return nil
}

func hostOf(ov *sflow.Overlay, nid int) int {
	inst, _ := ov.Instance(nid)
	return inst.Host
}
