// Provision: resource efficiency under contention. Identical federation
// requests arrive one after another over a shared overlay; each admitted
// request reserves its demanded bandwidth along every stream it uses, and
// later requests only see the residual capacity. The example counts how many
// requests each federation algorithm can admit before the overlay saturates
// — the operational meaning of "resource-efficient" in the paper's title.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"sflow"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	sc, err := sflow.GenerateScenario(sflow.ScenarioConfig{
		Seed: 5, NetworkSize: 30, Services: 6,
		InstancesPerService: 3, Kind: sflow.KindGeneral,
	})
	if err != nil {
		return err
	}
	const demand = 150 // Kbit/s per request

	fmt.Fprintln(w, "admission under contention: identical requests, 150 Kbit/s each")
	fmt.Fprintf(w, "overlay: %d instances, %d service links\n\n",
		sc.Overlay.NumInstances(), sc.Overlay.NumLinks())

	algs := []struct {
		name string
		alg  sflow.FederationAlgorithm
	}{
		{"sflow (distributed)", sflow.RegistryAlgorithm("sflow", sflow.SolveOptions{})},
		{"heuristic (central)", sflow.RegistryAlgorithm("heuristic", sflow.SolveOptions{})},
		{"fixed", sflow.RegistryAlgorithm("fixed", sflow.SolveOptions{})},
		{"random", sflow.RegistryAlgorithm("random", sflow.SolveOptions{Rng: rand.New(rand.NewSource(1))})},
	}
	for _, a := range algs {
		p := sflow.NewProvisioner(sc.Overlay)
		admitted := 0
		for {
			_, err := p.Admit(sc.Req, sc.SourceNID, demand, a.alg)
			if errors.Is(err, sflow.ErrRejected) {
				break
			}
			if err != nil {
				return err
			}
			admitted++
			if admitted >= 500 {
				break
			}
		}
		fmt.Fprintf(w, "  %-20s admitted %3d requests (%d Kbit/s aggregate)\n",
			a.name, admitted, p.AggregateDemand())
	}

	// Peek at how sFlow's placements drift as the overlay fills up.
	fmt.Fprintln(w, "\nsFlow placements as capacity drains (first vs last admission):")
	p := sflow.NewProvisioner(sc.Overlay)
	var first, last *sflow.Admission
	for {
		a, err := p.Admit(sc.Req, sc.SourceNID, demand, sflow.RegistryAlgorithm("sflow", sflow.SolveOptions{}))
		if err != nil {
			break
		}
		if first == nil {
			first = a
		}
		last = a
	}
	if first != nil && last != nil {
		fmt.Fprintf(w, "  first: %v (bottleneck %d)\n", first.Flow, first.Metric.Bandwidth)
		fmt.Fprintf(w, "  last:  %v (bottleneck %d)\n", last.Flow, last.Metric.Bandwidth)
	}
	return nil
}
