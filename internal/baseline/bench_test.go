package baseline

import (
	"fmt"
	"testing"

	"sflow/internal/abstract"
	"sflow/internal/scenario"
)

// BenchmarkSolveChain measures one baseline chain solve (steps 3 and 4 of
// the algorithm) on a path requirement of six services over fixed
// paper-sized overlays; the all-pairs table is built once, outside the loop.
func BenchmarkSolveChain(b *testing.B) {
	for _, n := range []int{10, 20, 50} {
		s, err := scenario.Generate(scenario.Config{
			Seed: 7, NetworkSize: n, Services: 6,
			InstancesPerService: max(2, n/10), Kind: scenario.KindPath,
		})
		if err != nil {
			b.Fatal(err)
		}
		ag, err := abstract.Build(s.Overlay, s.Req)
		if err != nil {
			b.Fatal(err)
		}
		chain := s.Req.PathServices()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SolveChain(ag, chain, s.SourceNID, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
