package reduce

import (
	"fmt"
	"testing"

	"sflow/internal/abstract"
	"sflow/internal/scenario"
)

// BenchmarkReduceSolve measures one reduction solve (junction search plus
// assembly) of a general six-service requirement over fixed paper-sized
// overlays; the all-pairs table is built once, outside the loop.
func BenchmarkReduceSolve(b *testing.B) {
	for _, n := range []int{10, 20, 50} {
		s, err := scenario.Generate(scenario.Config{
			Seed: 7, NetworkSize: n, Services: 6,
			InstancesPerService: max(2, n/10), Kind: scenario.KindGeneral,
		})
		if err != nil {
			b.Fatal(err)
		}
		ag, err := abstract.Build(s.Overlay, s.Req)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Solve(ag, s.SourceNID, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
