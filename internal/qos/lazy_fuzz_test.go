package qos

import (
	"testing"
)

// applyLazyFuzzOp decodes one mutation from three fuzz bytes, applies it to
// the adjacency-map ground truth and reports it to every lazy table under
// test the way a session would (node removals announce every former
// in-neighbor first). Reads are part of the op space too: laziness means
// which rows happen to be materialized when a mutation lands is itself
// interesting state. So are the eager session's fill and publication: op 7
// evicts and refills every row over two workers, op 8 returns snapshots for
// the caller to check once later mutations have landed.
func applyLazyFuzzOp(g *testGraph, lts []*LazyAllPairs, op, x, y byte, next *int) (snaps []Table) {
	nodes := g.Nodes()
	if len(nodes) == 0 {
		return nil
	}
	pick := func(b byte) int { return nodes[int(b)%len(nodes)] }
	switch op % 9 {
	case 0: // add or replace an arc
		u, v := pick(x), pick(y)
		if u != v {
			g.setArc(u, v, int64(x%32)+1, int64(y%16)+1)
			for _, lt := range lts {
				lt.OutChanged(u)
			}
		}
	case 1: // drop an arc
		u := pick(x)
		g.dropArcTo(u, pick(y))
		for _, lt := range lts {
			lt.OutChanged(u)
		}
	case 2: // a fresh node joins with one arc each way
		n := *next
		*next++
		g.addNode(n)
		g.addArc(n, pick(x), int64(y%32)+1, int64(x%16)+1)
		u := pick(y)
		if u != n {
			g.addArc(u, n, int64(x%32)+1, int64(y%16)+1)
		}
		for _, lt := range lts {
			lt.NodeAdded(n)
			lt.OutChanged(n)
			if u != n {
				lt.OutChanged(u)
			}
		}
	case 3: // a node leaves (keep a couple so rows stay interesting)
		if len(nodes) > 2 {
			n := pick(x)
			ins := g.removeNode(n)
			for _, lt := range lts {
				for _, u := range ins {
					lt.OutChanged(u)
				}
				lt.NodeRemoved(n)
			}
		}
	case 4: // read one row
		for _, lt := range lts {
			lt.From(pick(x))
		}
	case 5: // explicit flush (evict-only; must run no routing)
		for _, lt := range lts {
			before := lt.Stats().Computed
			lt.Flush()
			if after := lt.Stats().Computed; after != before {
				panic("lazy flush ran routing kernels")
			}
		}
	case 6: // read a metric and a path
		for _, lt := range lts {
			lt.Metric(pick(x), pick(y))
			lt.Path(pick(y), pick(x))
		}
	case 7: // eager flush: evict, then fill every row
		for _, lt := range lts {
			fill(lt, 2)
			if lt.MaxRows() <= 0 && len(lt.Missing(lt.Sources())) != 0 {
				panic("eager fill left rows missing")
			}
		}
	case 8: // publish: a pinned snapshot and the eager form
		for _, lt := range lts {
			snaps = append(snaps, lt.Snapshot(), lt.Materialize(2))
		}
	}
	return snaps
}

// FuzzLazyInvalidation drives random mutation/read interleavings against a
// small graph: after every op, every row the lazy table answers must equal
// the from-scratch eager oracle on the current ground truth — if eviction
// ever under-approximates the readers of a changed node, a stale memoized
// row survives and the comparison catches it. An unbounded and a MaxRows=2
// bounded table run the same trace side by side, so LRU eviction interleaved
// with mutation-driven invalidation is fuzzed against the same oracle, and
// the bound itself is asserted after every op. Snapshots taken along the way
// are checked against the oracle of their own graph only at the end of the
// trace, so their missing rows compute after the live table has re-frozen.
// Any byte string is a valid trace: three bytes per op, first byte selects
// the op.
func FuzzLazyInvalidation(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 0, 0, 1, 2, 4, 0, 0})                   // read, mutate, re-read
	f.Add([]byte{4, 3, 0, 1, 3, 9, 6, 2, 3})                   // read, drop arc, metric
	f.Add([]byte{2, 9, 1, 3, 0, 0, 2, 2, 7})                   // join, leave, join
	f.Add([]byte{4, 1, 0, 5, 0, 0, 0, 1, 9, 4, 1, 0})          // read, flush, mutate, read
	f.Add([]byte{3, 1, 1, 3, 2, 2, 3, 3, 3, 3, 4, 4})          // drain the graph
	f.Add([]byte{4, 0, 0, 4, 1, 1, 4, 2, 2, 0, 1, 2})          // fill past the bound, mutate
	f.Add([]byte{7, 0, 0, 0, 1, 2, 7, 0, 0, 2, 3, 1, 7, 0, 0}) // eager fills across churn
	f.Add([]byte{8, 0, 0, 0, 1, 2, 3, 0, 0, 7, 0, 0, 4, 2, 2}) // snapshot, churn, refill
	f.Fuzz(func(t *testing.T, trace []byte) {
		if len(trace) > 48 { // 16 ops x full-table oracle compare is plenty
			trace = trace[:48]
		}
		g := chainGraph()
		g.addArc(4, 1, 60, 7) // cycle, so readers sets overlap
		lt := NewLazyAllPairs(g, nil)
		bounded := NewLazyAllPairsOpts(g, LazyOptions{MaxRows: 2})
		next := 100
		type pinned struct {
			op     int
			snaps  []Table
			oracle *AllPairs
		}
		var kept []pinned
		for i := 0; i+2 < len(trace); i += 3 {
			snaps := applyLazyFuzzOp(g, []*LazyAllPairs{lt, bounded}, trace[i], trace[i+1], trace[i+2], &next)
			want := ComputeAllPairsWorkers(g, 1)
			if snaps != nil {
				kept = append(kept, pinned{i / 3, snaps, want})
			}
			if !TablesEqual(lt, want) || !TablesEqual(want, lt) {
				t.Fatalf("op %d (byte %d): lazy table diverged from eager oracle", i/3, trace[i]%9)
			}
			if rows := bounded.ComputedRows(); len(rows) > 2 {
				t.Fatalf("op %d: bounded table holds %v, over MaxRows 2", i/3, rows)
			}
			if !TablesEqual(bounded, want) || !TablesEqual(want, bounded) {
				t.Fatalf("op %d (byte %d): bounded lazy table diverged from eager oracle", i/3, trace[i]%9)
			}
		}
		for _, p := range kept {
			for j, sn := range p.snaps {
				if !TablesEqual(sn, p.oracle) || !TablesEqual(p.oracle, sn) {
					t.Fatalf("snapshot %d taken at op %d moved under later mutations", j, p.op)
				}
			}
		}
	})
}
