package qos

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// mutate helpers for testGraph (the adjacency-map Graph of qos_test.go).

func (g *testGraph) setArc(u, v int, bw, lat int64) {
	for i, a := range g.adj[u] {
		if a.To == v {
			g.adj[u][i] = Arc{To: v, Bandwidth: bw, Latency: lat}
			return
		}
	}
	g.addArc(u, v, bw, lat)
}

func (g *testGraph) dropArcTo(u, v int) {
	out := g.adj[u][:0]
	for _, a := range g.adj[u] {
		if a.To != v {
			out = append(out, a)
		}
	}
	g.adj[u] = out
}

func (g *testGraph) removeNode(n int) (inNeighbors []int) {
	delete(g.adj, n)
	for u := range g.adj {
		had := false
		for _, a := range g.adj[u] {
			if a.To == n {
				had = true
			}
		}
		if had {
			g.dropArcTo(u, n)
			inNeighbors = append(inNeighbors, u)
		}
	}
	return inNeighbors
}

// fill is the eager flush: evict what pending mutations dirtied, then
// recompute every missing row. It returns how many rows it recomputed.
func fill(lt *LazyAllPairs, workers int) int {
	lt.Flush()
	missing := lt.Missing(lt.Sources())
	lt.Prefetch(missing, workers)
	return len(missing)
}

// assertMatchesScratch asserts the eager form of lt deep-equals a
// from-scratch table of g, both ways.
func assertMatchesScratch(t *testing.T, lt *LazyAllPairs, g Graph) {
	t.Helper()
	got := lt.Materialize(1)
	want := ComputeAllPairsWorkers(g, 1)
	if !got.Equal(want) || !want.Equal(got) {
		t.Fatalf("maintained table diverged from scratch:\n got sources %v\nwant sources %v",
			got.Sources(), want.Sources())
	}
}

// chainGraph builds 1 -> 2 -> 3 -> 4 plus an off-path node 5 -> 1.
func chainGraph() *testGraph {
	g := newTestGraph()
	g.addArc(1, 2, 100, 10)
	g.addArc(2, 3, 100, 10)
	g.addArc(3, 4, 100, 10)
	g.addArc(5, 1, 100, 10)
	return g
}

// filledTable returns a table over g with every row computed, as an eager
// session holds it between flushes.
func filledTable(g Graph) *LazyAllPairs {
	lt := NewLazyAllPairs(g, nil)
	fill(lt, 1)
	return lt
}

func TestIncrementalDirtySetIsExactlyTheReachers(t *testing.T) {
	g := chainGraph()
	lt := filledTable(g)
	// A change on Out(3) can affect only sources that reach 3: 1, 2, 3, 5.
	// Node 4 (no out-arcs to 3) must not be recomputed.
	g.setArc(3, 4, 50, 20)
	lt.OutChanged(3)
	if got, want := lt.Missing(g.Nodes()), []int{1, 2, 3, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("dirty = %v, want %v", got, want)
	}
	if n := fill(lt, 1); n != 4 {
		t.Fatalf("flush recomputed %d sources, want 4", n)
	}
	assertMatchesScratch(t, lt, g)
	// Sink-side change: Out(4) gains an arc; source 4 itself plus everything
	// that reaches 4 goes dirty, but nothing else.
	g.addArc(4, 5, 10, 1)
	lt.OutChanged(4)
	if got, want := lt.Missing(g.Nodes()), []int{1, 2, 3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("dirty = %v, want %v", got, want)
	}
	fill(lt, 1)
	assertMatchesScratch(t, lt, g)
}

func TestIncrementalNodeLifecycle(t *testing.T) {
	g := chainGraph()
	lt := filledTable(g)

	// Join: the new node needs its own run; links arrive as OutChanged.
	g.addNode(9)
	lt.NodeAdded(9)
	g.addArc(9, 2, 80, 5)
	lt.OutChanged(9)
	g.addArc(4, 9, 80, 5)
	lt.OutChanged(4)
	if got := lt.Missing(g.Nodes()); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 5, 9}) {
		t.Fatalf("dirty after join = %v, want every reacher of 4 plus the joined 9", got)
	}
	fill(lt, 1)
	assertMatchesScratch(t, lt, g)

	// Leave: in-neighbors' out-lists shrink, sources that reached it redo.
	ins := g.removeNode(2)
	for _, u := range ins {
		lt.OutChanged(u)
	}
	lt.NodeRemoved(2)
	fill(lt, 1)
	assertMatchesScratch(t, lt, g)
	if got := lt.ComputedRows(); !reflect.DeepEqual(got, g.Nodes()) {
		t.Fatalf("rows after leave = %v, want exactly the nodes %v", got, g.Nodes())
	}
}

func TestIncrementalDirtySourceRemovedBeforeFlush(t *testing.T) {
	g := chainGraph()
	lt := filledTable(g)
	// Dirty node 5 (it reaches everything), then remove it before flushing:
	// the flush must drop it, not recompute it.
	g.setArc(1, 2, 42, 7)
	lt.OutChanged(1)
	ins := g.removeNode(5)
	for _, u := range ins {
		lt.OutChanged(u)
	}
	lt.NodeRemoved(5)
	if got := lt.Missing(g.Nodes()); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("dirty = %v, want [1]: the departed 5 is dropped, not recomputed", got)
	}
	if n := fill(lt, 1); n != 1 {
		t.Fatalf("flush recomputed %d sources, want 1", n)
	}
	assertMatchesScratch(t, lt, g)
}

func TestIncrementalAddedThenRemovedBeforeFlush(t *testing.T) {
	g := chainGraph()
	lt := filledTable(g)
	g.addNode(7)
	lt.NodeAdded(7)
	g.removeNode(7)
	lt.NodeRemoved(7)
	if got := lt.Missing(g.Nodes()); len(got) != 0 {
		t.Fatalf("dirty = %v for a node that came and went", got)
	}
	if n := fill(lt, 1); n != 0 {
		t.Fatalf("flush recomputed %d sources for a node that came and went", n)
	}
	assertMatchesScratch(t, lt, g)
}

// TestIncrementalRandomTraceAllWorkerCounts drives random mutations against
// the reverse-dependency bookkeeping at several fill fan-outs; every fill
// must land byte-identical to the sequential scratch table.
func TestIncrementalRandomTraceAllWorkerCounts(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		rng := rand.New(rand.NewSource(int64(37 + workers)))
		g := randomGraph(rng, 16, 0.25)
		lt := filledTable(g)
		next := 100
		steps := 300
		if testing.Short() {
			steps = 80
		}
		for i := 0; i < steps; i++ {
			nodes := g.Nodes()
			switch rng.Intn(4) {
			case 0: // re-weight or add an arc
				u := nodes[rng.Intn(len(nodes))]
				v := nodes[rng.Intn(len(nodes))]
				if u == v {
					continue
				}
				g.setArc(u, v, 1+rng.Int63n(100), rng.Int63n(50))
				lt.OutChanged(u)
			case 1: // drop an arc
				u := nodes[rng.Intn(len(nodes))]
				if len(g.adj[u]) == 0 {
					continue
				}
				v := g.adj[u][rng.Intn(len(g.adj[u]))].To
				g.dropArcTo(u, v)
				lt.OutChanged(u)
			case 2: // add a node with one arc each way
				n := next
				next++
				g.addNode(n)
				lt.NodeAdded(n)
				peer := nodes[rng.Intn(len(nodes))]
				g.setArc(n, peer, 1+rng.Int63n(100), rng.Int63n(50))
				lt.OutChanged(n)
				peer = nodes[rng.Intn(len(nodes))]
				if peer != n {
					g.setArc(peer, n, 1+rng.Int63n(100), rng.Int63n(50))
					lt.OutChanged(peer)
				}
			case 3: // remove a node
				if len(nodes) <= 4 {
					continue
				}
				n := nodes[rng.Intn(len(nodes))]
				for _, u := range g.removeNode(n) {
					lt.OutChanged(u)
				}
				lt.NodeRemoved(n)
			}
			if i%5 == 0 {
				fill(lt, workers)
				if got := lt.ComputedRows(); !reflect.DeepEqual(got, g.Nodes()) {
					t.Fatalf("workers=%d step %d: rows %v after fill, want %v", workers, i, got, g.Nodes())
				}
				assertMatchesScratch(t, lt, g)
			}
		}
		fill(lt, workers)
		assertMatchesScratch(t, lt, g)
	}
}

func TestAllPairsEqual(t *testing.T) {
	g := chainGraph()
	a := ComputeAllPairsWorkers(g, 1)
	b := ComputeAllPairsWorkers(g, 1)
	if !a.Equal(b) {
		t.Fatal("identical tables compare unequal")
	}
	// Different metric.
	h := chainGraph()
	h.setArc(1, 2, 99, 10)
	if a.Equal(ComputeAllPairsWorkers(h, 1)) {
		t.Fatal("tables with different metrics compare equal")
	}
	// Same metrics, different selected path: two equal-quality routes.
	p1 := newTestGraph()
	p1.addArc(1, 2, 10, 5)
	p1.addArc(2, 4, 10, 5)
	p1.addArc(1, 3, 10, 5)
	p1.addArc(3, 4, 10, 5)
	p2 := newTestGraph()
	p2.addArc(1, 3, 10, 5)
	p2.addArc(3, 4, 10, 5)
	ap1 := ComputeAllPairsWorkers(p1, 1)
	ap2 := ComputeAllPairsWorkers(p2, 1)
	if ap1.Equal(ap2) {
		t.Fatal("tables over different graphs compare equal")
	}
	// Different source sets.
	i := chainGraph()
	i.addNode(42)
	if a.Equal(ComputeAllPairsWorkers(i, 1)) {
		t.Fatal("tables with different source sets compare equal")
	}
}

// TestSnapshotIsImmutableUnderFlushes: the eager form Materialize publishes
// keeps answering from the graph as of publication while the table it came
// from evicts and refills under later mutations.
func TestSnapshotIsImmutableUnderFlushes(t *testing.T) {
	g := newTestGraph()
	for i := 0; i < 7; i++ {
		g.addArc(i, i+1, int64(100-i), int64(10*(i+1)))
	}

	lt := filledTable(g)
	snap := lt.Materialize(1)
	want := ComputeAllPairs(g)
	if !snap.Equal(want) {
		t.Fatalf("snapshot does not equal a from-scratch table before mutation")
	}

	// Mutate: cut the chain in the middle and flush the live table.
	g.dropArcTo(3, 4)
	lt.OutChanged(3)
	fill(lt, 1)

	// The live table moved on...
	if lt.Metric(0, 7).Reachable() {
		t.Fatalf("live table still routes across the removed arc")
	}
	// ...but the snapshot still answers from the pre-mutation world.
	if !snap.Equal(want) {
		t.Fatalf("snapshot changed under a later flush")
	}
	if m := snap.Metric(0, 7); !m.Reachable() {
		t.Fatalf("snapshot lost reachability it had at capture time")
	}
}

// TestSnapshotSharesImmutableResults: publication is a shallow copy — the
// eager form shares the table's immutable *Result rows, but not the map that
// holds them.
func TestSnapshotSharesImmutableResults(t *testing.T) {
	g := newTestGraph()
	for i := 0; i < 4; i++ {
		g.addArc(i, i+1, 100, 10)
	}
	lt := filledTable(g)
	ap := lt.Materialize(1)
	for _, src := range ap.Sources() {
		if ap.From(src) != lt.From(src) {
			t.Fatalf("publication deep-copied source %d; expected shared immutable *Result", src)
		}
	}
	// The maps themselves must be distinct.
	delete(ap.results, 0)
	if lt.Materialize(1).From(0) == nil {
		t.Fatalf("publication shares its results map with the table")
	}
}

// TestLazyMaterializeCountsNoHits: publishing an already computed table
// copies the rows without counting hits or running kernels, and a partly
// computed table runs the kernel once per missing row only.
func TestLazyMaterializeCountsNoHits(t *testing.T) {
	g := chainGraph()
	lt := filledTable(g)
	before := lt.Stats()
	lt.Materialize(2)
	if after := lt.Stats(); after != before {
		t.Fatalf("materializing a full table moved stats from %+v to %+v", before, after)
	}
	g.setArc(3, 4, 50, 20)
	lt.OutChanged(3) // dirties 1, 2, 3, 5
	lt.Materialize(2)
	if after := lt.Stats(); after.Computed != before.Computed+4 || after.Hits != before.Hits {
		t.Fatalf("refill moved stats from %+v to %+v, want 4 kernels and no hits", before, after)
	}
}

// TestLazyRefreezeReusesUnpinnedStorage pins the storage guard: a re-freeze
// reuses the frozen graph's arrays, unless a snapshot still routes on them.
func TestLazyRefreezeReusesUnpinnedStorage(t *testing.T) {
	g := chainGraph()
	lt := filledTable(g)
	frozen := lt.frozen
	g.setArc(3, 4, 50, 20)
	lt.OutChanged(3)
	fill(lt, 1)
	if lt.frozen != frozen {
		t.Fatal("re-freeze without a snapshot allocated a fresh graph")
	}
	snap := lt.Snapshot()
	want := ComputeAllPairsWorkers(g, 1)
	g.setArc(1, 2, 7, 70)
	lt.OutChanged(1)
	fill(lt, 1)
	if lt.frozen == frozen {
		t.Fatal("re-freeze overwrote the arrays a snapshot routes on")
	}
	// Rows the snapshot computes only now still see its own graph.
	snap.rows = map[int]*lazyRow{}
	if !TablesEqual(snap, want) {
		t.Fatal("snapshot diverged from the graph as of the snapshot")
	}
	assertMatchesScratch(t, lt, g)
}

// TestScratchListSurvivesGC: the scratch free list keeps returned buffers
// across garbage collections, up to GOMAXPROCS of them.
func TestScratchListSurvivesGC(t *testing.T) {
	var f scratchList
	sc := f.get()
	f.put(sc)
	runtime.GC()
	runtime.GC()
	if f.get() != sc {
		t.Fatal("scratch did not survive a GC cycle")
	}
	for i := 0; i < runtime.GOMAXPROCS(0)+3; i++ {
		f.put(NewScratch())
	}
	if got := len(f.free); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("free list holds %d scratches, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
}
