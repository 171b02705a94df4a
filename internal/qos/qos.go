// Package qos implements quality-of-service routing on weighted directed
// graphs, specifically the shortest-widest path algorithm of Wang and
// Crowcroft (JSAC 1996) that the paper adopts: among all paths, select the
// one with the greatest bottleneck bandwidth (the widest path), and among
// equally wide paths, the one with the smallest total latency (the shortest).
//
// The computation is two-phase, as in the original algorithm. A single
// lexicographic Dijkstra is not correct here: a prefix that is narrower but
// much shorter can still yield the shortest path among the widest ones when a
// later link lowers the bottleneck anyway. Phase one is a max-bottleneck
// Dijkstra that finds each node's achievable width; phase two is a
// latency-only Dijkstra restricted, per width class, to links at least that
// wide.
//
// Bandwidth is in Kbit/s and latency in microseconds, both int64, so the
// quality order is exact.
package qos

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"sflow/internal/metrics"
)

// InfBandwidth is the bandwidth of the empty path: wider than any link.
const InfBandwidth int64 = math.MaxInt64

// Arc is one weighted out-edge of a graph node.
type Arc struct {
	To        int
	Bandwidth int64 // Kbit/s, must be > 0 for a usable link
	Latency   int64 // microseconds, must be >= 0
}

// Graph is the read-only view of a weighted digraph that routing operates on.
// Nodes must return identifiers in a deterministic order; Out must return the
// out-arcs of a node in a deterministic order.
type Graph interface {
	Nodes() []int
	Out(u int) []Arc
}

// Metric is the quality of a path: bottleneck bandwidth and total latency.
// The zero value (Bandwidth 0) means "unreachable".
type Metric struct {
	Bandwidth int64
	Latency   int64
}

// Unreachable is the metric of a non-existent path.
var Unreachable = Metric{}

// Empty is the metric of the empty path (a node to itself).
var Empty = Metric{Bandwidth: InfBandwidth}

// Reachable reports whether m describes an actual path.
func (m Metric) Reachable() bool { return m.Bandwidth > 0 }

// Better reports whether m is strictly better than o in the shortest-widest
// order: wider wins; at equal width, lower latency wins.
func (m Metric) Better(o Metric) bool {
	if m.Bandwidth != o.Bandwidth {
		return m.Bandwidth > o.Bandwidth
	}
	return m.Latency < o.Latency
}

// Extend returns the metric of a path with quality m extended by one link of
// the given bandwidth and latency.
func (m Metric) Extend(bw, lat int64) Metric {
	return Metric{Bandwidth: min64(m.Bandwidth, bw), Latency: m.Latency + lat}
}

// Concat returns the metric of the concatenation of two paths.
func (m Metric) Concat(o Metric) Metric {
	if !m.Reachable() || !o.Reachable() {
		return Unreachable
	}
	return Metric{Bandwidth: min64(m.Bandwidth, o.Bandwidth), Latency: m.Latency + o.Latency}
}

// Result holds the output of a single-source shortest-widest computation.
type Result struct {
	Source int
	// Dist maps each reachable node to the quality of the shortest-widest
	// path from Source. Unreachable nodes are absent. The map is the
	// Result's own state, not a copy: callers must treat it as read-only
	// (writes would corrupt the result for every other reader, including
	// the incremental maintenance built on top). Prefer the Metric accessor.
	Dist map[int]Metric
	// paths maps each reachable node to the selected concrete path
	// (Source first, node last).
	paths map[int][]int
}

// Metric returns the path quality from the source to dst (Unreachable if
// there is no path).
func (r *Result) Metric(dst int) Metric { return r.Dist[dst] }

// PathTo returns the selected path from the source to dst, inclusive of both
// endpoints. It returns nil if dst is unreachable. The returned slice is a
// copy and is the caller's to keep or modify.
func (r *Result) PathTo(dst int) []int {
	p := r.paths[dst]
	if p == nil {
		return nil
	}
	out := make([]int, len(p))
	copy(out, p)
	return out
}

// instr caches the counter handles of one instrumented routing computation.
// The zero value (nil handles) is the uninstrumented fast path: hot loops
// accumulate into locals and the publishing Adds below are nil-check no-ops.
type instr struct {
	runs, relaxations, fallbacks *metrics.Counter
}

// instrFor resolves the qos counter handles once per computation; reg may be
// nil.
func instrFor(reg *metrics.Registry) instr {
	if reg == nil {
		return instr{}
	}
	return instr{
		runs:        reg.Counter("qos_shortest_widest_runs_total"),
		relaxations: reg.Counter("qos_relaxations_total"),
		fallbacks:   reg.Counter("qos_phase2_fallbacks_total"),
	}
}

// ShortestWidest computes shortest-widest paths from src to every node of g.
// Arcs with non-positive bandwidth are ignored.
func ShortestWidest(g Graph, src int) *Result {
	return shortestWidest(g, src, instr{})
}

// ShortestWidestMetrics is ShortestWidest with instrumentation: Dijkstra arc
// relaxations and phase-2 fallback activations are counted into reg (nil reg
// disables the accounting).
func ShortestWidestMetrics(g Graph, src int, reg *metrics.Registry) *Result {
	return shortestWidest(g, src, instrFor(reg))
}

func shortestWidest(g Graph, src int, ins instr) *Result {
	res := &Result{
		Source: src,
		Dist:   map[int]Metric{src: Empty},
		paths:  map[int][]int{src: {src}},
	}
	var relaxed, fallbacks int64

	// Phase 1: maximum bottleneck bandwidth to every node.
	width, wprev := widestDijkstra(g, src, &relaxed)

	// Group nodes by achievable width; one phase-2 run per distinct width.
	byWidth := make(map[int64][]int)
	for n, w := range width {
		if n == src {
			continue
		}
		byWidth[w] = append(byWidth[w], n)
	}
	widths := make([]int64, 0, len(byWidth))
	for w := range byWidth {
		widths = append(widths, w)
	}
	sort.Slice(widths, func(i, j int) bool { return widths[i] > widths[j] })

	// Phase 2: for each width class w, find minimum-latency paths using
	// only links of bandwidth >= w; nodes whose widest width is exactly w
	// take their final answer from this run.
	for _, w := range widths {
		lat, prev := latencyDijkstra(g, src, w, &relaxed)
		for _, n := range byWidth[w] {
			if l, ok := lat[n]; ok {
				res.Dist[n] = Metric{Bandwidth: w, Latency: l}
				res.paths[n] = rebuild(prev, src, n)
				continue
			}
			// Phase 2 missed a node phase 1 reached. For a Graph
			// honouring its read-only contract this cannot happen —
			// the widest path itself uses only links >= w — but an
			// implementation whose Out answers drift between phases
			// would otherwise see the node silently dropped, i.e.
			// falsely reported unreachable. Fall back to the phase-1
			// widest-tree path with a latency recomputed along it.
			fallbacks++
			path := rebuild(wprev, src, n)
			l, ok := pathLatency(g, path, w)
			if !ok {
				// The path itself is gone too; the node really is
				// unreachable on the graph as currently reported.
				continue
			}
			res.Dist[n] = Metric{Bandwidth: w, Latency: l}
			res.paths[n] = path
		}
	}
	ins.runs.Inc()
	ins.relaxations.Add(relaxed)
	ins.fallbacks.Add(fallbacks)
	return res
}

// pathLatency sums per-hop latencies along path, preferring at each hop the
// fastest arc at least minBW wide and falling back to the fastest usable arc
// of any width. It reports false if some hop has no usable arc at all.
func pathLatency(g Graph, path []int, minBW int64) (int64, bool) {
	var total int64
	for i := 0; i+1 < len(path); i++ {
		var (
			found, foundWide bool
			best, bestWide   int64
		)
		for _, a := range g.Out(path[i]) {
			if a.To != path[i+1] || a.Bandwidth <= 0 {
				continue
			}
			if !found || a.Latency < best {
				found, best = true, a.Latency
			}
			if a.Bandwidth >= minBW && (!foundWide || a.Latency < bestWide) {
				foundWide, bestWide = true, a.Latency
			}
		}
		switch {
		case foundWide:
			total += bestWide
		case found:
			total += best
		default:
			return 0, false
		}
	}
	return total, true
}

// widestDijkstra returns the maximum bottleneck bandwidth from src to every
// reachable node, plus the predecessor map of the widest tree. The source
// maps to InfBandwidth. Every arc relaxation attempt is tallied into relaxed.
func widestDijkstra(g Graph, src int, relaxed *int64) (map[int]int64, map[int]int) {
	width := map[int]int64{src: InfBandwidth}
	prev := make(map[int]int)
	done := make(map[int]bool)
	h := &nodeHeap{better: func(a, b heapEntry) bool {
		if a.key != b.key {
			return a.key > b.key // wider first
		}
		return a.node < b.node
	}}
	h.push(heapEntry{node: src, key: InfBandwidth})
	for h.len() > 0 {
		e := h.pop()
		if done[e.node] || width[e.node] != e.key {
			continue
		}
		done[e.node] = true
		for _, a := range g.Out(e.node) {
			if a.Bandwidth <= 0 || done[a.To] {
				continue
			}
			*relaxed++
			cand := min64(e.key, a.Bandwidth)
			if cur, ok := width[a.To]; !ok || cand > cur {
				width[a.To] = cand
				prev[a.To] = e.node
				h.push(heapEntry{node: a.To, key: cand})
			}
		}
	}
	return width, prev
}

// latencyDijkstra returns minimum total latency from src using only arcs with
// bandwidth >= minBW, plus the predecessor map for path reconstruction. Every
// arc relaxation attempt is tallied into relaxed.
func latencyDijkstra(g Graph, src int, minBW int64, relaxed *int64) (map[int]int64, map[int]int) {
	lat := map[int]int64{src: 0}
	prev := make(map[int]int)
	done := make(map[int]bool)
	h := &nodeHeap{better: func(a, b heapEntry) bool {
		if a.key != b.key {
			return a.key < b.key // shorter first
		}
		return a.node < b.node
	}}
	h.push(heapEntry{node: src, key: 0})
	for h.len() > 0 {
		e := h.pop()
		if done[e.node] || lat[e.node] != e.key {
			continue
		}
		done[e.node] = true
		for _, a := range g.Out(e.node) {
			if a.Bandwidth < minBW || a.Bandwidth <= 0 || done[a.To] {
				continue
			}
			*relaxed++
			cand := e.key + a.Latency
			if cur, ok := lat[a.To]; !ok || cand < cur {
				lat[a.To] = cand
				prev[a.To] = e.node
				h.push(heapEntry{node: a.To, key: cand})
			}
		}
	}
	return lat, prev
}

func rebuild(prev map[int]int, src, dst int) []int {
	var rev []int
	for n := dst; ; {
		rev = append(rev, n)
		if n == src {
			break
		}
		n = prev[n]
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// ShortestLatency computes minimum-latency paths from src, the metric an
// IP-style underlay actually routes by. The returned metrics carry the
// bottleneck bandwidth of the selected minimum-latency path — which is NOT
// in general the widest available, exactly the gap QoS routing exploits.
func ShortestLatency(g Graph, src int) *Result {
	var relaxed int64
	lat, prev := latencyDijkstra(g, src, 1, &relaxed)
	res := &Result{
		Source: src,
		Dist:   make(map[int]Metric, len(lat)),
		paths:  make(map[int][]int, len(lat)),
	}
	for n := range lat {
		path := rebuild(prev, src, n)
		width := InfBandwidth
		for i := 0; i+1 < len(path); i++ {
			if bw := arcBandwidth(g, path[i], path[i+1]); bw < width {
				width = bw
			}
		}
		res.Dist[n] = Metric{Bandwidth: width, Latency: lat[n]}
		res.paths[n] = path
	}
	return res
}

// arcBandwidth returns the bandwidth of the lowest-latency (then widest) arc
// from u to v.
func arcBandwidth(g Graph, u, v int) int64 {
	var (
		found   bool
		bestLat int64
		bestBW  int64
	)
	for _, a := range g.Out(u) {
		if a.To != v || a.Bandwidth <= 0 {
			continue
		}
		if !found || a.Latency < bestLat || (a.Latency == bestLat && a.Bandwidth > bestBW) {
			found, bestLat, bestBW = true, a.Latency, a.Bandwidth
		}
	}
	if !found {
		return 0
	}
	return bestBW
}

// AllPairs holds shortest-widest results from every node of a graph.
type AllPairs struct {
	results map[int]*Result
}

// Equal reports whether two all-pairs tables are deeply equal: same sources,
// and per source the same reachable set, metrics and selected paths.
func (ap *AllPairs) Equal(o *AllPairs) bool { return TablesEqual(ap, o) }

// parallelAllPairsMin is the node count below which the default
// ComputeAllPairs stays sequential: per-source runs on tiny graphs (the
// two-hop local views of the distributed protocol, mostly) finish faster
// than goroutine fan-out costs.
const parallelAllPairsMin = 24

// ComputeAllPairs runs ShortestWidest from every node of g. The paper's
// baseline algorithm starts with exactly this computation. The graph is
// frozen once into CSR form and every per-source run uses the dense kernels
// of dense.go with a per-worker reusable Scratch — byte-identical to the
// map-based reference (ComputeAllPairsRef) at any worker count. Large graphs
// are fanned out over runtime.GOMAXPROCS(0) workers; the result is identical
// to the sequential computation at any worker count, since every per-source
// run is independent and results are assembled in node order after all
// workers join. g must be safe for concurrent reads during the freeze (true
// for every implementation in this module: Nodes/Out only read prebuilt
// state); workers afterwards only touch the frozen snapshot.
func ComputeAllPairs(g Graph) *AllPairs {
	return computeAllPairs(g, 0, true, instr{})
}

// ComputeAllPairsWorkers is ComputeAllPairs with an explicit worker count:
// workers <= 0 means runtime.GOMAXPROCS(0), 1 forces the sequential
// computation, anything larger fans the per-source runs out over that many
// goroutines even on small graphs.
func ComputeAllPairsWorkers(g Graph, workers int) *AllPairs {
	return computeAllPairs(g, workers, false, instr{})
}

// ComputeAllPairsMetrics is ComputeAllPairs with instrumentation into reg
// (nil reg disables it). Counter totals are sums over deterministic
// per-source runs, so they are identical at any worker count.
func ComputeAllPairsMetrics(g Graph, reg *metrics.Registry) *AllPairs {
	return computeAllPairs(g, 0, true, instrFor(reg))
}

// ComputeAllPairsWorkersMetrics is ComputeAllPairsWorkers with
// instrumentation into reg (nil reg disables it).
func ComputeAllPairsWorkersMetrics(g Graph, workers int, reg *metrics.Registry) *AllPairs {
	return computeAllPairs(g, workers, false, instrFor(reg))
}

func computeAllPairs(g Graph, workers int, auto bool, ins instr) *AllPairs {
	nodes := g.Nodes()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if auto && len(nodes) < parallelAllPairsMin {
		workers = 1
	}
	if workers > len(nodes) {
		workers = len(nodes)
	}
	cg := FreezeGraph(g)
	ap := &AllPairs{results: make(map[int]*Result, len(nodes))}
	if workers <= 1 {
		sc := NewScratch()
		for _, n := range nodes {
			idx, _ := cg.Index(n)
			ap.results[n] = shortestWidestDense(cg, idx, sc, ins)
		}
		return ap
	}
	perSource := make([]*Result, len(nodes))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			sc := NewScratch()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(nodes) {
					return
				}
				idx, _ := cg.Index(nodes[i])
				perSource[i] = shortestWidestDense(cg, idx, sc, ins)
			}
		}()
	}
	wg.Wait()
	for i, n := range nodes {
		ap.results[n] = perSource[i]
	}
	return ap
}

// ComputeAllPairsRef is the sequential map-based reference implementation of
// ComputeAllPairs, retained as the correctness oracle for the CSR hot path:
// the equivalence tests pin the dense engine byte-identical to it — same
// distance tables, same selected paths, same instrumentation counts.
func ComputeAllPairsRef(g Graph) *AllPairs {
	nodes := g.Nodes()
	ap := &AllPairs{results: make(map[int]*Result, len(nodes))}
	for _, n := range nodes {
		ap.results[n] = shortestWidest(g, n, instr{})
	}
	return ap
}

// Metric returns the shortest-widest quality from src to dst.
func (ap *AllPairs) Metric(src, dst int) Metric {
	r, ok := ap.results[src]
	if !ok {
		return Unreachable
	}
	return r.Metric(dst)
}

// Path returns the selected shortest-widest path from src to dst (nil if
// unreachable).
func (ap *AllPairs) Path(src, dst int) []int {
	r, ok := ap.results[src]
	if !ok {
		return nil
	}
	return r.PathTo(dst)
}

// From returns the single-source result rooted at src (nil if src was not a
// node of the graph the all-pairs run saw).
func (ap *AllPairs) From(src int) *Result { return ap.results[src] }

// Sources returns the sources for which results exist, ascending.
func (ap *AllPairs) Sources() []int {
	out := make([]int, 0, len(ap.results))
	for n := range ap.results {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// heapEntry is one entry of nodeHeap; key is either a width (maximised) or a
// latency (minimised) depending on the heap's comparator.
type heapEntry struct {
	node int
	key  int64
}

// nodeHeap is a binary heap with a pluggable strict order, breaking full ties
// by node id inside the comparator for determinism.
type nodeHeap struct {
	a      []heapEntry
	better func(a, b heapEntry) bool
}

func (h *nodeHeap) len() int { return len(h.a) }

func (h *nodeHeap) push(x heapEntry) {
	h.a = append(h.a, x)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.better(h.a[i], h.a[p]) {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *nodeHeap) pop() heapEntry {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h.a) && h.better(h.a[l], h.a[best]) {
			best = l
		}
		if r < len(h.a) && h.better(h.a[r], h.a[best]) {
			best = r
		}
		if best == i {
			break
		}
		h.a[i], h.a[best] = h.a[best], h.a[i]
		i = best
	}
	return top
}
