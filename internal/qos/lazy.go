// Lazy, demand-driven all-pairs shortest-widest routing.
//
// ComputeAllPairs runs one Dijkstra per source and materializes the full N²
// table, which walls the system off from large overlays: the federation
// algorithms on top only ever read the rows of instances that populate a
// requirement's service slots — typically a few dozen sources out of tens of
// thousands. LazyAllPairs serves the same read interface row by row, on
// demand: a row is computed by the dense CSR kernels the first time any
// reader asks for it, memoized, and — because shortestWidest(g, s) is a pure
// function of the out-arc lists it actually reads — stays valid until a
// mutation touches a node the row's run read. Tracking, per node, the sources
// whose row read it (the reverse-dependency "readers" index) turns a mutation
// into an exact eviction set: OutChanged(u) evicts precisely the materialized
// rows whose sources reach u, rows nobody materialized cost nothing to
// invalidate, and recomputing the evicted rows reproduces the from-scratch
// table bit for bit, selected paths included.
//
// This is the module's only routing-table maintenance path. An eager session
// runs the same table and, after each Flush, fills every missing row (see
// Materialize), so its table always equals ComputeAllPairs.
//
// Concurrency: the read methods (Metric, Path, From, Sources, Missing,
// Prefetch, Materialize) are safe for any number of concurrent readers; a
// per-source single-flight latch guarantees that concurrent requests for the
// same uncomputed row run the kernel exactly once and share the one Result.
// The mutation methods (OutChanged, NodeAdded, NodeRemoved, Flush) are
// single-writer: they must be serialized with each other AND with reads of
// the live table — which is what session.Session's one-goroutine contract and
// the daemon's RCU epochs already provide (concurrent readers only ever touch
// immutable Snapshots).
package qos

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"sflow/internal/csr"
	"sflow/internal/metrics"
)

// Table is the read interface over an all-pairs shortest-widest computation —
// what the abstract-graph builder and the Solve registry actually consume.
// Both the eager *AllPairs and the demand-driven *LazyAllPairs implement it,
// and for every row read the two are byte-identical (selected paths and
// instrumentation included), which the scale-equivalence battery pins.
type Table interface {
	// Metric returns the shortest-widest quality from src to dst.
	Metric(src, dst int) Metric
	// Path returns the selected shortest-widest path from src to dst (nil
	// if unreachable). The returned slice is the caller's to keep.
	Path(src, dst int) []int
	// From returns the single-source result rooted at src (nil if src is
	// not a node of the graph).
	From(src int) *Result
	// Sources returns the sources the table covers, ascending.
	Sources() []int
}

var (
	_ Table = (*AllPairs)(nil)
	_ Table = (*LazyAllPairs)(nil)
)

// TablesEqual reports whether two tables answer identically: same sources,
// and per source the same reachable set, metrics and selected paths. It reads
// every row of both tables, materializing lazy ones — an equivalence-test
// helper, not a hot-path operation.
func TablesEqual(a, b Table) bool {
	as, bs := a.Sources(), b.Sources()
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	for _, src := range as {
		ra, rb := a.From(src), b.From(src)
		if (ra == nil) != (rb == nil) {
			return false
		}
		if ra == nil {
			continue
		}
		if len(ra.Dist) != len(rb.Dist) {
			return false
		}
		for dst, m := range ra.Dist {
			om, ok := rb.Dist[dst]
			if !ok || m != om {
				return false
			}
			p, op := ra.paths[dst], rb.paths[dst]
			if len(p) != len(op) {
				return false
			}
			for i := range p {
				if p[i] != op[i] {
					return false
				}
			}
		}
	}
	return true
}

// scratchList is a free list of dense-kernel Scratches. Unlike a sync.Pool it
// survives garbage collection, so a table that reads a burst of rows once per
// GC cycle (an eager session flushing between solves) keeps reusing warm
// buffers instead of growing fresh ones. It keeps at most GOMAXPROCS
// Scratches; returns beyond that are dropped.
type scratchList struct {
	mu   sync.Mutex
	free []*Scratch
}

func (f *scratchList) get() *Scratch {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.free); n > 0 {
		sc := f.free[n-1]
		f.free = f.free[:n-1]
		return sc
	}
	return NewScratch()
}

func (f *scratchList) put(sc *Scratch) {
	f.mu.Lock()
	if len(f.free) < runtime.GOMAXPROCS(0) {
		f.free = append(f.free, sc)
	}
	f.mu.Unlock()
}

// lazyRow is the single-flight latch of one memoized row: the goroutine that
// created the row computes res (published under the table mutex) and marks
// done; everyone else waits on done.
type lazyRow struct {
	done sync.WaitGroup
	res  *Result
}

// lruNode is one completed row's position in the recency list (most recent at
// head). Nodes live outside lazyRow because snapshots share row pointers with
// their parent but keep independent recency state.
type lruNode struct {
	src        int
	prev, next *lruNode
}

// LazyOptions configures a LazyAllPairs beyond the graph it reads.
type LazyOptions struct {
	// Metrics, when non-nil, receives qos_lazy_* counters alongside the
	// usual routing instrumentation.
	Metrics *metrics.Registry
	// MaxRows bounds how many completed rows stay memoized; <= 0 means
	// unbounded. When a row completes and the bound is exceeded, the least
	// recently read completed rows are evicted (readers-index entries
	// included) — an evicted row simply recomputes, byte-identically, on its
	// next read. Rows still in flight never count against the bound.
	MaxRows int
}

// LazyStats is a point-in-time summary of what a LazyAllPairs did, for tests
// and capacity planning.
type LazyStats struct {
	// Computed counts kernel executions (rows actually computed).
	Computed int64
	// Hits counts reads served from an already-memoized row.
	Hits int64
	// DedupWaits counts reads that found another goroutine's computation of
	// the same row in flight and waited for it instead of running the kernel
	// again.
	DedupWaits int64
	// Evicted counts rows invalidated by mutations.
	Evicted int64
	// LRUEvicted counts rows dropped by the MaxRows bound (distinct from
	// mutation-driven eviction above).
	LRUEvicted int64
}

// LazyAllPairs is the demand-driven Table: rows materialize on first read and
// are evicted exactly when a mutation could change them. See the package
// comment above for the concurrency contract.
type LazyAllPairs struct {
	mu sync.Mutex
	// g is the live graph rows are (re-)frozen from; nil for pinned
	// snapshots, which can never go stale.
	g      Graph
	frozen *csr.Graph
	// nodes is the frozen graph's node set, ascending.
	nodes []int
	// pinned records that a Snapshot shares frozen and nodes: the next
	// re-freeze then allocates fresh arrays instead of reusing them.
	pinned bool
	// rows holds the memoized (or in-flight) per-source results.
	rows map[int]*lazyRow
	// readers maps node u -> sources whose materialized row read Out(u):
	// exactly the rows to evict when Out(u) changes.
	readers map[int]map[int]struct{}
	// dirty accumulates sources to evict at the next flush (explicit or
	// read-triggered); stale marks the frozen graph for re-freeze.
	dirty map[int]struct{}
	stale bool

	// maxRows bounds the completed rows kept memoized (<= 0 unbounded); lru
	// tracks their recency, most recent at lruHead. Every completed row is in
	// lru when the bound is active; in-flight rows never are.
	maxRows          int
	lru              map[int]*lruNode
	lruHead, lruTail *lruNode

	// scratches shares dense-kernel scratch buffers between concurrent row
	// computations; shared with snapshots (Scratch use is exclusive while
	// checked out).
	scratches *scratchList

	ins instr

	computed   atomic.Int64
	hits       atomic.Int64
	dedupWaits atomic.Int64
	evicted    atomic.Int64
	lruEvicted atomic.Int64

	rowsComputed, rowHits, dedups, evictions, lruEvictions *metrics.Counter
}

// NewLazyAllPairs returns a demand-driven table over g with an unbounded row
// cache. No routing runs until the first row is read. reg, when non-nil,
// receives qos_lazy_* counters alongside the usual routing instrumentation.
func NewLazyAllPairs(g Graph, reg *metrics.Registry) *LazyAllPairs {
	return NewLazyAllPairsOpts(g, LazyOptions{Metrics: reg})
}

// NewLazyAllPairsOpts is NewLazyAllPairs with the full option set.
func NewLazyAllPairsOpts(g Graph, opts LazyOptions) *LazyAllPairs {
	reg := opts.Metrics
	l := &LazyAllPairs{
		g:         g,
		rows:      make(map[int]*lazyRow),
		readers:   make(map[int]map[int]struct{}),
		dirty:     make(map[int]struct{}),
		stale:     true,
		maxRows:   opts.MaxRows,
		scratches: &scratchList{},
		ins:       instrFor(reg),
	}
	if l.maxRows > 0 {
		l.lru = make(map[int]*lruNode)
	}
	if reg != nil {
		l.rowsComputed = reg.Counter("qos_lazy_rows_computed_total")
		l.rowHits = reg.Counter("qos_lazy_row_hits_total")
		l.dedups = reg.Counter("qos_lazy_dedup_waits_total")
		l.evictions = reg.Counter("qos_lazy_evicted_rows_total")
		l.lruEvictions = reg.Counter("qos_lazy_lru_evicted_rows_total")
	}
	return l
}

// MaxRows returns the configured row-cache bound (<= 0 means unbounded).
func (l *LazyAllPairs) MaxRows() int { return l.maxRows }

// Stats returns what the table has done so far.
func (l *LazyAllPairs) Stats() LazyStats {
	return LazyStats{
		Computed:   l.computed.Load(),
		Hits:       l.hits.Load(),
		DedupWaits: l.dedupWaits.Load(),
		Evicted:    l.evicted.Load(),
		LRUEvicted: l.lruEvicted.Load(),
	}
}

// lruTouchLocked moves src to the head of the recency list, inserting it if
// absent. No-op when the cache is unbounded. Caller holds l.mu.
func (l *LazyAllPairs) lruTouchLocked(src int) {
	if l.maxRows <= 0 {
		return
	}
	n, ok := l.lru[src]
	if ok {
		if n == l.lruHead {
			return
		}
		l.lruUnlinkLocked(n)
	} else {
		n = &lruNode{src: src}
		l.lru[src] = n
	}
	n.prev = nil
	n.next = l.lruHead
	if l.lruHead != nil {
		l.lruHead.prev = n
	}
	l.lruHead = n
	if l.lruTail == nil {
		l.lruTail = n
	}
}

// lruUnlinkLocked removes n from the recency list (not from the lru map).
func (l *LazyAllPairs) lruUnlinkLocked(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.lruHead = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.lruTail = n.prev
	}
	n.prev, n.next = nil, nil
}

// lruDropLocked forgets src's recency state (row eviction by other means).
func (l *LazyAllPairs) lruDropLocked(src int) {
	if n, ok := l.lru[src]; ok {
		l.lruUnlinkLocked(n)
		delete(l.lru, src)
	}
}

// lruEnforceLocked evicts least-recently-read completed rows until the cache
// fits maxRows again. Only completed rows are in the list, so an eviction
// always has a readers registration to undo. Caller holds l.mu.
func (l *LazyAllPairs) lruEnforceLocked() {
	for l.maxRows > 0 && len(l.lru) > l.maxRows {
		victim := l.lruTail
		l.lruUnlinkLocked(victim)
		delete(l.lru, victim.src)
		if row, ok := l.rows[victim.src]; ok {
			delete(l.rows, victim.src)
			if row.res != nil {
				l.unregisterLocked(victim.src, row.res)
			}
		}
		l.lruEvicted.Add(1)
		l.lruEvictions.Inc()
	}
}

// applyPendingLocked evicts the dirty rows and re-freezes a stale graph. The
// caller holds l.mu. Re-freezing reuses the old arrays unless a snapshot
// pinned them (it may still be routing on them).
func (l *LazyAllPairs) applyPendingLocked() {
	for src := range l.dirty {
		if row, ok := l.rows[src]; ok {
			delete(l.rows, src)
			if row.res != nil {
				l.unregisterLocked(src, row.res)
			}
			l.lruDropLocked(src)
			l.evicted.Add(1)
			l.evictions.Inc()
		}
	}
	if len(l.dirty) > 0 {
		l.dirty = make(map[int]struct{})
	}
	if l.stale {
		if l.g != nil {
			if l.pinned {
				l.frozen, l.nodes, l.pinned = nil, nil, false
			}
			l.frozen = FreezeGraphInto(l.frozen, l.g)
			l.nodes = append(l.nodes[:0], l.g.Nodes()...)
			sort.Ints(l.nodes)
		}
		l.stale = false
	}
}

// registerLocked adds src to the readers set of every node its row reached.
func (l *LazyAllPairs) registerLocked(src int, res *Result) {
	for u := range res.Dist {
		set, ok := l.readers[u]
		if !ok {
			set = make(map[int]struct{})
			l.readers[u] = set
		}
		set[src] = struct{}{}
	}
}

// unregisterLocked removes src from the readers set of every node its row
// reached. An emptied set stays in the index: an eager fill evicts a whole
// dirty set before re-registering it, and regrowing every set from empty
// would allocate again what the eviction just released.
func (l *LazyAllPairs) unregisterLocked(src int, res *Result) {
	for u := range res.Dist {
		delete(l.readers[u], src)
	}
}

// From returns the memoized row of src, computing it on first read. Rows are
// byte-identical to the corresponding ComputeAllPairs row: same frozen-CSR
// kernels, same deterministic settle order. It returns nil for a source the
// graph does not know — exactly what the eager table answers.
func (l *LazyAllPairs) From(src int) *Result {
	l.mu.Lock()
	l.applyPendingLocked()
	if l.frozen == nil {
		l.mu.Unlock()
		return nil
	}
	idx, ok := l.frozen.Index(src)
	if !ok {
		l.mu.Unlock()
		return nil
	}
	if row, ok := l.rows[src]; ok {
		if row.res != nil {
			// Completed row: a hit, and the freshest entry of the LRU list.
			l.lruTouchLocked(src)
			l.mu.Unlock()
			l.hits.Add(1)
			l.rowHits.Inc()
			return row.res
		}
		// In flight: wait for the computing goroutine's result. res is
		// published under l.mu before done is marked, so the read below is
		// ordered by the Wait.
		l.mu.Unlock()
		l.dedupWaits.Add(1)
		l.dedups.Inc()
		row.done.Wait()
		return row.res
	}
	row := &lazyRow{}
	row.done.Add(1)
	l.rows[src] = row
	frozen := l.frozen
	l.mu.Unlock()

	sc := l.scratches.get()
	res := shortestWidestDense(frozen, idx, sc, l.ins)
	l.scratches.put(sc)

	l.mu.Lock()
	row.res = res
	// The row may have been evicted while computing (only possible for a
	// mutation racing a read, which the single-writer contract forbids on
	// the live table; be defensive anyway): register only if still current.
	// Registration, recency and the MaxRows bound move in one critical
	// section, so no reader can observe a row outside the bound.
	if l.rows[src] == row {
		l.registerLocked(src, res)
		l.lruTouchLocked(src)
		l.lruEnforceLocked()
	}
	l.mu.Unlock()
	row.done.Done()
	l.computed.Add(1)
	l.rowsComputed.Inc()
	return res
}

// Metric returns the shortest-widest quality from src to dst, computing the
// src row on first read.
func (l *LazyAllPairs) Metric(src, dst int) Metric {
	r := l.From(src)
	if r == nil {
		return Unreachable
	}
	return r.Metric(dst)
}

// Path returns the selected shortest-widest path from src to dst (nil if
// unreachable), computing the src row on first read. The returned slice is a
// copy: callers cannot alias the memoized row's arena.
func (l *LazyAllPairs) Path(src, dst int) []int {
	r := l.From(src)
	if r == nil {
		return nil
	}
	return r.PathTo(dst)
}

// Sources returns every source the table covers — all current graph nodes,
// ascending, whether or not their rows have materialized.
func (l *LazyAllPairs) Sources() []int {
	l.mu.Lock()
	l.applyPendingLocked()
	nodes := l.nodes
	l.mu.Unlock()
	out := make([]int, len(nodes))
	copy(out, nodes)
	return out
}

// ComputedRows returns the sources whose rows are currently materialized,
// ascending. Test and introspection hook; in-flight rows are included.
func (l *LazyAllPairs) ComputedRows() []int {
	l.mu.Lock()
	out := make([]int, 0, len(l.rows))
	for src := range l.rows {
		out = append(out, src)
	}
	l.mu.Unlock()
	sort.Ints(out)
	return out
}

// OutChanged records that the out-arcs of u changed: every materialized row
// whose source reaches u — and only those — is queued for eviction. Rows
// nobody computed need nothing.
func (l *LazyAllPairs) OutChanged(u int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stale = true
	for src := range l.readers[u] {
		l.dirty[src] = struct{}{}
	}
	// u's own row reads Out(u) by definition.
	if _, ok := l.rows[u]; ok {
		l.dirty[u] = struct{}{}
	}
}

// NodeAdded records that n joined the graph. No row can have reached a node
// with no in-links yet, so nothing is evicted; the next read re-freezes.
func (l *LazyAllPairs) NodeAdded(_ int) {
	l.mu.Lock()
	l.stale = true
	l.mu.Unlock()
}

// NodeRemoved records that n left along with its incident arcs. The caller
// must additionally report OutChanged for every former in-neighbor of n
// (their out-arc lists shrank).
func (l *LazyAllPairs) NodeRemoved(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stale = true
	for src := range l.readers[n] {
		l.dirty[src] = struct{}{}
	}
	if _, ok := l.rows[n]; ok {
		l.dirty[n] = struct{}{}
	}
	delete(l.readers, n)
}

// Dirty returns the materialized sources currently queued for eviction,
// ascending.
func (l *LazyAllPairs) Dirty() []int {
	l.mu.Lock()
	out := make([]int, 0, len(l.dirty))
	for src := range l.dirty {
		out = append(out, src)
	}
	l.mu.Unlock()
	sort.Ints(out)
	return out
}

// Flush applies pending invalidation — evicting dirty rows and re-freezing
// the graph — and returns how many rows were evicted. It runs NO routing:
// evicted rows recompute only if and when someone reads them again (or an
// eager session's fill recomputes them at once).
func (l *LazyAllPairs) Flush() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	before := l.evicted.Load()
	l.applyPendingLocked()
	return int(l.evicted.Load() - before)
}

// Prefetch materializes the rows of srcs that are not yet computed, fanning
// the kernel runs out over the given worker count (<= 0 means GOMAXPROCS).
// Prefetching never changes any answer — rows are byte-identical whether
// computed here or on first demand — it only moves the cost onto more cores.
func (l *LazyAllPairs) Prefetch(srcs []int, workers int) {
	if len(srcs) == 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(srcs) {
		workers = len(srcs)
	}
	if workers <= 1 {
		for _, src := range srcs {
			l.From(src)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(srcs) {
					return
				}
				l.From(srcs[i])
			}
		}()
	}
	wg.Wait()
}

// Missing returns the members of srcs, in order, whose next read runs the
// kernel: rows never computed (or dropped by the MaxRows bound) and rows
// pending invalidation queued for eviction. Rows in flight are not missing.
func (l *LazyAllPairs) Missing(srcs []int) []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []int
	for _, src := range srcs {
		_, queued := l.dirty[src]
		if _, ok := l.rows[src]; !ok || queued {
			out = append(out, src)
		}
	}
	return out
}

// Materialize computes every missing row, fanned out over workers, and
// returns the table in eager form — byte-identical to ComputeAllPairs on the
// current graph. The returned table shares the immutable rows but no mutable
// state, so later mutations never move it: this is how an eager session
// publishes its table. Copying an already-computed row counts no hit.
func (l *LazyAllPairs) Materialize(workers int) *AllPairs {
	srcs := l.Sources()
	l.Prefetch(l.Missing(srcs), workers)
	ap := &AllPairs{results: make(map[int]*Result, len(srcs))}
	var dropped []int
	l.mu.Lock()
	for _, src := range srcs {
		if row, ok := l.rows[src]; ok && row.res != nil {
			ap.results[src] = row.res
		} else {
			dropped = append(dropped, src)
		}
	}
	l.mu.Unlock()
	// A MaxRows bound may have dropped rows the prefetch just computed.
	for _, src := range dropped {
		ap.results[src] = l.From(src)
	}
	return ap
}

// Snapshot pins the current state as an immutable table: the snapshot shares
// the already-computed rows (Results are immutable once published) and the
// frozen CSR graph, but has no live graph reference — later mutations of the
// parent never evict or re-freeze it, and rows it computes on demand keep
// answering from the pinned graph. Safe for any number of concurrent readers;
// the single-flight dedup still applies within the snapshot. Pending
// invalidation is applied first, so the snapshot reflects every mutation
// reported before the call.
//
// The snapshot inherits the parent's MaxRows bound with its own recency
// state, seeded in the parent's order; from there the two caches age
// independently. Rows still in flight in the parent are not carried over
// (they recompute in the snapshot if read), keeping every shared row
// immutable at the handoff.
func (l *LazyAllPairs) Snapshot() *LazyAllPairs {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.applyPendingLocked()
	l.pinned = true
	rows := make(map[int]*lazyRow, len(l.rows))
	for src, row := range l.rows {
		if row.res != nil {
			rows[src] = row
		}
	}
	s := &LazyAllPairs{
		g:         nil,
		frozen:    l.frozen,
		nodes:     l.nodes,
		rows:      rows,
		readers:   make(map[int]map[int]struct{}),
		dirty:     make(map[int]struct{}),
		maxRows:   l.maxRows,
		scratches: l.scratches,
		ins:       l.ins,

		// Counters are shared with the parent (they are concurrency-safe),
		// so rows computed or evicted while serving a pinned epoch still
		// land in the session's qos_lazy_* totals.
		rowsComputed: l.rowsComputed,
		rowHits:      l.rowHits,
		dedups:       l.dedups,
		evictions:    l.evictions,
		lruEvictions: l.lruEvictions,
	}
	if s.maxRows > 0 {
		s.lru = make(map[int]*lruNode, len(rows))
		// Walk the parent's recency list oldest-first so the snapshot ends up
		// in the same order. Bounded parents register every completed row, so
		// the walk covers exactly the rows copied above.
		for n := l.lruTail; n != nil; n = n.prev {
			s.lruTouchLocked(n.src)
		}
		s.lruEnforceLocked()
	}
	return s
}
