package baseline

import (
	"sort"

	"sflow/internal/abstract"
	"sflow/internal/qos"
)

// Scratch holds the per-layer arrays of chain solves, so that repeated
// solves (the reduction heuristics score one chain per junction combination)
// reuse them. The zero value is ready to use. A Scratch must not be shared
// between goroutines.
//
// Candidates are stored flat: layer i occupies indexes off[i] to off[i+1]-1,
// the single source is index 0, and the abstract edges between layers i and
// i+1 form a row-major |L_i| x |L_i+1| block starting at arc[i].
type Scratch struct {
	off   []int
	nid   []int
	arc   []int
	edges []qos.Metric // not Reachable where the overlay offers no route
	width []int64      // widest bottleneck from the source; 0 when unreached
	lat   []int64      // least latency under the width floor; -1 when unreached
	floor int64        // the width floor of lat
	zero  bool         // the latency pass used a zero-latency abstract edge
	tied  bool         // tie holds the settle order of lat
	tie   []int        // settle position among equal latencies
	avail []bool
	done  []bool
	order []int
}

// load reads the abstract edges between consecutive layers, tail by tail in
// layer order and head by head within a tail, and runs the widest pass.
func (sc *Scratch) load(ag *abstract.Graph, layers [][]int) {
	sc.off, sc.nid, sc.arc, sc.edges = sc.off[:0], sc.nid[:0], sc.arc[:0], sc.edges[:0]
	for i, layer := range layers {
		sc.off = append(sc.off, len(sc.nid))
		sc.nid = append(sc.nid, layer...)
		if i+1 == len(layers) {
			continue
		}
		sc.arc = append(sc.arc, len(sc.edges))
		for _, u := range layer {
			for _, v := range layers[i+1] {
				sc.edges = append(sc.edges, ag.EdgeMetric(u, v))
			}
		}
	}
	sc.off = append(sc.off, len(sc.nid))
	n := len(sc.nid)
	sc.width = grow(sc.width, n)
	sc.lat = grow(sc.lat, n)

	// Widest pass: width[v] = max over tails u of min(width[u], bw(u, v)).
	clear(sc.width)
	sc.width[0] = qos.InfBandwidth
	for i := range sc.arc {
		heads := sc.off[i+1]
		for a := sc.off[i]; a < heads; a++ {
			wa := sc.width[a]
			if wa == 0 {
				continue
			}
			for k, m := range sc.row(i, a) {
				if c := min(wa, m.Bandwidth); c > sc.width[heads+k] {
					sc.width[heads+k] = c
				}
			}
		}
	}
}

// row returns the abstract edges from tail a, in layer i, to every
// candidate of layer i+1.
func (sc *Scratch) row(i, a int) []qos.Metric {
	nh := sc.off[i+2] - sc.off[i+1]
	return sc.edges[sc.arc[i]+(a-sc.off[i])*nh:][:nh]
}

// shortest runs the min-latency pass over abstract edges at least floor
// wide, recording whether a zero-latency edge took part.
func (sc *Scratch) shortest(floor int64) {
	for i := range sc.lat {
		sc.lat[i] = -1
	}
	sc.lat[0] = 0
	sc.floor, sc.zero, sc.tied = floor, false, false
	for i := range sc.arc {
		heads := sc.off[i+1]
		for a := sc.off[i]; a < heads; a++ {
			la := sc.lat[a]
			if la < 0 {
				continue
			}
			for k, m := range sc.row(i, a) {
				if m.Bandwidth < floor {
					continue
				}
				if m.Latency == 0 {
					sc.zero = true
				}
				if c, b := la+m.Latency, heads+k; sc.lat[b] < 0 || c < sc.lat[b] {
					sc.lat[b] = c
				}
			}
		}
	}
}

// best picks the sink the two-phase computation reports: the widest last-layer
// candidate, then the shortest among equally wide ones, then the earliest in
// layer order. It returns -1 and qos.Unreachable when no sink is reachable.
// The latency pass is left computed under the chosen sink's width.
func (sc *Scratch) best() (int, qos.Metric) {
	last := len(sc.off) - 2
	var floor int64
	for v := sc.off[last]; v < sc.off[last+1]; v++ {
		floor = max(floor, sc.width[v])
	}
	if floor == 0 {
		return -1, qos.Unreachable
	}
	sc.shortest(floor)
	sink := -1
	for v := sc.off[last]; v < sc.off[last+1]; v++ {
		if sc.width[v] == floor && (sink < 0 || sc.lat[v] < sc.lat[sink]) {
			sink = v
		}
	}
	return sink, qos.Metric{Bandwidth: floor, Latency: sc.lat[sink]}
}

// trace walks predecessors back from sink and returns the selected abstract
// path, one instance per layer. The predecessor of a node is, among the
// tails that reach it at its least latency, the one the latency Dijkstra
// settles first: least latency, then settle position among equal latencies.
func (sc *Scratch) trace(sink int) []int {
	layers := len(sc.off) - 1
	path := make([]int, layers)
	b := sink
	path[layers-1] = sc.nid[b]
	for i := layers - 2; i >= 0; i-- {
		pred := -1
		for a := sc.off[i]; a < sc.off[i+1]; a++ {
			m := sc.row(i, a)[b-sc.off[i+1]]
			if sc.lat[a] < 0 || m.Bandwidth < sc.floor || sc.lat[a]+m.Latency != sc.lat[b] {
				continue
			}
			if pred < 0 || sc.settlesBefore(a, pred) {
				pred = a
			}
		}
		path[i] = sc.nid[pred]
		b = pred
	}
	return path
}

// settlesBefore reports whether the latency Dijkstra settles a before b.
// Without zero-latency edges nodes of equal latency settle in instance
// order; with them, the settle order is replayed on first need.
func (sc *Scratch) settlesBefore(a, b int) bool {
	if sc.lat[a] != sc.lat[b] {
		return sc.lat[a] < sc.lat[b]
	}
	if !sc.zero {
		return sc.nid[a] < sc.nid[b]
	}
	if !sc.tied {
		sc.settleOrder()
	}
	return sc.tie[a] < sc.tie[b]
}

// settleOrder records, for every reached node, its position in the latency
// Dijkstra's settle order among the nodes of equal latency. The heap pops
// the least (latency, instance) entry, but a node reached at its latency only
// through a zero-latency edge enters the heap when that edge's tail settles,
// so it can settle after a larger instance already queued: within one
// latency the order is a least-instance-first search that starts from the
// nodes entered by a positive-latency edge (or the source).
func (sc *Scratch) settleOrder() {
	n := len(sc.nid)
	sc.tie = grow(sc.tie, n)
	sc.avail = grow(sc.avail, n)
	sc.done = grow(sc.done, n)
	sc.order = sc.order[:0]
	for v := 0; v < n; v++ {
		if sc.lat[v] >= 0 {
			sc.order = append(sc.order, v)
		}
	}
	sort.Slice(sc.order, func(i, j int) bool {
		a, b := sc.order[i], sc.order[j]
		if sc.lat[a] != sc.lat[b] {
			return sc.lat[a] < sc.lat[b]
		}
		return sc.nid[a] < sc.nid[b]
	})
	for g := 0; g < len(sc.order); {
		h := g
		for h < len(sc.order) && sc.lat[sc.order[h]] == sc.lat[sc.order[g]] {
			h++
		}
		group := sc.order[g:h]
		for _, v := range group {
			sc.avail[v], sc.done[v] = v == 0 || sc.enteredAbove(v), false
		}
		for pos := range group {
			// Some node is queued: each is entered from an earlier layer.
			v := -1
			for _, c := range group {
				if sc.avail[c] && !sc.done[c] {
					v = c
					break
				}
			}
			sc.tie[v], sc.done[v] = pos, true
			sc.releaseZero(v)
		}
		g = h
	}
	sc.tied = true
}

// enteredAbove reports whether v's least latency is reached over a
// positive-latency edge, so v is queued before its latency's settling begins.
func (sc *Scratch) enteredAbove(v int) bool {
	i := sc.layerOf(v) - 1
	for a := sc.off[i]; a < sc.off[i+1]; a++ {
		m := sc.row(i, a)[v-sc.off[i+1]]
		if sc.lat[a] >= 0 && m.Bandwidth >= sc.floor && m.Latency > 0 && sc.lat[a]+m.Latency == sc.lat[v] {
			return true
		}
	}
	return false
}

// releaseZero marks the heads v reaches over zero-latency edges at v's own
// latency as queued.
func (sc *Scratch) releaseZero(v int) {
	i := sc.layerOf(v)
	if i+1 >= len(sc.off)-1 {
		return
	}
	heads := sc.off[i+1]
	for k, m := range sc.row(i, v) {
		if m.Bandwidth >= sc.floor && m.Latency == 0 && sc.lat[heads+k] == sc.lat[v] {
			sc.avail[heads+k] = true
		}
	}
}

// layerOf returns the layer holding flat index v.
func (sc *Scratch) layerOf(v int) int {
	return sort.SearchInts(sc.off, v+1) - 1
}

// grow returns s resized to n, reallocating only when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
