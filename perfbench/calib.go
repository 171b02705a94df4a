package main

import (
	"math/rand"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts by a third and more over minutes (other tenants
// of the machine contend for its caches and memory), which moves every time
// a run measures by more than any bound between runs of the same code. Each
// timed window therefore runs a fixed calibration kernel for calibSlice
// every calibEvery, between operations, and the end-to-end times are
// reported at the speed of the reference host: measured × hostSpeed, where
// hostSpeed is the median calibration rate of the window over calibRef.
//
// The kernel is the benchmark's own code and allocates nothing, so no change
// to the program, its heap or its garbage collector moves it: a shortest-path
// search over a fixed random graph in flat arrays of a few MiB, which like
// the program's routing kernels is bound by memory access more than by
// arithmetic. The arrays are mapped outside the Go heap, so heap_peak_mb and
// the collector do not see them either.
const (
	calibEvery = time.Second
	calibSlice = 50 * time.Millisecond
	// calibRef is the kernel's rate in units per second on the reference
	// host (METRICS.md, "Environment").
	calibRef = 1830.0

	calibNodes  = 1 << 17
	calibDegree = 4
	// calibSettle is how many nodes one unit settles.
	calibSettle = 2000
)

// calibGraph is the kernel's input, built once per process.
type calibGraph struct {
	to, w  []int32
	dist   []int32
	stamp  []uint32 // dist[v] is set in unit gen when stamp[v] == gen
	heap   []int64  // dist<<32 | node
	gen    uint32
	source int32
}

var (
	calibOnce sync.Once
	calibG    *calibGraph
)

func loadCalibGraph() *calibGraph {
	calibOnce.Do(func() {
		rng := rand.New(rand.NewSource(1))
		g := &calibGraph{
			to: offHeap[int32](calibNodes * calibDegree), w: offHeap[int32](calibNodes * calibDegree),
			dist: offHeap[int32](calibNodes), stamp: offHeap[uint32](calibNodes),
			// Only settled nodes push, so a unit never outgrows this.
			heap: offHeap[int64](calibSettle*calibDegree + 1)[:0],
		}
		for a := range g.to {
			g.to[a] = int32(rng.Intn(calibNodes))
			g.w[a] = int32(1 + rng.Intn(50))
		}
		calibG = g
	})
	return calibG
}

// offHeap returns n zeroed elements in anonymous memory outside the Go heap,
// mapped for the life of the process.
func offHeap[T int32 | uint32 | int64](n int) []T {
	var zero T
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)), syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("perfbench: mapping calibration memory: " + err.Error())
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

// unit settles calibSettle nodes from the next source.
func (g *calibGraph) unit() {
	g.gen++
	g.source = (g.source + 7919) % calibNodes
	h := g.heap[:0]
	relax := func(v, d int32) {
		if g.stamp[v] == g.gen && g.dist[v] <= d {
			return
		}
		g.stamp[v], g.dist[v] = g.gen, d
		h = append(h, int64(d)<<32|int64(v))
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p] <= h[i] {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	relax(g.source, 0)
	for settled := 0; len(h) > 0 && settled < calibSettle; {
		x := h[0]
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		for i := 0; ; {
			l, r, m := 2*i+1, 2*i+2, i
			if l < n && h[l] < h[m] {
				m = l
			}
			if r < n && h[r] < h[m] {
				m = r
			}
			if m == i {
				break
			}
			h[m], h[i] = h[i], h[m]
			i = m
		}
		d, u := int32(x>>32), int32(x)
		if d > g.dist[u] {
			continue
		}
		settled++
		for a := int(u) * calibDegree; a < int(u+1)*calibDegree; a++ {
			relax(g.to[a], d+g.w[a])
		}
	}
	g.heap = h[:0]
}

// calibrate runs a calibration slice when one is due, recording the
// kernel's rate. Windows call it between operations; the first call of a
// window always runs one.
func (w *windowRec) calibrate() {
	if !w.calAt.IsZero() && time.Since(w.calAt) < calibEvery {
		return
	}
	g := loadCalibGraph()
	n := 0
	start := time.Now()
	for time.Since(start) < calibSlice {
		g.unit()
		n++
	}
	w.calAt = time.Now()
	w.calib = append(w.calib, float64(n)/w.calAt.Sub(start).Seconds())
}

// hostSpeed is how fast the host ran during the window relative to the
// reference host: above 1 is faster.
func (w *windowRec) hostSpeed() float64 {
	if len(w.calib) == 0 {
		return 1
	}
	return median(w.calib) / calibRef
}
