package main

import (
	"math/rand"
	"time"

	"sflow/internal/abstract"
	"sflow/internal/daemon"
	sfmetrics "sflow/internal/metrics"
	"sflow/internal/qos"
	"sflow/internal/require"
	"sflow/internal/scenario"
	"sflow/internal/session"
)

// large-lazy: the 10k-100k-node regime, where rows are the cost. A lazy
// in-process daemon with a bounded row cache over a 20k-node
// scenario.GenerateLarge overlay. One scripted client reads along drifting
// path shapes, each shape lazyReads times in a row, and a link mutation
// opens every round, so each round starts on a freshly published, cold
// epoch.
var largeLazy = &workload{
	name:      "large-lazy",
	why:       "served 20k-node lazy overlay with drifting reads and a bounded row cache: per-row kernel cost, readers index, LRU turnover and O(overlay) snapshots",
	setupReps: 3,
	setup:     setupLazy,
}

const (
	lazyNodes = 20000
	// lazyReads is how many times in a row a shape is read: the first read
	// of a shape computes its rows, the others hit them, so about a third
	// of the reads are cold. That keeps p50 among warm reads and p90 among
	// cold ones, away from the boundary between the two.
	lazyReads = 3
	// lazyMaxRows sits above the widest shape's read set (4 rows: the
	// source plus one service's three instances) and below the union of
	// all shapes' read sets (10 rows), so drifting between shapes turns the
	// cache over while no single solve evicts its own rows.
	lazyMaxRows = 7
	// lazyPairs is how many links the mutation pairs cycle over.
	lazyPairs = 4
)

// lazyShapes are the path shapes of the drifting read set. They are five of
// the six shapes of the repository's max-rows acceptance test; its sixth,
// the full 1..6 chain, reads every slot row, which would leave no MaxRows
// between the widest read set and the union.
var lazyShapes = [][]int{{1, 2}, {1, 3, 4}, {1, 5, 6}, {1, 6}, {1, 4, 2}}

type lazyBench struct {
	sc     *scenario.Scenario
	reqs   []*require.Requirement
	muts   []daemon.Mutation
	srv    *daemon.Server
	reader *daemon.Client
	writer *daemon.Client
	oracle *servedOracle
	shadow *session.Session
	round  int
}

func setupLazy(seed int64, reg *sfmetrics.Registry) (bench, float64, error) {
	start := time.Now()
	sc, err := scenario.GenerateLarge(scenario.LargeConfig{Seed: seed, Nodes: lazyNodes})
	genMS := msSince(start)
	if err != nil {
		return nil, 0, err
	}
	b := &lazyBench{sc: sc}
	for _, s := range lazyShapes {
		r, err := require.NewPath(s...)
		if err != nil {
			return nil, 0, err
		}
		b.reqs = append(b.reqs, r)
	}
	links := sc.Overlay.Links()
	rng := rand.New(rand.NewSource(seed))
	var probe [][2]int
	for j := 0; j < lazyPairs; j++ {
		l := links[rng.Intn(len(links))]
		probe = append(probe, [2]int{l.From, l.To})
		b.muts = append(b.muts,
			daemon.Mutation{Kind: daemon.MutGrowBandwidth, From: l.From, To: l.To, Delta: l.Bandwidth},
			daemon.Mutation{Kind: daemon.MutReduceBandwidth, From: l.From, To: l.To, Delta: l.Bandwidth})
	}
	b.oracle = newServedOracle(probe, true)
	b.srv = daemon.New(sc.Overlay, daemon.Options{
		Workers: 1, Lazy: true, MaxRows: lazyMaxRows, Metrics: reg, PublishHook: b.oracle.hook,
	})
	if err := b.srv.Serve("127.0.0.1:0"); err != nil {
		b.srv.Close()
		return nil, 0, err
	}
	if b.reader, err = daemon.Dial(b.srv.Addr()); err != nil {
		b.close()
		return nil, 0, err
	}
	if b.writer, err = daemon.Dial(b.srv.Addr()); err != nil {
		b.close()
		return nil, 0, err
	}
	if reg != nil {
		b.shadow = session.New(sc.Overlay, session.Options{Workers: 1, Lazy: true, MaxRows: lazyMaxRows})
	}
	return b, genMS, nil
}

func (b *lazyBench) close() {
	if b.reader != nil {
		b.reader.Close()
	}
	if b.writer != nil {
		b.writer.Close()
	}
	b.srv.Close()
}

func (b *lazyBench) window(d time.Duration, tr *tracer) *windowRec {
	w := &windowRec{}
	m := startMeter()
	deadline := time.Now().Add(d)
	for first := true; first || time.Now().Before(deadline); first = false {
		mut := b.muts[b.round%len(b.muts)]
		b.round++
		if _, err := timedRPC(w, tr, "mutate", &w.mutate, func() (*daemon.Response, error) {
			return b.writer.Mutate(mut)
		}); err != nil {
			w.opErr("large-lazy %s: %v", mut.Kind, err)
		}
		if tr != nil {
			b.shadowRound(tr, w, mut)
		}
		for i := range b.reqs {
			w.calibrate()
			for k := 0; k < lazyReads; k++ {
				solveOnce(b.reader, b.oracle, b.reqs, i, b.sc.SourceNID, w, tr, "large-lazy")
			}
		}
	}
	m.finish(w)
	return w
}

// shadowRound times, outside any operation, what the round's mutation and
// cold reads cost one layer at a time: a clone of the served overlay, a
// snapshot of a mirror lazy session after the same mutation, the CSR
// freeze, one kernel row, and one demand-driven row of a fresh lazy table
// with the heap bytes it allocates.
func (b *lazyBench) shadowRound(tr *tracer, w *windowRec, m daemon.Mutation) {
	root := tr.begin("shadow", -1, 0)
	defer tr.end(root)
	sn := b.oracle.latestSnapshot()
	id := tr.begin("overlay.clone", root, 0)
	sn.Overlay.Clone()
	tr.end(id)
	if applyMutation(b.shadow, m) == nil {
		id = tr.begin("session.snapshot", root, 0)
		b.shadow.Snapshot()
		tr.end(id)
	}
	src := abstract.SlotSources(sn.Overlay, b.reqs[b.round%len(b.reqs)])
	row := src[len(src)-1]
	id = tr.begin("qos.freeze", root, 0)
	cg := qos.FreezeGraph(sn.Overlay)
	tr.end(id)
	idx, _ := cg.Index(row)
	id = tr.begin("qos.row", root, 0)
	qos.ShortestWidestCSR(cg, int(idx), qos.NewScratch())
	tr.end(id)
	lt := qos.NewLazyAllPairs(sn.Overlay, nil)
	a0 := allocNow()
	lt.From(row)
	w.rowAllocKB = append(w.rowAllocKB, float64(allocNow()-a0)/1024)
}

func (b *lazyBench) check(o *outcome) {
	b.oracle.verify(o, "large-lazy", b.reqs, b.sc.SourceNID)
}
