package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	sflow "sflow"
	"sflow/internal/abstract"
	"sflow/internal/daemon"
	"sflow/internal/flow"
	sfmetrics "sflow/internal/metrics"
	"sflow/internal/overlay"
	"sflow/internal/provision"
	"sflow/internal/qos"
	"sflow/internal/reduce"
	"sflow/internal/require"
	"sflow/internal/scenario"
	"sflow/internal/session"
)

// serve-churn: paper-scale serving with writes between reads. One eager
// in-process daemon over a size-50 split-merge scenario (26 instances) on
// loopback TCP, driven by one scripted closed-loop client over two
// connections: readsPerWrite heuristic solves on connection 1 (cycling
// through the requirement and each of its source-to-sink chains), then the
// next write on connection 2 (stationary pairs: bandwidth grow/reduce, link
// remove/re-add, admit/release).
//
// Reads and writes take turns rather than running side by side: on two
// cores a saturating reader beside a paced writer left the write latencies
// to the Go scheduler (a mutation waited for a processor at each of its four
// goroutine hand-offs), and mutate_p50_ms then moved by half between runs of
// the same code.
var serveChurn = &workload{
	name:      "serve-churn",
	why:       "served paper-scale overlay, solves between scripted writes: JSON codec, RPC, epochs, incremental flush, snapshot and allocator",
	setupReps: 9,
	setup:     setupServe,
}

const (
	// readsPerWrite is how many solves the script issues before each write.
	readsPerWrite = 6
	// servePairs is how many distinct links each mutation pair kind cycles
	// over. A write's cost depends on how many routing rows read its link,
	// so a handful of links per seed would move mutate_p50_ms between
	// seeds; two dozen average that out.
	servePairs = 24
	// serveScenarioSeed generates the served scenario, the same for every
	// seed: the solve cost of a size-50 overlay varies by a third between
	// generator seeds, more than any bound between two runs of the same
	// code. The run's seed picks the write script and the rotation start.
	serveScenarioSeed = 1
)

// writeOp is one scripted write.
type writeOp struct {
	mut   *daemon.Mutation // nil for admit/release
	admit int              // requirement index to admit, -1 otherwise
}

type serveBench struct {
	sc      *scenario.Scenario
	reqs    []*require.Requirement
	writes  []writeOp
	srv     *daemon.Server
	reader  *daemon.Client
	writer  *daemon.Client
	oracle  *servedOracle
	shadow  *session.Session // traced runs: mirrors the served session
	nextReq int
	nextW   int
	ticket  uint64 // the admission the next release returns
}

func setupServe(seed int64, reg *sfmetrics.Registry) (bench, float64, error) {
	start := time.Now()
	sc, err := scenario.Generate(scenario.Config{
		Seed: serveScenarioSeed, NetworkSize: 50, Services: 6, InstancesPerService: 5, Kind: scenario.KindSplitMerge,
	})
	genMS := msSince(start)
	if err != nil {
		return nil, 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	reqs, err := chainRotation(sc.Req)
	if err != nil {
		return nil, 0, err
	}
	writes, probe, err := serveScript(sc, reqs, rng)
	if err != nil {
		return nil, 0, err
	}
	b := &serveBench{sc: sc, reqs: reqs, writes: writes, oracle: newServedOracle(probe, false), nextReq: rng.Intn(len(reqs))}
	b.srv = daemon.New(sc.Overlay, daemon.Options{Workers: 1, Metrics: reg, PublishHook: b.oracle.hook})
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
		b.shadow = session.New(sc.Overlay, session.Options{Workers: 1})
	}
	return b, genMS, nil
}

// serveScript builds the writer's cycle. Every link it removes leaves each
// rotation requirement solvable, so no read fails because of a write.
func serveScript(sc *scenario.Scenario, reqs []*require.Requirement, rng *rand.Rand) ([]writeOp, [][2]int, error) {
	links := sc.Overlay.Links()
	rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	var grow, cut []overlay.Link
	for _, l := range links {
		switch {
		case len(grow) < servePairs:
			grow = append(grow, l)
		case len(cut) < servePairs && survives(sc, reqs, l):
			cut = append(cut, l)
		}
	}
	if len(cut) < servePairs {
		return nil, nil, fmt.Errorf("serve-churn: only %d removable links", len(cut))
	}
	var ops []writeOp
	var probe [][2]int
	for j := 0; j < servePairs; j++ {
		g, c := grow[j], cut[j]
		probe = append(probe, [2]int{g.From, g.To}, [2]int{c.From, c.To})
		ops = append(ops,
			writeOp{mut: &daemon.Mutation{Kind: daemon.MutGrowBandwidth, From: g.From, To: g.To, Delta: g.Bandwidth}, admit: -1},
			writeOp{mut: &daemon.Mutation{Kind: daemon.MutReduceBandwidth, From: g.From, To: g.To, Delta: g.Bandwidth}, admit: -1},
			writeOp{mut: &daemon.Mutation{Kind: daemon.MutRemoveLink, From: c.From, To: c.To}, admit: -1},
			writeOp{mut: &daemon.Mutation{Kind: daemon.MutAddLink, From: c.From, To: c.To, Bandwidth: c.Bandwidth, Latency: c.Latency}, admit: -1},
			writeOp{admit: j % len(reqs)},
			writeOp{admit: -1}, // release the ticket just admitted
		)
	}
	return ops, probe, nil
}

// survives reports whether every requirement still solves with l removed.
func survives(sc *scenario.Scenario, reqs []*require.Requirement, l overlay.Link) bool {
	ov := sc.Overlay.Clone()
	if ov.RemoveLink(l.From, l.To) != nil {
		return false
	}
	for _, r := range reqs {
		if _, err := sflow.Solve("heuristic", ov, r, sc.SourceNID, sflow.SolveOptions{Workers: 1}); err != nil {
			return false
		}
	}
	return true
}

func (b *serveBench) close() {
	if b.reader != nil {
		b.reader.Close()
	}
	if b.writer != nil {
		b.writer.Close()
	}
	b.srv.Close()
}

func (b *serveBench) window(d time.Duration, tr *tracer) *windowRec {
	w := &windowRec{}
	m := startMeter()
	deadline := time.Now().Add(d)
	for first := true; first || time.Now().Before(deadline); first = false {
		w.calibrate()
		for k := 0; k < readsPerWrite; k++ {
			i := b.nextReq
			b.nextReq = (b.nextReq + 1) % len(b.reqs)
			resp := solveOnce(b.reader, b.oracle, b.reqs, i, b.sc.SourceNID, w, tr, "serve-churn")
			if tr != nil && resp != nil {
				b.shadowSolve(tr, w, i, resp)
			}
		}
		b.write(w, tr)
	}
	m.finish(w)
	return w
}

// write issues the script's next write on the writer connection.
func (b *serveBench) write(w *windowRec, tr *tracer) {
	op := b.writes[b.nextW]
	b.nextW = (b.nextW + 1) % len(b.writes)
	switch {
	case op.mut != nil:
		_, err := timedRPC(w, tr, "mutate", &w.mutate, func() (*daemon.Response, error) {
			return b.writer.Mutate(*op.mut)
		})
		if err != nil {
			w.opErr("serve-churn %s: %v", op.mut.Kind, err)
		} else if tr != nil {
			b.shadowMutate(tr, *op.mut)
		}
	case op.admit >= 0:
		resp, err := timedRPC(w, tr, "admit", &w.admit, func() (*daemon.Response, error) {
			return b.writer.Admit("heuristic", b.reqs[op.admit], b.sc.SourceNID, 1, 0, 0)
		})
		if err != nil {
			if resp != nil && resp.Reason != "" {
				w.rejected++
			}
			w.opErr("serve-churn admit: %v", err)
		} else {
			b.ticket = resp.Ticket
		}
	default:
		if _, err := timedRPC(w, tr, "release", nil, func() (*daemon.Response, error) {
			return b.writer.Release(b.ticket)
		}); err != nil {
			w.opErr("serve-churn release: %v", err)
		}
	}
}

// shadowSolve times, outside the operation, the daemon's in-process handler
// on the same request, the abstract build and reduce solve over the latest
// published table, and the request and response sizes on the wire.
func (b *serveBench) shadowSolve(tr *tracer, w *windowRec, i int, resp *daemon.Response) {
	root := tr.begin("shadow", -1, 0)
	defer tr.end(root)
	r := &daemon.Request{Op: daemon.OpSolve, Algorithm: "heuristic", Requirement: b.reqs[i], Source: b.sc.SourceNID}
	id := tr.begin("daemon.handle", root, 0)
	_, _ = b.srv.Handle(r)
	tr.end(id)
	if sn := b.oracle.latestSnapshot(); sn != nil {
		id = tr.begin("abstract.build", root, 0)
		ag, err := abstract.FromAllPairs(sn.Overlay, b.reqs[i], sn.AllPairs)
		tr.end(id)
		if err == nil {
			id = tr.begin("reduce.solve", root, 0)
			_, _ = reduce.Solve(ag, b.sc.SourceNID, nil)
			tr.end(id)
		}
	}
	if data, err := json.Marshal(r); err == nil {
		w.reqBytes = append(w.reqBytes, float64(len(data)))
	}
	if data, err := json.Marshal(resp); err == nil {
		w.respBytes = append(w.respBytes, float64(len(data)))
	}
}

// shadowMutate applies the same mutation to a mirror session and times its
// snapshot, and times a clone of the served overlay.
func (b *serveBench) shadowMutate(tr *tracer, m daemon.Mutation) {
	root := tr.begin("shadow", -1, 0)
	defer tr.end(root)
	if err := applyMutation(b.shadow, m); err == nil {
		id := tr.begin("session.snapshot", root, 0)
		b.shadow.Snapshot()
		tr.end(id)
	}
	if sn := b.oracle.latestSnapshot(); sn != nil {
		id := tr.begin("overlay.clone", root, 0)
		sn.Overlay.Clone()
		tr.end(id)
	}
}

// applyMutation mirrors a wire mutation onto a session.
func applyMutation(s *session.Session, m daemon.Mutation) error {
	switch m.Kind {
	case daemon.MutGrowBandwidth:
		return s.GrowLinkBandwidth(m.From, m.To, m.Delta)
	case daemon.MutReduceBandwidth:
		return s.ReduceLinkBandwidth(m.From, m.To, m.Delta)
	case daemon.MutRemoveLink:
		return s.RemoveLink(m.From, m.To)
	case daemon.MutAddLink:
		return s.AddLink(m.From, m.To, m.Bandwidth, m.Latency)
	}
	return fmt.Errorf("unscripted mutation kind %q", m.Kind)
}

// admissionAlgorithm is the daemon's "heuristic" admission algorithm,
// rebuilt from the same public calls for the replay oracle.
func admissionAlgorithm(ov *overlay.Overlay, req *require.Requirement, src int) (*flow.Graph, qos.Metric, error) {
	ag, err := abstract.Build(ov, req)
	if err != nil {
		return nil, qos.Unreachable, err
	}
	r, err := reduce.Solve(ag, src, nil)
	if err != nil {
		return nil, qos.Unreachable, err
	}
	return r.Flow, r.Metric, nil
}

func (b *serveBench) check(o *outcome) {
	b.oracle.verify(o, "serve-churn", b.reqs, b.sc.SourceNID)
	log := b.srv.Allocator().Log()
	replayed, err := provision.Replay(b.sc.Overlay, provision.AllocatorOptions{}, log,
		func(provision.Event) provision.Algorithm { return admissionAlgorithm })
	if err != nil {
		o.fail("serve-churn allocator log (%d events) does not replay: %v", len(log), err)
		return
	}
	defer replayed.Close()
	if got, want := replayed.Utilization(), b.srv.Allocator().Utilization(); got != want {
		o.fail("serve-churn replayed utilization %d, live %d", got, want)
	}
}
