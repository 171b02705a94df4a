package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	sflow "sflow"
	"sflow/internal/abstract"
	"sflow/internal/exact"
	"sflow/internal/flow"
	sfmetrics "sflow/internal/metrics"
	"sflow/internal/overlay"
	"sflow/internal/qos"
	"sflow/internal/reduce"
	"sflow/internal/require"
	"sflow/internal/scenario"
	"sflow/internal/session"
)

// paper-sweep: the paper's evaluation regime, in-process. A pool of
// scenario.Generate overlays at underlay sizes 10-50 (6 services,
// max(2, size/10) instances, requirement shapes rotating general / disjoint /
// split-merge as in experiments.Fig10a), each solved with the heuristic,
// federated by the distributed protocol on the deterministic DES transport,
// and mutated in place through an eager session (a bandwidth grow and the
// matching reduce, each timed until its snapshot is published).
//
// The pool is the same for every seed; the seed orders the scenarios and
// picks the link each one mutates. Per-scenario cost is heavy-tailed (a
// general DAG at size 50 solves in 0.6 to 15 ms), so a pool drawn afresh
// per seed would move the mean and the p90 by more than any bound between
// two runs of the same code.
var paperSweep = &workload{
	name:      "paper-sweep",
	why:       "paper-scale overlays in-process: small eager rows, so the qos kernel, abstract build, reduce and core protocol do the work",
	setupReps: 9,
	setup:     setupPaper,
}

var paperSizes = []int{10, 20, 30, 40, 50}

const (
	// paperRepeats is how many scenarios each (size, shape) cell contributes.
	paperRepeats = 4
	// paperPoolSeed generates the scenario pool.
	paperPoolSeed = 1
)

// answer is one timed answer as the oracle sees it: canonical JSON of the
// flow graph plus its metric.
type answer struct {
	flow   []byte
	metric qos.Metric
}

type paperCase struct {
	sc   *scenario.Scenario
	sess *session.Session
	link overlay.Link // the link the mutation pair grows and restores
	// First answers, validated in full by the oracle; every later answer
	// must equal them byte for byte.
	solve, federate *answer
	snapshots       []*session.Snapshot // first grow and restore snapshot
}

type paperBench struct {
	cases []*paperCase
	reg   *sfmetrics.Registry
	// solves and federates count the timed answers per case, for the
	// answer-weighted quality mean.
	solves, federates []int
}

func setupPaper(seed int64, reg *sfmetrics.Registry) (bench, float64, error) {
	b := &paperBench{reg: reg}
	kinds := []scenario.Kind{scenario.KindGeneral, scenario.KindDisjoint, scenario.KindSplitMerge}
	rng := rand.New(rand.NewSource(seed))
	var genMS float64
	for _, size := range paperSizes {
		for k, kind := range kinds {
			for r := 0; r < paperRepeats; r++ {
				start := time.Now()
				sc, err := scenario.Generate(scenario.Config{
					Seed:                paperPoolSeed*1_000_003 + int64(size)*1_009 + int64(k*paperRepeats+r),
					NetworkSize:         size,
					Services:            6,
					InstancesPerService: max(2, size/10),
					Kind:                kind,
				})
				genMS += msSince(start)
				if err != nil {
					return nil, 0, fmt.Errorf("scenario size %d %s: %w", size, kind, err)
				}
				links := sc.Overlay.Links()
				b.cases = append(b.cases, &paperCase{
					sc:   sc,
					sess: session.New(sc.Overlay, session.Options{Workers: 1, Metrics: reg}),
					link: links[rng.Intn(len(links))],
				})
			}
		}
	}
	rng.Shuffle(len(b.cases), func(i, j int) { b.cases[i], b.cases[j] = b.cases[j], b.cases[i] })
	b.solves = make([]int, len(b.cases))
	b.federates = make([]int, len(b.cases))
	return b, genMS, nil
}

func (b *paperBench) close() {}

// solveTraced is sflow.Solve("heuristic") spelled out layer by layer, so the
// traced run can time each layer's public call under the operation's span.
func solveTraced(tr *tracer, parent int32, req int64, sc *scenario.Scenario, reg *sfmetrics.Registry) (*sflow.Solution, error) {
	id := tr.begin("qos.allpairs", parent, req)
	ap := qos.ComputeAllPairsWorkersMetrics(sc.Overlay, 1, reg)
	tr.end(id)
	id = tr.begin("abstract.build", parent, req)
	ag, err := abstract.FromAllPairs(sc.Overlay, sc.Req, ap)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("reduce.solve", parent, req)
	r, err := reduce.Solve(ag, sc.SourceNID, nil)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	return &sflow.Solution{Flow: r.Flow, Metric: r.Metric}, nil
}

// keepAnswer keeps the first answer of a case and checks every later one is
// byte-identical to it.
func keepAnswer(first **answer, fg *flow.Graph, m qos.Metric) error {
	data, err := json.Marshal(fg)
	if err != nil {
		return err
	}
	if *first == nil {
		*first = &answer{flow: data, metric: m}
		return nil
	}
	if f := *first; f.metric != m || !bytes.Equal(f.flow, data) {
		return fmt.Errorf("answer changed between rounds: %s %+v, first %s %+v", data, m, f.flow, f.metric)
	}
	return nil
}

func (b *paperBench) window(d time.Duration, tr *tracer) *windowRec {
	w := &windowRec{}
	// timed runs op, adding its latency to s and its heap allocations to the
	// window; the answer bookkeeping around it stays out of both.
	timed := func(s *series, kind string, req int64, op func(id int32) error) error {
		id := tr.begin("op."+kind, -1, req)
		a0 := allocNow()
		start := time.Now()
		err := op(id)
		lat := msSince(start)
		w.allocBytes += allocNow() - a0
		tr.end(id)
		*s = append(*s, lat)
		return err
	}
	m := startMeter()
	deadline := time.Now().Add(d)
	for first := true; first || time.Now().Before(deadline); first = false {
		for i, c := range b.cases {
			w.calibrate()
			b.solves[i]++
			b.federates[i]++
			var sol *sflow.Solution
			req := tr.newReq()
			err := timed(&w.solve, "solve", req, func(id int32) (err error) {
				if tr != nil {
					sol, err = solveTraced(tr, id, req, c.sc, b.reg)
				} else {
					sol, err = sflow.Solve("heuristic", c.sc.Overlay, c.sc.Req, c.sc.SourceNID, sflow.SolveOptions{Workers: 1})
				}
				return err
			})
			if err != nil {
				w.opErr("paper-sweep case %d solve: %v", i, err)
			} else if err := keepAnswer(&c.solve, sol.Flow, sol.Metric); err != nil {
				w.opErr("paper-sweep case %d solve: %v", i, err)
			}

			var fed *sflow.Result
			req = tr.newReq()
			err = timed(&w.federate, "federate", req, func(id int32) (err error) {
				sid := tr.begin("core.federate", id, req)
				fed, err = sflow.Federate(c.sc.Overlay, c.sc.Req, c.sc.SourceNID, sflow.Options{Metrics: b.reg})
				tr.end(sid)
				return err
			})
			if err != nil {
				w.opErr("paper-sweep case %d federate: %v", i, err)
			} else if err := keepAnswer(&c.federate, fed.Flow, fed.Metric); err != nil {
				w.opErr("paper-sweep case %d federate: %v", i, err)
			}

			for _, grow := range []bool{true, false} {
				var sn *session.Snapshot
				req = tr.newReq()
				err = timed(&w.mutate, "mutate", req, func(id int32) error {
					sid := tr.begin("session.mutate", id, req)
					var err error
					if grow {
						err = c.sess.GrowLinkBandwidth(c.link.From, c.link.To, c.link.Bandwidth)
					} else {
						err = c.sess.ReduceLinkBandwidth(c.link.From, c.link.To, c.link.Bandwidth)
					}
					tr.end(sid)
					if err != nil {
						return err
					}
					sid = tr.begin("session.snapshot", id, req)
					sn = c.sess.Snapshot()
					tr.end(sid)
					return nil
				})
				if err != nil {
					w.opErr("paper-sweep case %d mutate: %v", i, err)
				} else if len(c.snapshots) < 2 {
					c.snapshots = append(c.snapshots, sn)
				}
			}
			if tr != nil {
				b.shadow(tr, c)
			}
		}
	}
	m.finish(w)
	return w
}

// shadow times single layers on the case's overlay outside any operation:
// the CSR freeze, one kernel row per source, the all-pairs build with its
// registry counters, and the overlay clone a snapshot pays.
func (b *paperBench) shadow(tr *tracer, c *paperCase) {
	root := tr.begin("shadow", -1, 0)
	id := tr.begin("qos.freeze", root, 0)
	cg := qos.FreezeGraph(c.sc.Overlay)
	tr.end(id)
	sc := qos.NewScratch()
	for _, n := range c.sc.Overlay.Nodes() {
		idx, _ := cg.Index(n)
		id = tr.begin("qos.row", root, 0)
		qos.ShortestWidestCSR(cg, int(idx), sc)
		tr.end(id)
	}
	id = tr.begin("abstract.build_counted", root, 0)
	_, _ = abstract.BuildWorkersMetrics(c.sc.Overlay, c.sc.Req, 1, b.reg)
	tr.end(id)
	id = tr.begin("overlay.clone", root, 0)
	c.sess.Overlay().Clone()
	tr.end(id)
	tr.end(root)
}

// checkFlow is the paper-sweep oracle for one first answer: the flow
// validates against the overlay, and its metric equals the quality
// recomputed from its realised streams (and, for solve, the metric the
// abstract graph assigns to its instance choice).
func checkFlow(sc *scenario.Scenario, a *answer, byAssignment bool) (*flow.Graph, error) {
	if a == nil {
		return nil, fmt.Errorf("no successful answer recorded")
	}
	fg := flow.New()
	if err := json.Unmarshal(a.flow, fg); err != nil {
		return nil, fmt.Errorf("decoding flow: %w", err)
	}
	if err := fg.Validate(sc.Req, sc.Overlay); err != nil {
		return nil, err
	}
	if q := fg.Quality(sc.Req); q != a.metric {
		return nil, fmt.Errorf("metric %+v, flow quality %+v", a.metric, q)
	}
	if byAssignment {
		m, err := sflow.EvaluateAssignment(sc.Overlay, sc.Req, fg.Assignment())
		if err != nil {
			return nil, err
		}
		if m != a.metric {
			return nil, fmt.Errorf("metric %+v, assignment metric %+v", a.metric, m)
		}
	}
	return fg, nil
}

// optimum is the exact global optimum the quality coefficient is scored
// against (experiments.Fig10a).
func optimum(ov *overlay.Overlay, req *require.Requirement, src int, tab qos.Table) (*flow.Graph, error) {
	ag, err := abstract.FromAllPairs(ov, req, tab)
	if err != nil {
		return nil, err
	}
	opt, err := exact.Solve(ag, src, exact.Options{})
	if err != nil {
		return nil, err
	}
	return opt.Flow, nil
}

func (b *paperBench) check(o *outcome) {
	var ccSum, ccAll, n, nAll float64
	for i, c := range b.cases {
		opt, err := optimum(c.sc.Overlay, c.sc.Req, c.sc.SourceNID, qos.ComputeAllPairsWorkers(c.sc.Overlay, 1))
		if err != nil {
			o.fail("paper-sweep case %d optimum: %v", i, err)
			continue
		}
		sol, err := checkFlow(c.sc, c.solve, true)
		if err != nil {
			o.fail("paper-sweep case %d solve: %v", i, err)
		} else {
			cc := sol.CorrectnessCoefficient(opt)
			ccSum += cc * float64(b.solves[i])
			n += float64(b.solves[i])
			ccAll += cc * float64(b.solves[i])
			nAll += float64(b.solves[i])
		}
		fed, err := checkFlow(c.sc, c.federate, false)
		if err != nil {
			o.fail("paper-sweep case %d federate: %v", i, err)
		} else {
			ccAll += fed.CorrectnessCoefficient(opt) * float64(b.federates[i])
			nAll += float64(b.federates[i])
		}
		for _, sn := range c.snapshots {
			if !qos.TablesEqual(sn.AllPairs, qos.ComputeAllPairsWorkers(sn.Overlay, 1)) {
				o.fail("paper-sweep case %d epoch %d: session table differs from a rebuild", i, sn.Epoch)
			}
		}
	}
	o.set("quality_cc", ratio(ccAll, nAll))
	o.set("reduce.quality_cc", ratio(ccSum, n))
}
