package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	sflow "sflow"
	"sflow/internal/daemon"
	"sflow/internal/overlay"
	"sflow/internal/qos"
	"sflow/internal/require"
	"sflow/internal/session"
)

// servedOracle checks served answers against stateless solves. The daemon's
// PublishHook records, for every epoch, which overlay state it published: a
// probe of the links the write script touches (the writes come in
// stationary pairs, so a run cycles through a few states). The first
// overlay published in each state is kept; the other snapshots are dropped,
// so memory stays bounded however many epochs a run publishes.
type servedOracle struct {
	probe [][2]int
	lazy  bool

	mu       sync.Mutex
	stateOf  map[uint64]string
	overlays map[string]*overlay.Overlay
	latest   *session.Snapshot
	answers  map[answerKey]*servedAnswer
}

// answerKey names one distinct served question: an overlay state and an
// index into the workload's requirement rotation.
type answerKey struct {
	state string
	req   int
}

// servedAnswer is the first served answer to one question, and how many
// answers to it the run received.
type servedAnswer struct {
	resp  daemon.Response
	count int
}

func newServedOracle(probe [][2]int, lazy bool) *servedOracle {
	return &servedOracle{
		probe: probe, lazy: lazy,
		stateOf:  map[uint64]string{},
		overlays: map[string]*overlay.Overlay{},
		answers:  map[answerKey]*servedAnswer{},
	}
}

// stateKey renders the probed links of ov.
func (s *servedOracle) stateKey(ov *overlay.Overlay) string {
	var b strings.Builder
	for _, l := range s.probe {
		if m, ok := ov.LinkMetric(l[0], l[1]); ok {
			fmt.Fprintf(&b, "%d,%d;", m.Bandwidth, m.Latency)
		} else {
			b.WriteString("-;")
		}
	}
	return b.String()
}

// hook is the daemon's PublishHook: it runs on the writer goroutine before
// the epoch becomes visible, so every epoch a response names is recorded.
func (s *servedOracle) hook(sn *session.Snapshot) {
	key := s.stateKey(sn.Overlay)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stateOf[sn.Epoch] = key
	if _, ok := s.overlays[key]; !ok {
		s.overlays[key] = sn.Overlay
	}
	s.latest = sn
}

// latestSnapshot returns the most recently published snapshot.
func (s *servedOracle) latestSnapshot() *session.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latest
}

// observe checks a served solve answer against the first answer to the same
// question; the first one is kept for the stateless comparison in verify.
func (s *servedOracle) observe(req int, resp *daemon.Response) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	state, ok := s.stateOf[resp.Epoch]
	if !ok {
		return fmt.Errorf("response names epoch %d that was never published", resp.Epoch)
	}
	k := answerKey{state, req}
	first, ok := s.answers[k]
	if !ok {
		cp := *resp
		cp.Flow = append(json.RawMessage(nil), resp.Flow...)
		s.answers[k] = &servedAnswer{resp: cp, count: 1}
		return nil
	}
	first.count++
	if resp.Err != first.resp.Err || resp.Partial != first.resp.Partial ||
		!bytes.Equal(resp.Flow, first.resp.Flow) || !sameMetric(resp.Metric, first.resp.Metric) {
		return fmt.Errorf("epoch %d requirement %d: answer differs from an earlier epoch with the same overlay", resp.Epoch, req)
	}
	return nil
}

func sameMetric(a, b *qos.Metric) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// checkServed asserts one served answer equals the stateless sflow.Solve on
// the overlay it was computed against, byte for byte.
func checkServed(ov *overlay.Overlay, req *require.Requirement, src int, lazy bool, resp *daemon.Response) (*sflow.Solution, error) {
	sol, err := sflow.Solve("heuristic", ov, req, src, sflow.SolveOptions{Workers: 1, Lazy: lazy})
	switch {
	case err != nil && resp.Err != "":
		// Failed both ways; the window already counted the failure.
		return nil, nil
	case err != nil:
		return nil, fmt.Errorf("daemon succeeded, stateless solve failed: %v", err)
	case resp.Err != "":
		return nil, fmt.Errorf("daemon failed (%s), stateless solve succeeded", resp.Err)
	}
	want, err := json.Marshal(sol.Flow)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(resp.Flow, want) {
		return nil, fmt.Errorf("served flow diverged\n  got  %s\n  want %s", resp.Flow, want)
	}
	if resp.Metric == nil || *resp.Metric != sol.Metric {
		return nil, fmt.Errorf("served metric %+v, want %+v", resp.Metric, sol.Metric)
	}
	return sol, nil
}

// verify compares every distinct served answer with a stateless solve on
// the overlay state it names, and scores the answers' correctness
// coefficient against the exact optimum, weighted by how often each was
// served.
func (s *servedOracle) verify(o *outcome, name string, reqs []*require.Requirement, src int) {
	var cc, n float64
	for _, k := range sortedAnswerKeys(s.answers) {
		a := s.answers[k]
		ov := s.overlays[k.state]
		sol, err := checkServed(ov, reqs[k.req], src, s.lazy, &a.resp)
		if err != nil {
			for i := 0; i < a.count; i++ {
				o.fail("%s requirement %d: %v", name, k.req, err)
			}
			continue
		}
		if sol == nil {
			continue
		}
		var tab qos.Table
		if s.lazy {
			tab = qos.NewLazyAllPairs(ov, nil)
		} else {
			tab = qos.ComputeAllPairsWorkers(ov, 1)
		}
		opt, err := optimum(ov, reqs[k.req], src, tab)
		if err != nil {
			o.fail("%s requirement %d optimum: %v", name, k.req, err)
			continue
		}
		cc += sol.Flow.CorrectnessCoefficient(opt) * float64(a.count)
		n += float64(a.count)
	}
	o.set("quality_cc", ratio(cc, n))
	o.set("reduce.quality_cc", ratio(cc, n))
}

func sortedAnswerKeys(m map[answerKey]*servedAnswer) []answerKey {
	ks := make([]answerKey, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].state != ks[j].state {
			return ks[i].state < ks[j].state
		}
		return ks[i].req < ks[j].req
	})
	return ks
}

// chainRotation returns req followed by every source-to-sink chain along
// its dependencies, in a fixed order: the requirement rotation a client
// cycles through.
func chainRotation(req *require.Requirement) ([]*require.Requirement, error) {
	out := []*require.Requirement{req}
	var walk func(chain []int) error
	walk = func(chain []int) error {
		next := req.Downstream(chain[len(chain)-1])
		if len(next) == 0 {
			p, err := require.NewPath(chain...)
			if err != nil {
				return err
			}
			out = append(out, p)
			return nil
		}
		for _, sid := range next {
			if err := walk(append(append([]int(nil), chain...), sid)); err != nil {
				return err
			}
		}
		return nil
	}
	return out, walk([]int{req.Source()})
}

// solveOnce runs one served solve and records it.
func solveOnce(c *daemon.Client, oracle *servedOracle, reqs []*require.Requirement, i, src int, w *windowRec, tr *tracer, name string) *daemon.Response {
	resp, err := timedRPC(w, tr, "solve", &w.solve, func() (*daemon.Response, error) {
		return c.Solve("heuristic", reqs[i], src)
	})
	if resp == nil {
		w.opErr("%s solve: %v", name, err)
		return nil
	}
	if err != nil {
		w.opErr("%s solve requirement %d: %v", name, i, err)
	}
	if err := oracle.observe(i, resp); err != nil {
		w.opErr("%s: %v", name, err)
	}
	return resp
}

// timedRPC runs one RPC under an op.<kind> span, adding its latency
// to lat (or counting it among the window's other operations when lat is
// nil) and its heap allocations to the window. A reply carrying an error is
// returned with that error.
func timedRPC(w *windowRec, tr *tracer, kind string, lat *series, call func() (*daemon.Response, error)) (*daemon.Response, error) {
	req := tr.newReq()
	id := tr.begin("op."+kind, -1, req)
	rid := tr.begin("daemon.rpc_"+kind, id, req)
	a0 := allocNow()
	start := time.Now()
	resp, err := call()
	ms := msSince(start)
	w.allocBytes += allocNow() - a0
	tr.end(rid)
	tr.end(id)
	if lat != nil {
		*lat = append(*lat, ms)
	} else {
		w.others++
	}
	if err == nil && resp.Err != "" {
		err = errors.New(resp.Err)
	}
	return resp, err
}
