package session_test

import (
	"reflect"
	"testing"

	"sflow/internal/abstract"
	"sflow/internal/metrics"
	"sflow/internal/overlay"
	"sflow/internal/qos"
	"sflow/internal/require"
	"sflow/internal/scenario"
	"sflow/internal/session"
)

// traceScenario builds the seeded workload a trace test churns.
func traceScenario(t testing.TB, seed int64) *scenario.Scenario {
	t.Helper()
	kinds := []scenario.Kind{scenario.KindGeneral, scenario.KindDisjoint, scenario.KindSplitMerge}
	s, err := scenario.Generate(scenario.Config{
		Seed: seed, NetworkSize: 20, Services: 5,
		InstancesPerService: 3, Kind: kinds[int(seed)%len(kinds)],
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// assertTableEqual asserts the session's maintained all-pairs table is
// deep-equal to a from-scratch recomputation on its current overlay.
func assertTableEqual(t *testing.T, s *session.Session, seed int64, event int) {
	t.Helper()
	got := s.AllPairs()
	want := qos.ComputeAllPairsWorkers(s.Overlay(), 1)
	if !got.Equal(want) || !want.Equal(got) {
		t.Fatalf("seed %d event %d: maintained table diverged from scratch rebuild", seed, event)
	}
}

// assertAbstractEqual asserts the session's cache-backed abstract graph is
// indistinguishable from a freshly built one: same slots, and the same metric
// and selected path on every abstract edge the requirement induces.
func assertAbstractEqual(t *testing.T, s *session.Session, req *require.Requirement, seed int64, event int) {
	t.Helper()
	got, gerr := s.Abstract(req)
	want, werr := abstract.BuildWorkers(s.Overlay(), req, 1)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("seed %d event %d: abstract error mismatch: session %v, scratch %v", seed, event, gerr, werr)
	}
	if gerr != nil {
		return
	}
	for _, sid := range req.Services() {
		if !reflect.DeepEqual(got.Slots(sid), want.Slots(sid)) {
			t.Fatalf("seed %d event %d: slots of service %d diverged", seed, event, sid)
		}
	}
	for _, e := range req.Edges() {
		for _, from := range got.Slots(e[0]) {
			for _, to := range got.Slots(e[1]) {
				if got.EdgeMetric(from, to) != want.EdgeMetric(from, to) {
					t.Fatalf("seed %d event %d: edge metric %d->%d diverged", seed, event, from, to)
				}
				if !reflect.DeepEqual(got.EdgePath(from, to), want.EdgePath(from, to)) {
					t.Fatalf("seed %d event %d: edge path %d->%d diverged", seed, event, from, to)
				}
			}
		}
	}
}

// TestEquivalenceOracleTrace is the headline property test: over long seeded
// random mutation traces, the session's incrementally maintained QoS table
// and abstract graph are deep-equal — selected paths included — to
// from-scratch rebuilds on the mutated overlay after EVERY event.
func TestEquivalenceOracleTrace(t *testing.T) {
	seeds, events := 5, 1000
	if testing.Short() {
		seeds, events = 2, 250
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		sc := traceScenario(t, seed)
		// Alternate worker counts so the flush fan-out is exercised both
		// sequentially and in parallel (results must be identical).
		s := session.New(sc.Overlay, session.Options{Workers: int(seed % 3)})
		churn := session.NewChurn(s, seed*7+1, []int{sc.SourceNID}, sc.Req.Services())
		for e := 1; e <= events; e++ {
			ev, err := churn.Step()
			if err != nil {
				t.Fatalf("seed %d event %d: %v", seed, e, err)
			}
			assertTableEqual(t, s, seed, e)
			if e%10 == 0 {
				assertAbstractEqual(t, s, sc.Req, seed, e)
			}
			_ = ev
		}
		st := s.Stats()
		// A churn step is at least one session event (an instance join also
		// adds links, each its own event).
		if st.Events < int64(events) {
			t.Fatalf("seed %d: %d events recorded, want >= %d", seed, st.Events, events)
		}
		if st.RecomputedSources == 0 {
			t.Fatalf("seed %d: churn trace recomputed no sources", seed)
		}
		if st.SavedSources == 0 {
			t.Fatalf("seed %d: incremental maintenance saved nothing over %d events — dirty sets degenerate to full rebuilds", seed, events)
		}
	}
}

// TestBatchedEventsSingleFlush asserts events between solves coalesce: the
// dirty sets union, one flush pays for the whole batch, and the result still
// matches the oracle.
func TestBatchedEventsSingleFlush(t *testing.T) {
	sc := traceScenario(t, 11)
	s := session.New(sc.Overlay, session.Options{})
	churn := session.NewChurn(s, 3, []int{sc.SourceNID}, sc.Req.Services())
	flushes := s.Stats().Flushes
	for e := 0; e < 25; e++ {
		if _, err := churn.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Flushes; got != flushes {
		t.Fatalf("mutations alone triggered %d flushes", got-flushes)
	}
	dirty := s.Dirty()
	if len(dirty) == 0 {
		t.Fatal("25 mutations left no dirty sources")
	}
	if n := s.Flush(); n != len(dirty) {
		t.Fatalf("Flush recomputed %d sources, Dirty promised %d", n, len(dirty))
	}
	if len(s.Dirty()) != 0 {
		t.Fatal("dirty set survives a flush")
	}
	if s.Flush() != 0 {
		t.Fatal("second flush recomputed sources with nothing dirty")
	}
	assertTableEqual(t, s, 11, 25)
}

// TestSessionCloneIsolation asserts the session owns a private overlay: its
// events do not leak into the caller's overlay and vice versa.
func TestSessionCloneIsolation(t *testing.T) {
	sc := traceScenario(t, 2)
	linksBefore := sc.Overlay.NumLinks()
	s := session.New(sc.Overlay, session.Options{})
	links := s.Overlay().Links()
	if err := s.RemoveLink(links[0].From, links[0].To); err != nil {
		t.Fatal(err)
	}
	if sc.Overlay.NumLinks() != linksBefore {
		t.Fatal("session mutation leaked into the caller's overlay")
	}
	if err := sc.Overlay.RemoveLink(links[1].From, links[1].To); err != nil {
		t.Fatal(err)
	}
	if s.Overlay().NumLinks() != linksBefore-1 {
		t.Fatal("caller mutation leaked into the session's overlay")
	}
	assertTableEqual(t, s, 2, 0)
}

// TestSessionAbstractErrorParity asserts the cache-backed abstract build
// fails exactly when the stateless one would: a required service with no
// instance left.
func TestSessionAbstractErrorParity(t *testing.T) {
	ov := overlay.New()
	for _, in := range [][3]int{{1, 1, -1}, {2, 2, -1}, {3, 3, -1}} {
		if err := ov.AddInstance(in[0], in[1], in[2]); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][2]int{{1, 2}, {2, 3}} {
		if err := ov.AddLink(l[0], l[1], 100, 10); err != nil {
			t.Fatal(err)
		}
	}
	req, err := require.NewPath(1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := session.New(ov, session.Options{})
	if _, err := s.Abstract(req); err != nil {
		t.Fatalf("abstract over intact overlay: %v", err)
	}
	if err := s.RemoveInstance(2); err != nil {
		t.Fatal(err)
	}
	_, gerr := s.Abstract(req)
	_, werr := abstract.BuildWorkers(s.Overlay(), req, 1)
	if gerr == nil || werr == nil {
		t.Fatalf("missing required service not rejected: session %v, scratch %v", gerr, werr)
	}
}

// TestSessionRejectsInvalidEvents asserts event methods surface the overlay
// mutators' validation errors without corrupting the caches.
func TestSessionRejectsInvalidEvents(t *testing.T) {
	sc := traceScenario(t, 4)
	s := session.New(sc.Overlay, session.Options{})
	events := s.Stats().Events
	if err := s.AddInstance(sc.SourceNID, 1, -1); err == nil {
		t.Fatal("duplicate NID accepted")
	}
	if err := s.RemoveInstance(99999); err == nil {
		t.Fatal("removal of unknown instance accepted")
	}
	if err := s.RemoveLink(99998, 99999); err == nil {
		t.Fatal("removal of unknown link accepted")
	}
	if err := s.GrowLinkBandwidth(99998, 99999, 5); err == nil {
		t.Fatal("growth of unknown link accepted")
	}
	if got := s.Stats().Events; got != events {
		t.Fatalf("rejected events were counted: %d != %d", got, events)
	}
	assertTableEqual(t, s, 4, 0)
}

// chainOverlay builds instances 1 -> 2 -> 3 -> 4 plus an off-path 5 -> 1,
// one service per instance.
func chainOverlay(t *testing.T) *overlay.Overlay {
	t.Helper()
	ov := overlay.New()
	for nid := 1; nid <= 5; nid++ {
		if err := ov.AddInstance(nid, nid, -1); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][2]int{{1, 2}, {2, 3}, {3, 4}, {5, 1}} {
		if err := ov.AddLink(l[0], l[1], 100, 10); err != nil {
			t.Fatal(err)
		}
	}
	return ov
}

// TestEagerDirtySetIsExactlyTheReaders walks the eager dirty-set contract
// through the session: Dirty is exactly the instances that reach a changed
// node plus joined instances without a row, departed instances never
// count, and Flush recomputes exactly that many sources.
func TestEagerDirtySetIsExactlyTheReaders(t *testing.T) {
	s := session.New(chainOverlay(t), session.Options{Workers: 1})
	step := func(label string, want []int) {
		t.Helper()
		if got := s.Dirty(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: dirty = %v, want %v", label, got, want)
		}
		if n := s.Flush(); n != len(want) {
			t.Fatalf("%s: flush recomputed %d sources, want %d", label, n, len(want))
		}
		if got := s.Dirty(); len(got) != 0 {
			t.Fatalf("%s: dirty set %v survives a flush", label, got)
		}
		assertTableEqual(t, s, 0, 0)
	}
	if got := s.Dirty(); len(got) != 0 {
		t.Fatalf("fresh session has dirty sources %v", got)
	}

	// Out(3) changes: only 1, 2, 3 and 5 reach 3; 4 keeps its row.
	if err := s.ReduceLinkBandwidth(3, 4, 50); err != nil {
		t.Fatal(err)
	}
	step("re-weight", []int{1, 2, 3, 5})

	// Join: the new instance needs its own run; its out-link dirties no
	// one else, the in-link from 4 dirties every reacher of 4.
	if err := s.AddInstance(9, 9, -1); err != nil {
		t.Fatal(err)
	}
	if got := s.Dirty(); !reflect.DeepEqual(got, []int{9}) {
		t.Fatalf("join: dirty = %v, want [9]", got)
	}
	if err := s.AddLink(9, 2, 80, 5); err != nil {
		t.Fatal(err)
	}
	if err := s.AddLink(4, 9, 80, 5); err != nil {
		t.Fatal(err)
	}
	step("join", []int{1, 2, 3, 4, 5, 9})

	// A dirtied source that leaves before the flush is dropped, not run.
	if err := s.GrowLinkBandwidth(1, 2, 5); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveInstance(5); err != nil {
		t.Fatal(err)
	}
	step("dirty source left", []int{1})

	// An instance that comes and goes between flushes costs nothing.
	if err := s.AddInstance(7, 7, -1); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveInstance(7); err != nil {
		t.Fatal(err)
	}
	step("join then leave", nil)
}

// TestIncrementalCounters pins the qos_incremental_* counters the session
// emits: equal to its Stats in eager mode, and in lazy mode one flush per
// evicting flush with nothing recomputed.
func TestIncrementalCounters(t *testing.T) {
	counters := func(reg *metrics.Registry) [3]int64 {
		return [3]int64{
			reg.Counter("qos_incremental_flushes_total").Value(),
			reg.Counter("qos_incremental_recomputed_sources_total").Value(),
			reg.Counter("qos_incremental_saved_sources_total").Value(),
		}
	}
	reg := metrics.New()
	s := session.New(chainOverlay(t), session.Options{Workers: 1, Metrics: reg})
	if err := s.ReduceLinkBandwidth(3, 4, 50); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	// 5 instances, 4 recomputed: one source saved versus a full rebuild.
	if got, want := counters(reg), [3]int64{1, 4, 1}; got != want {
		t.Fatalf("eager counters (flushes, recomputed, saved) = %v, want %v", got, want)
	}
	st := s.Stats()
	if got := [3]int64{st.Flushes, st.RecomputedSources, st.SavedSources}; got != counters(reg) {
		t.Fatalf("stats %v disagree with counters %v", got, counters(reg))
	}

	reg = metrics.New()
	s = session.New(chainOverlay(t), session.Options{Workers: 1, Metrics: reg, Lazy: true})
	if err := s.ReduceLinkBandwidth(3, 4, 50); err != nil {
		t.Fatal(err)
	}
	s.Flush() // nothing materialized: nothing to evict
	s.Table().From(1)
	if err := s.ReduceLinkBandwidth(3, 4, 10); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	if got, want := counters(reg), [3]int64{1, 0, 0}; got != want {
		t.Fatalf("lazy counters (flushes, recomputed, saved) = %v, want %v", got, want)
	}
}

// TestEagerTraceParallelFill replays a churn trace on an eager session whose
// fill fans out over four workers; after every event the table must equal
// the sequential scratch rebuild. `make race-session` runs it under -race.
func TestEagerTraceParallelFill(t *testing.T) {
	events := 200
	if testing.Short() {
		events = 60
	}
	sc := traceScenario(t, 5)
	s := session.New(sc.Overlay, session.Options{Workers: 4})
	churn := session.NewChurn(s, 17, []int{sc.SourceNID}, sc.Req.Services())
	for e := 1; e <= events; e++ {
		if _, err := churn.Step(); err != nil {
			t.Fatalf("event %d: %v", e, err)
		}
		if dirty := s.Dirty(); e%3 == 0 {
			if n := s.Flush(); n != len(dirty) {
				t.Fatalf("event %d: Flush recomputed %d sources, Dirty promised %d", e, n, len(dirty))
			}
		}
		assertTableEqual(t, s, 5, e)
	}
}
