package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	sfmetrics "sflow/internal/metrics"
)

// outcome is everything one run measured: the metric values (with the base
// of every ratio), latency sample counts, and the oracle's verdict.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	bases             map[string]string
	samples           map[string]int
	failures          []string
	tracePath         string
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, bases: map[string]string{}, samples: map[string]int{}}
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// setRatio records num/den together with its base.
func (o *outcome) setRatio(name string, num, den float64) {
	o.values[name] = ratio(num, den)
	o.bases[name] = fmt.Sprintf("%g/%g", num, den)
}

// fail counts one failed or oracle-mismatched operation, keeping the first
// few messages for the report.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// windowRec is what one timed window of a workload recorded.
type windowRec struct {
	solve, federate, mutate, admit series // client-observed latency, ms
	others                         int    // operations without a latency metric
	rejected                       int    // admissions the allocator refused
	failedOps                      int    // operations that failed or disagreed with the oracle
	errs                           []string
	allocBytes                     uint64 // allocated inside the operations
	heapPeak                       uint64
	// Traced-run extras recorded by the workloads themselves.
	reqBytes, respBytes series
	rowAllocKB          series
	// Registry deltas over the window (traced runs only).
	reg regValues
	// Calibration kernel rates, units per second (calib.go).
	calib series
	calAt time.Time
}

// ops is every operation the window completed.
func (w *windowRec) ops() int {
	return len(w.solve) + len(w.federate) + len(w.mutate) + len(w.admit) + w.others
}

// reads returns the solve and federate latencies in the order they ran (a
// workload that federates does so once after every solve).
func (w *windowRec) reads() series {
	out := make(series, 0, len(w.solve)+len(w.federate))
	for i, s := range w.solve {
		out = append(out, s)
		if i < len(w.federate) {
			out = append(out, w.federate[i])
		}
	}
	return out
}

// readRate is completed solve/federate operations per second of the reads'
// own busy time: the throughput of one closed-loop client with no think
// time, which is what the workload's reader is.
func (w *windowRec) readRate() float64 {
	reads := w.reads()
	return ratio(float64(len(reads)), reads.sum()/1e3)
}

func (w *windowRec) opErr(format string, args ...any) {
	w.failedOps++
	if len(w.errs) < 10 {
		w.errs = append(w.errs, fmt.Sprintf(format, args...))
	}
}

// msSince returns the time since t in milliseconds.
func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

var (
	allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	heapSample  = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	sampleMu    sync.Mutex
)

// allocNow returns the bytes allocated on the heap since the process started.
func allocNow() uint64 {
	sampleMu.Lock()
	defer sampleMu.Unlock()
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// heapNow returns the heap bytes the last garbage collection marked live.
func heapNow() uint64 {
	sampleMu.Lock()
	defer sampleMu.Unlock()
	metrics.Read(heapSample)
	return heapSample[0].Value.Uint64()
}

// meter watches a timed window's peak live heap, sampled every 5 ms. The live heap is what each collection
// marked reachable; unlike the heap including garbage it does not depend on
// when the collector happens to run.
type meter struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startMeter() *meter {
	m := &meter{stop: make(chan struct{}), done: make(chan struct{})}
	m.peak = heapNow()
	go func() {
		defer close(m.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				m.peak = max(m.peak, heapNow())
			}
		}
	}()
	return m
}

// finish stops the sampler and fills the window's totals.
func (m *meter) finish(w *windowRec) {
	close(m.stop)
	<-m.done
	w.heapPeak = max(m.peak, heapNow())
}

// Registry names the traced run reads at the layer boundaries.
var (
	counterNames = []string{
		"qos_relaxations_total", "qos_shortest_widest_runs_total",
		"qos_lazy_rows_computed_total", "qos_lazy_row_hits_total",
		"qos_lazy_lru_evicted_rows_total", "qos_lazy_dedup_waits_total",
		"qos_incremental_recomputed_sources_total", "qos_incremental_flushes_total",
		"abstract_edges_total", "abstract_builds_total",
		"core_compute_us_total", "core_federations_total",
		"core_wire_tx_bytes_total",
		"daemon_mutations_total", "daemon_epochs_published_total",
	}
	histNames = []string{"session_flush_us", "daemon_publish_us", "daemon_admit_us"}
)

// regValues holds counter values and histogram sums and counts, or their
// increments over a window.
type regValues struct {
	c, hsum, hcnt map[string]float64
}

func readRegistry(reg *sfmetrics.Registry) regValues {
	v := regValues{c: map[string]float64{}, hsum: map[string]float64{}, hcnt: map[string]float64{}}
	if reg == nil {
		return v
	}
	for _, n := range counterNames {
		v.c[n] = float64(reg.Counter(n).Value())
	}
	// The distributed protocol labels delivered messages by transport; the
	// benchmark federates on the DES transport only.
	v.c["core_messages_delivered_total"] = float64(reg.Counter("core_messages_delivered_total",
		sfmetrics.WithLabels(sfmetrics.Label{Name: "transport", Value: "des"})).Value())
	for _, n := range histNames {
		h := reg.Histogram(n, sfmetrics.ExponentialBounds(10, 10, 6), sfmetrics.Volatile())
		v.hsum[n] = float64(h.Sum())
		v.hcnt[n] = float64(h.Count())
	}
	return v
}

// since returns the increments from base to v.
func (v regValues) since(base regValues) regValues {
	d := regValues{c: map[string]float64{}, hsum: map[string]float64{}, hcnt: map[string]float64{}}
	for k, x := range v.c {
		d.c[k] = x - base.c[k]
	}
	for k, x := range v.hsum {
		d.hsum[k] = x - base.hsum[k]
		d.hcnt[k] = v.hcnt[k] - base.hcnt[k]
	}
	return d
}

// bench is one workload instance after set-up.
type bench interface {
	// window runs the workload's script for about d (whole rounds, at least
	// one), recording spans into tr when it is non-nil.
	window(d time.Duration, tr *tracer) *windowRec
	// check runs the output oracle over every answer the windows recorded,
	// counting mismatches into o, and sets quality_cc.
	check(o *outcome)
	close()
}

// workload is one named input regime.
type workload struct {
	name string
	why  string
	// setupReps is how many times a run sets the workload up; setup_s is
	// the median.
	setupReps int
	// setup builds the workload from the seed, returning the bench and the
	// milliseconds spent generating scenarios. reg is non-nil in traced runs.
	setup func(seed int64, reg *sfmetrics.Registry) (bench, float64, error)
}

// spanMetrics maps per-layer metrics to the span whose mean duration they
// report, with the factor from microseconds to the metric's unit.
var spanMetrics = []struct {
	metric, span string
	scale        float64
}{
	{"qos.row_us", "qos.row", 1},
	{"qos.allpairs_us", "qos.allpairs", 1},
	{"qos.freeze_us", "qos.freeze", 1},
	{"abstract.build_us", "abstract.build", 1},
	{"reduce.solve_us", "reduce.solve", 1},
	{"overlay.clone_ms", "overlay.clone", 1e-3},
	{"session.snapshot_ms", "session.snapshot", 1e-3},
	{"daemon.handle_solve_us", "daemon.handle", 1},
}

// runWorkload sets the workload up, runs its timed window(s), checks the
// answers and returns every metric. An untraced run measures the end-to-end
// metrics over the whole window; a traced run measures an untraced half and
// a traced half, and reports the per-layer metrics.
func runWorkload(wl *workload, seed int64, d time.Duration, traced bool, traceDir string) (*outcome, error) {
	var reg *sfmetrics.Registry
	if traced {
		reg = sfmetrics.New()
	}
	var (
		b             bench
		setups, genMS []float64
	)
	loadCalibGraph() // built before anything is timed
	for i := 0; i < wl.setupReps; i++ {
		if b != nil {
			b.close()
			b = nil
		}
		runtime.GC()
		start := time.Now()
		nb, gen, err := wl.setup(seed, reg)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		genMS = append(genMS, gen)
		b = nb
	}
	defer b.close()

	o := newOutcome()
	o.set("setup_s", median(setups))
	runtime.GC()
	if !traced {
		w := b.window(d, nil)
		e2e(o, w)
		account(o, w)
		b.check(o)
		o.setRatio("failed_frac", float64(o.failed), float64(o.attempted))
		return o, nil
	}

	plain := b.window(d/2, nil)
	e2e(o, plain)
	account(o, plain)
	tr := newTracer()
	before := readRegistry(reg)
	w := b.window(d/2, tr)
	w.reg = readRegistry(reg).since(before)
	account(o, w)
	b.check(o)

	layers(o, w, tr)
	path, err := tr.dump(traceDir, fmt.Sprintf("%s-seed%d", wl.name, seed))
	if err != nil {
		return nil, err
	}
	o.tracePath = path
	o.set("scenario.generate_ms", median(genMS))
	o.set("core.federate_p50_ms", o.values["federate_p50_ms"])
	o.set("core.federate_p90_ms", o.values["federate_p90_ms"])
	o.set("provision.admit_p50_ms", o.values["admit_p50_ms"])
	o.set("provision.admit_p90_ms", o.values["admit_p90_ms"])
	o.set("daemon.mutate_p90_ms", o.values["mutate_p90_ms"])
	o.setRatio("failed_frac", float64(o.failed), float64(o.attempted))
	o.setRatio("trace.overhead_frac", plain.readRate()-w.readRate(), plain.readRate())
	return o, nil
}

// account adds a window's operations to the attempted/failed totals; a
// failed operation is among the window's operations too.
func account(o *outcome, w *windowRec) {
	o.attempted += w.ops()
	for _, e := range w.errs {
		o.fail("%s", e)
	}
	o.failed += w.failedOps - len(w.errs)
}

// segmented splits s into contiguous chunks of at least 100 samples (at
// most maxSegments) and returns the median over the chunks of f(chunk). A
// burst of interference from outside the benchmark then moves one chunk's
// figure, not the reported median.
func segmented(s series, f func(series) float64) float64 {
	k := min(maxSegments, max(1, len(s)/100))
	vals := make([]float64, k)
	for i := range vals {
		vals[i] = f(s[i*len(s)/k : (i+1)*len(s)/k])
	}
	return median(vals)
}

// maxSegments is how many chunks a long series is split into.
const maxSegments = 10

func quantileOf(q float64) func(series) float64 {
	return func(s series) float64 { return s.quantile(q) }
}

// e2e sets the end-to-end metrics from an untraced window, its times (and
// the set-up time already in o) at the reference host's speed.
func e2e(o *outcome, w *windowRec) {
	speed := w.hostSpeed()
	o.set("host_speed", speed)
	o.set("setup_s", o.values["setup_s"]*speed)
	o.set("solves_per_s", segmented(w.reads(), func(s series) float64 {
		return ratio(float64(len(s)), s.sum()/1e3)
	})/speed)
	pcts := []struct {
		name string
		s    series
	}{
		{"solve", w.solve}, {"federate", w.federate}, {"mutate", w.mutate}, {"admit", w.admit},
	}
	for _, p := range pcts {
		o.set(p.name+"_p50_ms", segmented(p.s, quantileOf(0.5))*speed)
		o.set(p.name+"_p90_ms", segmented(p.s, quantileOf(0.9))*speed)
		o.samples[p.name] = len(p.s)
	}
	o.set("alloc_kb_per_op", ratio(float64(w.allocBytes)/1024, float64(w.ops())))
	o.set("heap_peak_mb", float64(w.heapPeak)/(1<<20))
}

// layers sets the per-layer metrics from a traced window.
func layers(o *outcome, w *windowRec, tr *tracer) {
	for _, m := range spanMetrics {
		o.set(m.metric, tr.durations(m.span).mean()*m.scale)
	}
	overhead := 0.0
	if h, rtt := tr.durations("daemon.handle"), tr.durations("daemon.rpc_solve"); len(h) > 0 {
		overhead = rtt.quantile(0.5) - h.quantile(0.5)
	}
	o.set("daemon.rpc_overhead_us", overhead)
	o.set("daemon.request_bytes", w.reqBytes.mean())
	o.set("daemon.response_bytes", w.respBytes.mean())
	o.set("qos.row_alloc_kb", w.rowAllocKB.mean())
	o.setRatio("provision.reject_ratio", float64(w.rejected), float64(len(w.admit)))

	c := w.reg.c
	o.setRatio("qos.relax_per_run", c["qos_relaxations_total"], c["qos_shortest_widest_runs_total"])
	o.setRatio("qos.lazy_rows_per_solve", c["qos_lazy_rows_computed_total"], float64(len(w.solve)))
	o.setRatio("qos.lazy_hit_ratio", c["qos_lazy_row_hits_total"],
		c["qos_lazy_row_hits_total"]+c["qos_lazy_rows_computed_total"])
	o.set("qos.lazy_lru_evicted", c["qos_lazy_lru_evicted_rows_total"])
	o.set("qos.lazy_dedup_waits", c["qos_lazy_dedup_waits_total"])
	o.setRatio("qos.recomputed_per_flush", c["qos_incremental_recomputed_sources_total"],
		c["qos_incremental_flushes_total"])
	o.setRatio("abstract.edges_per_build", c["abstract_edges_total"], c["abstract_builds_total"])
	fed := c["core_federations_total"]
	o.setRatio("core.compute_us_per_fed", c["core_compute_us_total"], fed)
	o.setRatio("core.messages_per_fed", c["core_messages_delivered_total"], fed)
	o.setRatio("core.wire_bytes_per_fed", c["core_wire_tx_bytes_total"], fed)
	o.setRatio("daemon.mutations_per_epoch", c["daemon_mutations_total"], c["daemon_epochs_published_total"])
	o.setRatio("session.flush_us", w.reg.hsum["session_flush_us"], w.reg.hcnt["session_flush_us"])
	o.setRatio("daemon.publish_us", w.reg.hsum["daemon_publish_us"], w.reg.hcnt["daemon_publish_us"])
	o.setRatio("provision.admit_us", w.reg.hsum["daemon_admit_us"], w.reg.hcnt["daemon_admit_us"])

	sum := tr.summarize()
	for _, l := range selfLayers {
		o.set("self."+l+"_us", sum.selfUS[l])
	}
	for _, k := range coverageOps {
		o.set("coverage."+k, sum.coverage[k])
	}
}
