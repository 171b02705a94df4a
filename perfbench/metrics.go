package main

import (
	"math"
	"sort"
)

// metricDef is one named metric of the benchmark. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics carry no bound.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics a user of sflow sees, measured with tracing off on
// every workload; the JSON result line of an untraced run carries exactly
// these. BENCHMARK.json lists the same names, units and bounds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"solves_per_s", "1/s", "higher", 0.25},
	{"solve_p50_ms", "ms", "lower", 0.25},
	{"solve_p90_ms", "ms", "lower", 0.25},
	{"mutate_p50_ms", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.2},
}

// workloadOnly are end-to-end metrics that only some workloads can measure
// (the distributed protocol does not federate a 20k-node overlay, and only
// serve-churn admits tenants). Every run prints them in its table, the
// compare mode judges them, and the traced run repeats them under a layer
// name so they stay in the recorded result.
var workloadOnly = []metricDef{
	{"federate_p50_ms", "ms", "lower", 0},
	{"federate_p90_ms", "ms", "lower", 0},
	{"mutate_p90_ms", "ms", "lower", 0},
	{"admit_p50_ms", "ms", "lower", 0},
	{"admit_p90_ms", "ms", "lower", 0},
	{"quality_cc", "ratio", "higher", 0},
	{"heap_peak_mb", "MiB", "lower", 0},
	{"failed_frac", "ratio", "lower", 0},
	{"host_speed", "ratio", "higher", 0},
}

// perLayer are the metrics of the traced run: timings of calls into one
// layer's public functions made from this package, the program's own
// metrics.Registry counters read at the layer boundaries, and the span
// summary. A metric is 0 on a workload where its layer does no work; see
// METRICS.md for where each one works and which end-to-end metric it moves.
var perLayer = []metricDef{
	{"qos.row_us", "us", "lower", 0},
	{"qos.allpairs_us", "us", "lower", 0},
	{"qos.freeze_us", "us", "lower", 0},
	{"qos.relax_per_run", "count", "lower", 0},
	{"qos.lazy_rows_per_solve", "count", "lower", 0},
	{"qos.lazy_hit_ratio", "ratio", "higher", 0},
	{"qos.lazy_lru_evicted", "count", "lower", 0},
	{"qos.lazy_dedup_waits", "count", "lower", 0},
	{"qos.row_alloc_kb", "KiB", "lower", 0},
	{"qos.recomputed_per_flush", "count", "lower", 0},
	{"abstract.build_us", "us", "lower", 0},
	{"abstract.edges_per_build", "count", "lower", 0},
	{"reduce.solve_us", "us", "lower", 0},
	{"reduce.quality_cc", "ratio", "higher", 0},
	{"core.federate_p50_ms", "ms", "lower", 0},
	{"core.federate_p90_ms", "ms", "lower", 0},
	{"core.compute_us_per_fed", "us", "lower", 0},
	{"core.messages_per_fed", "count", "lower", 0},
	{"core.wire_bytes_per_fed", "B", "lower", 0},
	{"overlay.clone_ms", "ms", "lower", 0},
	{"session.snapshot_ms", "ms", "lower", 0},
	{"session.flush_us", "us", "lower", 0},
	{"daemon.handle_solve_us", "us", "lower", 0},
	{"daemon.rpc_overhead_us", "us", "lower", 0},
	{"daemon.request_bytes", "B", "lower", 0},
	{"daemon.response_bytes", "B", "lower", 0},
	{"daemon.publish_us", "us", "lower", 0},
	{"daemon.mutations_per_epoch", "count", "higher", 0},
	{"daemon.mutate_p90_ms", "ms", "lower", 0},
	{"provision.admit_us", "us", "lower", 0},
	{"provision.admit_p50_ms", "ms", "lower", 0},
	{"provision.admit_p90_ms", "ms", "lower", 0},
	{"provision.reject_ratio", "ratio", "lower", 0},
	{"scenario.generate_ms", "ms", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"self.op_us", "us", "lower", 0},
	{"self.qos_us", "us", "lower", 0},
	{"self.abstract_us", "us", "lower", 0},
	{"self.reduce_us", "us", "lower", 0},
	{"self.core_us", "us", "lower", 0},
	{"self.session_us", "us", "lower", 0},
	{"self.daemon_us", "us", "lower", 0},
	{"coverage.solve", "ratio", "higher", 0},
	{"coverage.federate", "ratio", "higher", 0},
	{"coverage.mutate", "ratio", "higher", 0},
	{"coverage.admit", "ratio", "higher", 0},
}

// selfLayers are the span layers the traced run reports self time for, in
// the order of the self.* metrics above.
var selfLayers = []string{"op", "qos", "abstract", "reduce", "core", "session", "daemon"}

// coverageOps are the end-to-end operation kinds the traced run reports span
// coverage for.
var coverageOps = []string{"solve", "federate", "mutate", "admit"}

// lookupDef finds a metric by name in any of the tables.
func lookupDef(name string) (metricDef, bool) {
	for _, tab := range [][]metricDef{endToEnd, workloadOnly, perLayer} {
		for _, d := range tab {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// series collects latency samples in milliseconds.
type series []float64

// quantile returns the q-quantile by linear interpolation between order
// statistics (0 for an empty series).
func (s series) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(series(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

// sum returns the total of the samples.
func (s series) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// mean returns the average sample (0 for an empty series).
func (s series) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// ratio divides guarding a zero denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median returns the median of vs (0 when empty).
func median(vs []float64) float64 { return series(vs).quantile(0.5) }
