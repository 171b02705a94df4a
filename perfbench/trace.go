package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from this package. Spans of
// one end-to-end operation share Req; Parent indexes the causing span (-1 for
// a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
	reqs  int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// newReq allocates a request id for the spans of one end-to-end operation.
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// durations returns the durations in microseconds of every closed span with
// the given name.
func (t *tracer) durations(name string) series {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out series
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// layerOf names the layer of a span: the part of its name before the dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// covered returns how much of [lo, hi) the given intervals cover.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// spanSummary is the self-time and coverage digest of a traced window.
type spanSummary struct {
	// selfUS is each layer's self time per end-to-end operation: the
	// layer's span durations minus the parts their child spans cover.
	selfUS map[string]float64
	// coverage is, per operation kind, the share of the operations' time
	// that child (layer) spans cover.
	coverage map[string]float64
	ops      int
}

// summarize computes self times over the spans descending from end-to-end
// operation roots ("op.<kind>"); shadow calls made only to time a layer are
// left out, since they are not part of any operation.
func (t *tracer) summarize() spanSummary {
	out := spanSummary{selfUS: map[string]float64{}, coverage: map[string]float64{}}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	root := func(i int32) int32 {
		for t.spans[i].Parent >= 0 {
			i = t.spans[i].Parent
		}
		return i
	}
	opTime := map[string]int64{}
	opCovered := map[string]int64{}
	for i, s := range t.spans {
		if s.End < 0 || !strings.HasPrefix(t.spans[root(int32(i))].Name, "op.") {
			continue
		}
		cov := covered(s.Start, s.End, children[int32(i)])
		out.selfUS[layerOf(s.Name)] += float64(s.End-s.Start-cov) / 1e3
		if s.Parent < 0 {
			out.ops++
			kind := strings.TrimPrefix(s.Name, "op.")
			opTime[kind] += s.End - s.Start
			opCovered[kind] += cov
		}
	}
	for l := range out.selfUS {
		out.selfUS[l] /= float64(max(out.ops, 1))
	}
	for kind, d := range opTime {
		out.coverage[kind] = ratio(float64(opCovered[kind]), float64(d))
	}
	return out
}

// dump writes every span as JSON to dir/<name>.json.
func (t *tracer) dump(dir, name string) (string, error) {
	if t == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("encoding spans: %w", err)
	}
	path := filepath.Join(dir, name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}
