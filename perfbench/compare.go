package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareMain compares two result sets of the same workloads, written by
// runs with --out: for each workload and metric it prints both sides'
// medians and quartiles, the share of run pairs the head side wins, and a
// verdict. Runs pair up in seed order, so the two sets should use the same
// seeds.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare BASE.jsonl HEAD.jsonl")
		return 2
	}
	base, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	head, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%-12s %-26s %-6s %28s %28s %8s %22s  %s\n",
		"workload", "metric", "unit", "base median [q1, q3]", "head median [q1, q3]", "wins", "change (head-base)/base", "verdict")
	for _, group := range sortedKeys(base) {
		hs, ok := head[group]
		if !ok {
			continue
		}
		bs := base[group]
		for _, name := range metricNames(bs, hs) {
			d, _ := lookupDef(name)
			b, h := values(bs, name), values(hs, name)
			if allZero(b) && allZero(h) {
				continue // the workload does not run this metric's operations
			}
			c := judge(d, b, h)
			fmt.Fprintf(stdout, "%-12s %-26s %-6s %28s %28s %8s %22s  %s\n", bs[0].Workload, name, d.Unit,
				fmt.Sprintf("%.5g [%.5g, %.5g]", c.baseMed, c.baseQ[0], c.baseQ[2]),
				fmt.Sprintf("%.5g [%.5g, %.5g]", c.headMed, c.headQ[0], c.headQ[2]),
				fmt.Sprintf("%d/%d", c.wins, c.pairs),
				fmt.Sprintf("%+.4f (%.5g/%.5g)", ratio(c.headMed-c.baseMed, math.Abs(c.baseMed)), c.headMed-c.baseMed, c.baseMed),
				c.verdict)
		}
	}
	return 0
}

// readRecords loads a JSON-lines result set, grouped by workload and trace
// mode and sorted by seed within each group.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		key := fmt.Sprintf("%s/trace=%d", r.Workload, r.Trace)
		out[key] = append(out[key], r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, rs := range out {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	return out, nil
}

// metricNames lists, in table order, the metrics both sides recorded.
func metricNames(a, b []record) []string {
	var out []string
	for _, tab := range [][]metricDef{endToEnd, workloadOnly, perLayer} {
		for _, d := range tab {
			if _, ok := a[0].All[d.Name]; !ok {
				continue
			}
			if _, ok := b[0].All[d.Name]; ok {
				out = append(out, d.Name)
			}
		}
	}
	return out
}

func allZero(vs []float64) bool {
	for _, v := range vs {
		if v != 0 {
			return false
		}
	}
	return true
}

func values(rs []record, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.All[name].Value
	}
	return out
}

// comparison is one workload x metric judgement.
type comparison struct {
	baseMed, headMed float64
	baseQ, headQ     [3]float64
	wins, pairs      int
	verdict          string
}

// quartiles returns the quartiles of vs as Python's
// statistics.quantiles(vs, n=4) computes them (its default "exclusive"
// method), which is how the benchmark's spread is defined.
func quartiles(vs []float64) [3]float64 {
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := len(d) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

// judge applies the measuring rule: a gain needs the head side to win at
// least nine tenths of the run pairs (ties count for neither) and the
// medians to differ by more than the base side's own quartile spread. A
// metric with a bound is worse when the head median is worse than the base
// median by more than the bound, and unresolved when the base runs spread
// wider than the bound, unless every head run beats every base run. A
// metric without a bound is worse by the mirror of the gain rule.
func judge(d metricDef, base, head []float64) comparison {
	c := comparison{baseQ: quartiles(base), headQ: quartiles(head)}
	c.baseMed, c.headMed = c.baseQ[1], c.headQ[1]
	higher := d.Better == "higher"
	better := func(h, b float64) bool {
		if higher {
			return h > b
		}
		return h < b
	}
	losses := 0
	c.pairs = min(len(base), len(head))
	for i := 0; i < c.pairs; i++ {
		switch {
		case better(head[i], base[i]):
			c.wins++
		case better(base[i], head[i]):
			losses++
		}
	}
	diff := math.Abs(c.headMed - c.baseMed)
	spread := c.baseQ[2] - c.baseQ[0]
	nine := func(n int) bool { return c.pairs > 0 && 10*n >= 9*c.pairs }
	allBetter := len(head) > 0 && len(base) > 0
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	switch {
	case better(c.headMed, c.baseMed) && nine(c.wins) && diff > spread:
		c.verdict = "improved"
	case d.Bound > 0 && better(c.baseMed, c.headMed) && diff > d.Bound*math.Abs(c.baseMed):
		c.verdict = "worse"
	case d.Bound > 0 && spread > d.Bound*math.Abs(c.baseMed) && !allBetter:
		c.verdict = "unresolved"
	case d.Bound == 0 && better(c.baseMed, c.headMed) && nine(losses) && diff > spread:
		c.verdict = "worse"
	case d.Bound == 0 && diff > spread:
		c.verdict = "unresolved"
	default:
		c.verdict = "unchanged"
	}
	return c
}
