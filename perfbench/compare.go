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

// endToEndBound is one end-to-end metric as BENCHMARK.json declares it.
type endToEndBound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // allowed worsening, as a share of the base median
}

// Verdicts of a comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
	// invalid marks a workload where a paired run, base or head, failed an
	// operation or an output check: its numbers are not judged at all, so
	// a change that breaks outputs but runs faster claims no gain.
	invalid = "invalid"
)

// minClaimPairs is the fewest paired runs a claimed improvement needs.
const minClaimPairs = 10

// judge compares paired runs of one metric: base[i] and head[i] ran as
// a pair, in alternating order. A gain is claimed only with at least ten
// pairs, when head wins at least nine tenths of them (ties count for
// neither) and the medians differ by more than the base's interquartile
// range. A regression is a head median worse than the base median by
// more than bound. When either side's spread exceeds bound the metric is
// unresolved, unless every head run beats every base run.
func judge(base, head []float64, better string, bound float64) (verdict string, wins, pairs int) {
	pairs = min(len(base), len(head))
	base, head = base[:pairs], head[:pairs]
	if pairs == 0 {
		return unresolved, 0, 0
	}
	// Work in "cost" orientation: smaller is better.
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	for i := range base {
		if sign*head[i] < sign*base[i] {
			wins++
		}
	}
	bMed, hMed := median(base), median(head)
	bq1, bq3 := quartiles(base)
	hq1, hq3 := quartiles(head)
	spread := func(q1, q3, m float64) float64 {
		if m == 0 {
			return 0
		}
		return (q3 - q1) / math.Abs(m)
	}
	worstHead, bestBase := sign*head[0], sign*base[0]
	for i := range base {
		worstHead = math.Max(worstHead, sign*head[i])
		bestBase = math.Min(bestBase, sign*base[i])
	}
	allBetter := worstHead < bestBase
	gain := pairs >= minClaimPairs && wins*10 >= 9*pairs &&
		sign*(hMed-bMed) < 0 && math.Abs(hMed-bMed) > bq3-bq1
	switch {
	case (spread(bq1, bq3, bMed) > bound || spread(hq1, hq3, hMed) > bound) && !allBetter:
		return unresolved, wins, pairs
	case gain:
		return improved, wins, pairs
	case sign*(hMed-bMed) > bound*math.Abs(bMed):
		return regressed, wins, pairs
	}
	return unchanged, wins, pairs
}

// compareFiles prints a verdict for every (workload, end-to-end metric)
// pair of two -json files; it exits non-zero when any regressed or was
// invalid.
func compareFiles(specPath, basePath, headPath string, stdout, stderr io.Writer) int {
	var spec struct {
		EndToEnd []endToEndBound `json:"end_to_end"`
	}
	data, err := os.ReadFile(specPath)
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: reading %s: %v\n", specPath, err)
		return 2
	}
	base, err := readRecords(basePath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	head, err := readRecords(headPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	var ws []string
	for w := range base {
		ws = append(ws, w)
	}
	sort.Strings(ws)
	code := 0
	for _, w := range ws {
		if head[w] == nil {
			fmt.Fprintf(stdout, "%s: no runs in %s\n", w, headPath)
			continue
		}
		n := min(len(base[w]), len(head[w]))
		bs, hs := base[w][:n], head[w][:n]
		bFailed, hFailed := failures(bs), failures(hs)
		for _, m := range spec.EndToEnd {
			b, h := values(bs, m.Name), values(hs, m.Name)
			v, wins, pairs := judge(b, h, m.Better, m.Bound)
			if bFailed+hFailed > 0 {
				v = invalid
			}
			if v == regressed || v == invalid {
				code = 1
			}
			bq1, bq3 := quartiles(b)
			hq1, hq3 := quartiles(h)
			fmt.Fprintf(stdout, "%s %s %s base=%.6g [%.6g, %.6g] head=%.6g [%.6g, %.6g] wins=%d/%d bound=%g failed=%d/%d\n",
				w, m.Name, v, median(b), bq1, bq3, median(h), hq1, hq3, wins, pairs, m.Bound, bFailed, hFailed)
		}
	}
	return code
}

// readRecords loads the untraced records of a -json file by workload, in
// file order.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]record)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return out, nil
}

// failures counts the failed operations of rs; a run that reported itself
// incorrect counts at least one.
func failures(rs []record) int {
	n := 0
	for _, r := range rs {
		if r.Failed > 0 {
			n += r.Failed
		} else if !r.Correct {
			n++
		}
	}
	return n
}

func values(rs []record, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
