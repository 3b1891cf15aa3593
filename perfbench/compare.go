package main

// Compare mode: two result sets (the concatenated stdout of several
// runs each) side by side, per workload and metric, judged by one rule:
// a difference counts only when one side wins at least nine tenths of
// the pairs and the medians differ by more than the base side's
// inter-quartile spread.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// resultSet maps workload → metric → samples in run order.
type resultSet map[string]map[string][]float64

// readResultSet parses a file of perfbench output: each result line is
// attributed to the workload named by the provenance line before it.
func readResultSet(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := resultSet{}
	workload := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var rec struct {
			Provenance *provenance            `json:"provenance"`
			Metrics    map[string]metricValue `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		switch {
		case rec.Provenance != nil:
			workload = rec.Provenance.Workload
		case rec.Metrics != nil:
			if workload == "" {
				return nil, fmt.Errorf("%s: result line before any provenance line", path)
			}
			if rs[workload] == nil {
				rs[workload] = map[string][]float64{}
			}
			for name, mv := range rec.Metrics {
				rs[workload][name] = append(rs[workload][name], mv.Value)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// verdict applies that rule to one metric. Pairs are (base[i], new[i])
// in run order, so runs should alternate sides.
type verdict struct {
	baseQ, newQ [3]float64
	won, pairs  int // pairs where new is better, of pairs without a tie
	lost        int
	change      string // "better", "worse" or "same"
}

func judge(base, next []float64, higher bool) (verdict, error) {
	var v verdict
	var err error
	if v.baseQ[0], v.baseQ[1], v.baseQ[2], err = quartiles(base); err != nil {
		return v, err
	}
	if v.newQ[0], v.newQ[1], v.newQ[2], err = quartiles(next); err != nil {
		return v, err
	}
	n := min(len(base), len(next))
	for i := 0; i < n; i++ {
		d := next[i] - base[i]
		if !higher {
			d = -d
		}
		switch {
		case d > 0:
			v.won++
		case d < 0:
			v.lost++
		}
	}
	v.pairs = n
	spread := v.baseQ[2] - v.baseQ[0]
	diff := v.newQ[1] - v.baseQ[1]
	improved := diff > 0 == higher
	v.change = "same"
	if abs(diff) > spread && n > 0 {
		switch {
		case improved && 10*v.won >= 9*n:
			v.change = "better"
		case !improved && 10*v.lost >= 9*n:
			v.change = "worse"
		}
	}
	return v, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// compareMode prints the comparison and returns 3 when an end-to-end
// metric got worse, 1 on a read error, and 0 otherwise.
func compareMode(w io.Writer, basePath, newPath string) int {
	base, err := readResultSet(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	next, err := readResultSet(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	specs := map[string]metricSpec{}
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		specs[m.name] = m
		e2e[m.name] = true
	}
	for _, m := range perLayer {
		specs[m.name] = m
	}
	var names []string
	for wl := range base {
		if next[wl] != nil {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\tnew median [q1, q3]\tdelta\tnew won\tverdict")
	worse := false
	for _, wl := range names {
		var metrics []string
		for m := range base[wl] {
			if _, ok := next[wl][m]; ok {
				metrics = append(metrics, m)
			}
		}
		sort.Slice(metrics, func(i, j int) bool {
			if e2e[metrics[i]] != e2e[metrics[j]] {
				return e2e[metrics[i]]
			}
			return metrics[i] < metrics[j]
		})
		for _, m := range metrics {
			spec, ok := specs[m]
			if !ok {
				continue
			}
			v, err := judge(base[wl][m], next[wl][m], spec.higher)
			if err != nil {
				fmt.Fprintf(tw, "%s\t%s\t(%v)\t\t\t\t\n", wl, m, err)
				continue
			}
			delta := "n/a"
			if v.baseQ[1] != 0 {
				delta = fmt.Sprintf("%+.2f%%", 100*(v.newQ[1]-v.baseQ[1])/v.baseQ[1])
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%s\t%d/%d\t%s\n",
				wl, m, v.baseQ[1], v.baseQ[0], v.baseQ[2], v.newQ[1], v.newQ[0], v.newQ[2],
				delta, v.won, v.pairs, v.change)
			if e2e[m] && v.change == "worse" {
				worse = true
			}
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if worse {
		return 3
	}
	return 0
}
