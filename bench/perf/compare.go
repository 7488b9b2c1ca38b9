package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// loadRecords reads a result file: a JSON list of run records.
func loadRecords(path string) ([]*runRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []*runRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, r := range recs {
		if r.Schema != schema {
			return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, schema)
		}
	}
	return recs, nil
}

// appendRecords adds recs to the list in path, creating it if need be, so
// repeated runs accumulate into one file -compare can take a spread from.
func appendRecords(path string, recs []*runRecord) error {
	var all []*runRecord
	if _, err := os.Stat(path); err == nil {
		if all, err = loadRecords(path); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(append(all, recs...), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// byWorkload groups records, keeping first-seen workload order.
func byWorkload(recs []*runRecord) ([]string, map[string][]*runRecord) {
	var order []string
	groups := make(map[string][]*runRecord)
	for _, r := range recs {
		if _, ok := groups[r.Workload]; !ok {
			order = append(order, r.Workload)
		}
		groups[r.Workload] = append(groups[r.Workload], r)
	}
	return order, groups
}

func values(recs []*runRecord, metric string) []float64 {
	out := make([]float64, 0, len(recs))
	for _, r := range recs {
		out = append(out, r.Metrics[metric].Value)
	}
	return out
}

// runSpread is the run-to-run spread of a metric as a share of its median:
// the interquartile range from four runs up, the full range for two or
// three, and for a single run the interquartile range of its own trials.
func runSpread(recs []*runRecord, metric string) float64 {
	v := values(recs, metric)
	switch {
	case len(v) >= 4:
		q1, q3 := quartiles(v)
		return (q3 - q1) / median(v)
	case len(v) >= 2:
		lo, hi := minMax(v)
		return (hi - lo) / median(v)
	}
	m := recs[0].Metrics[metric]
	if m.Median == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / m.Median
}

// judge applies one metric's bound, direction-aware. A spread wider than the
// bound leaves the comparison unresolved unless every new run reads better
// than every old one.
func judge(m metricDef, old, cur []*runRecord) (verdict string, worse, spread float64) {
	ov, cv := values(old, m.name), values(cur, m.name)
	worse = m.worseBy(median(ov), median(cv))
	spread = max(runSpread(old, m.name), runSpread(cur, m.name))
	if spread > m.bound {
		olo, ohi := minMax(ov)
		clo, chi := minMax(cv)
		if (m.lower && chi < olo) || (!m.lower && clo > ohi) {
			return "improved", worse, spread
		}
		return "unresolved", worse, spread
	}
	switch {
	case worse > m.bound:
		return "REGRESSION", worse, spread
	case worse < -m.bound:
		return "improved", worse, spread
	}
	return "ok", worse, spread
}

// compareFiles prints one row per workload and metric and returns the exit
// code: 1 when any metric regressed, or when the two files do not hold the
// same workloads at the same scale.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	old, err := loadRecords(oldPath)
	if err == nil && len(old) == 0 {
		err = fmt.Errorf("%s: no runs", oldPath)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perf: %v\n", err)
		return 2
	}
	cur, err := loadRecords(newPath)
	if err == nil && len(cur) == 0 {
		err = fmt.Errorf("%s: no runs", newPath)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perf: %v\n", err)
		return 2
	}
	order, oldBy := byWorkload(old)
	_, curBy := byWorkload(cur)
	code := 0
	fmt.Fprintf(stdout, "%-18s %-26s %14s %14s %9s %8s %7s  %s\n",
		"workload", "metric", "old median", "new median", "worse by", "spread", "bound", "verdict")
	for _, wl := range order {
		o, c := oldBy[wl], curBy[wl]
		if len(c) == 0 {
			fmt.Fprintf(stderr, "perf: workload %s is missing from %s\n", wl, newPath)
			code = 1
			continue
		}
		if o[0].Scale != c[0].Scale {
			fmt.Fprintf(stderr, "perf: workload %s ran at scale %s then %s\n", wl, o[0].Scale, c[0].Scale)
			code = 1
			continue
		}
		for _, m := range runMetrics {
			verdict, worse, spread := judge(m, o, c)
			fmt.Fprintf(stdout, "%-18s %-26s %14.4f %14.4f %+8.1f%% %7.1f%% %6.1f%%  %s\n",
				wl, m.name, median(values(o, m.name)), median(values(c, m.name)), worse*100, spread*100, m.bound*100, verdict)
			if verdict == "REGRESSION" {
				code = 1
			}
		}
		if o[0].OpsFailed < c[0].OpsFailed {
			fmt.Fprintf(stdout, "%-18s more operations failed: %d then %d\n", wl, o[0].OpsFailed, c[0].OpsFailed)
			code = 1
		}
	}
	return code
}

// noiseTable renders, per workload and metric, how far repeated runs of the
// same code disagree, as markdown. With fewer than eight runs a metric is
// steady when (max-min)/median stays within half its bound; from eight runs
// up, when the interquartile range over the median stays within a third of
// it, which is how the benchmark's driver takes the spread. Only an
// end-to-end metric over its limit fails the check; a demoted one is marked.
func noiseTable(recs []*runRecord) (string, bool) {
	var b strings.Builder
	ok := true
	order, groups := byWorkload(recs)
	fmt.Fprintf(&b, "| workload | metric | runs | median | (max-min)/median | IQR/median | limit | verdict |\n")
	fmt.Fprintf(&b, "|---|---|---:|---:|---:|---:|---:|---|\n")
	for _, wl := range order {
		rs := groups[wl]
		for _, m := range runMetrics {
			v := values(rs, m.name)
			lo, hi := minMax(v)
			q1, q3 := quartiles(v)
			med := median(v)
			rng, iqr := (hi-lo)/med, (q3-q1)/med
			limit, got, rule := m.bound/2, rng, "range"
			if len(v) >= 8 {
				limit, got, rule = m.bound/3, iqr, "IQR"
			}
			verdict := "ok"
			switch {
			case got > limit && m.demoted:
				verdict = "noisy (per-layer)"
			case got > limit:
				verdict = "NOISY"
				ok = false
			}
			fmt.Fprintf(&b, "| %s | %s | %d | %.4f | %.2f%% | %.2f%% | %s <= %.2f%% | %s |\n",
				wl, m.name, len(v), med, rng*100, iqr*100, rule, limit*100, verdict)
		}
	}
	return b.String(), ok
}
