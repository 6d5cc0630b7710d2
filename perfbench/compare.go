package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparison reads: each
// end-to-end metric's direction and the share of the parent's median by
// which it may worsen.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runLine is one run's final output line.
type runLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// loadSet reads a result set: a directory of <workload>.jsonl files,
// each line the final output line of one untraced run, in run order.
func loadSet(dir string) (map[string][]runLine, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	set := map[string][]runLine{}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".jsonl")
		if strings.Contains(name, ".") {
			continue // traced runs (<workload>.trace.jsonl) carry no bounds
		}
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(fh)
		for sc.Scan() {
			if strings.TrimSpace(sc.Text()) == "" {
				continue
			}
			var r runLine
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				fh.Close()
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			set[name] = append(set[name], r)
		}
		err = sc.Err()
		fh.Close()
		if err != nil {
			return nil, err
		}
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no <workload>.jsonl result files", dir)
	}
	return set, nil
}

// verdict applies the benchmark's acceptance rule to one metric on one
// workload. Values are oriented so that lower is better.
type verdict struct {
	baseMed, headMed float64
	spread           float64 // larger IQR/median of the two sides
	worse            float64 // (head - base) / base, positive when worse
	wins, pairs      int
	gain             bool
	status           string
}

// judge compares base and head runs of one metric. A gain needs at least
// 9/10 of the pairs (i-th base run with i-th head run) won and medians
// further apart than the base runs' IQR. No-regression holds when the
// head median is not worse than the base median by more than bound; when
// either side's IQR/median exceeds bound, the metric is unresolved
// unless every head run beats every base run.
func judge(base, head []float64, lowerBetter bool, bound float64) verdict {
	if !lowerBetter {
		base, head = negate(base), negate(head)
	}
	var v verdict
	v.baseMed, v.headMed = median(append([]float64(nil), base...)), median(append([]float64(nil), head...))
	bq1, bq3 := quartiles(base)
	hq1, hq3 := quartiles(head)
	v.spread = math.Max((bq3-bq1)/math.Abs(v.baseMed), (hq3-hq1)/math.Abs(v.headMed))
	v.worse = (v.headMed - v.baseMed) / math.Abs(v.baseMed)
	v.pairs = min(len(base), len(head))
	for i := 0; i < v.pairs; i++ {
		if head[i] < base[i] {
			v.wins++
		}
	}
	v.gain = v.pairs > 0 && float64(v.wins) >= 0.9*float64(v.pairs) && v.baseMed-v.headMed > bq3-bq1
	allBetter := len(head) > 0 && len(base) > 0 && slices.Max(head) < slices.Min(base)
	switch {
	case v.spread > bound && !allBetter:
		v.status = "unresolved"
	case v.worse > bound:
		v.status = "REGRESSION"
	default:
		v.status = "ok"
	}
	if !lowerBetter {
		v.baseMed, v.headMed = -v.baseMed, -v.headMed
	}
	return v
}

func negate(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = -x
	}
	return out
}

func failFrac(runs []runLine) float64 {
	var a, f int64
	for _, r := range runs {
		a += r.Attempted
		f += r.Failed
	}
	if a == 0 {
		return math.NaN()
	}
	return float64(f) / float64(a)
}

// compareMain prints, per workload and end-to-end metric, both medians,
// the change, the spread, the pairs won and the verdict, plus fail_frac
// per side. It exits 1 on any regression, any incorrect run, or a
// fail_frac that grew.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <base-results-dir> <head-results-dir>")
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare: run from the repository root:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "compare: BENCHMARK.json:", err)
		return 2
	}
	base, err := loadSet(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	head, err := loadSet(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	names := make([]string, 0, len(base))
	for n := range base {
		if _, ok := head[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	bad := false
	for _, wl := range names {
		b, h := base[wl], head[wl]
		fmt.Printf("== %s (%d base runs, %d head runs)\n", wl, len(b), len(h))
		for _, side := range [][]runLine{b, h} {
			for _, r := range side {
				if !r.Correct {
					bad = true
				}
			}
		}
		bf, hf := failFrac(b), failFrac(h)
		for _, m := range spec.EndToEnd {
			bv, hv := values(b, m.Name), values(h, m.Name)
			if len(bv) == 0 || len(hv) == 0 {
				fmt.Printf("%-22s missing\n", m.Name)
				continue
			}
			v := judge(bv, hv, m.Better == "lower", m.Bound)
			gain := ""
			if v.gain && hf <= bf { // a gain does not count when more ops fail
				gain = " GAIN"
			}
			fmt.Printf("%-22s base %12.4f  head %12.4f  change %+7.2f%% worse  spread %5.2f%%  bound %3.0f%%  won %d/%d  %s%s\n",
				m.Name, v.baseMed, v.headMed, 100*v.worse, 100*v.spread, 100*m.Bound, v.wins, v.pairs, v.status, gain)
			if v.status == "REGRESSION" {
				bad = true
			}
		}
		note := ""
		if hf > bf {
			note = "  WORSE"
			bad = true
		}
		fmt.Printf("%-22s base %12.6f  head %12.6f%s\n", "fail_frac", bf, hf, note)
	}
	if bad {
		return 1
	}
	return 0
}

func values(runs []runLine, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
