package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadResults reads every result file in dir (span files are skipped).
func loadResults(dir string) ([]result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []result
	for _, p := range paths {
		if strings.HasSuffix(p, ".spans.json") {
			continue
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// quartiles returns the three cut points of v into four groups, computed
// as Python's statistics.quantiles(v, n=4) does (its default "exclusive"
// method).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// set is the results of one workload in one directory.
type set struct {
	untraced, traced  []result
	attempted, failed int
}

func group(rs []result) map[string]*set {
	g := map[string]*set{}
	for _, r := range rs {
		s := g[r.Workload]
		if s == nil {
			s = &set{}
			g[r.Workload] = s
		}
		if r.Trace {
			s.traced = append(s.traced, r)
			continue
		}
		s.untraced = append(s.untraced, r)
		s.attempted += r.Attempted
		s.failed += r.Failed
	}
	return g
}

func values(rs []result, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if m, ok := r.EndToEnd[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// runCompare checks the untraced results in one directory for spread, or
// in two directories against each other, with the bounds of
// BENCHMARK.json; it also reports the tracing overhead where a directory
// holds traced runs. It exits 1 when a check fails.
func runCompare(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition with the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: lifebench compare [-bench BENCHMARK.json] DIR_A [DIR_B]")
		return 2
	}
	spec, err := loadSpec(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lifebench:", err)
		return 2
	}
	var sets []map[string]*set
	for _, dir := range fs.Args() {
		rs, err := loadResults(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lifebench:", err)
			return 2
		}
		sets = append(sets, group(rs))
	}
	ok := true
	bad := func(format string, a ...any) {
		ok = false
		fmt.Fprintf(w, "FAIL "+format+"\n", a...)
	}
	for _, wl := range spec.Workloads {
		fmt.Fprintf(w, "== %s\n", wl.Name)
		for si, g := range sets {
			s := g[wl.Name]
			if s == nil || len(s.untraced) == 0 {
				bad("%s: no untraced results in %s", wl.Name, fs.Arg(si))
				continue
			}
			for _, r := range s.untraced {
				if !r.Correct {
					bad("%s: seed %d in %s failed its output checks: %v", wl.Name, r.Seed, fs.Arg(si), r.CheckErrs)
				}
			}
			fmt.Fprintf(w, "set %s: %d runs, %d/%d operations failed\n", fs.Arg(si), len(s.untraced), s.failed, s.attempted)
		}
		for _, m := range spec.EndToEnd {
			var meds []float64
			for si, g := range sets {
				s := g[wl.Name]
				if s == nil {
					continue
				}
				v := values(s.untraced, m.Name)
				q1, q2, q3 := quartiles(v)
				spread := (q3 - q1) / q2
				meds = append(meds, q2)
				fmt.Fprintf(w, "  %-14s set %d  median %12.6g %-5s  IQR/median %6.2f%%  (bound %.0f%%)\n", m.Name, si+1, q2, m.Unit, 100*spread, 100*m.Bound)
				if m.Name != "setup_s" && !(spread <= m.Bound) {
					bad("%s %s: spread %.2f%% exceeds the bound %.0f%%", wl.Name, m.Name, 100*spread, 100*m.Bound)
				}
				if len(s.traced) > 0 && q2 != 0 {
					tv := values(s.traced, m.Name)
					fmt.Fprintf(w, "  %-14s set %d  traced median %12.6g  tracing overhead %+.2f%% (%d traced runs)\n", m.Name, si+1, median(tv), 100*(median(tv)/q2-1), len(tv))
				}
			}
			if len(meds) == 2 {
				worse := (meds[1] - meds[0]) / meds[0]
				if m.Better == "higher" {
					worse = -worse
				}
				fmt.Fprintf(w, "  %-14s set 2 vs 1: %+.2f%% worse\n", m.Name, 100*worse)
				if worse > m.Bound || math.IsNaN(worse) {
					bad("%s %s: set 2 is %.2f%% worse than set 1 (bound %.0f%%)", wl.Name, m.Name, 100*worse, 100*m.Bound)
				}
			}
		}
		if len(sets) == 2 {
			a, b := sets[0][wl.Name], sets[1][wl.Name]
			if a != nil && b != nil && a.failed*b.attempted != b.failed*a.attempted {
				bad("%s: failed shares differ: %d/%d vs %d/%d", wl.Name, a.failed, a.attempted, b.failed, b.attempted)
			}
		}
	}
	if !ok {
		return 1
	}
	fmt.Fprintln(w, "ok")
	return 0
}
