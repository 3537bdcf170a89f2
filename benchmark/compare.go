package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// The verdicts of -compare, per (end-to-end metric, workload).
const (
	verdictOK         = "ok"         // B is not worse than A by more than the bound
	verdictRegressed  = "regressed"  // B is worse than A by more than the bound
	verdictUnresolved = "unresolved" // the measurement's own spread is wider than the bound
	verdictCrossHost  = "cross_host" // the sets come from different hosts or toolchains
)

func loadSet(dir string) (resultSet, error) {
	var s resultSet
	data, err := os.ReadFile(filepath.Join(dir, "results.json"))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", dir, err)
	}
	return s, nil
}

// worseBy is how much worse b is than a, as a share of a; negative when b
// is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// spread is the distance between the quartiles of a metric's parts (the
// set's runs) as a share of their median: how far the measurement disagrees
// with itself.
func spread(m metric) float64 {
	if len(m.Parts) < 2 {
		return 0
	}
	s := append([]float64(nil), m.Parts...)
	sort.Float64s(s)
	med := quantile(s, 0.50)
	if med == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / med
}

// allBetter reports whether every part of b reads better than every part
// of a.
func allBetter(a, b metric, better string) bool {
	if len(a.Parts) == 0 || len(b.Parts) == 0 {
		return false
	}
	for _, x := range a.Parts {
		for _, y := range b.Parts {
			if worseBy(x, y, better) >= 0 {
				return false
			}
		}
	}
	return true
}

// judge gives the verdict for one metric on one workload. A spread wider
// than the bound means the bound cannot be resolved: the pair is reported
// unresolved, not unchanged, unless B wins every part against every part.
func judge(a, b metric, s metricSpec) string {
	if max(spread(a), spread(b)) > s.Bound {
		if allBetter(a, b, s.Better) {
			return verdictOK
		}
		return verdictUnresolved
	}
	if worseBy(a.Value, b.Value, s.Better) > s.Bound {
		return verdictRegressed
	}
	return verdictOK
}

// compareSets prints the verdict table of set B against set A and returns
// the exit status: non-zero on any regression.
func compareSets(dirA, dirB string, spec benchSpec, stdout, stderr io.Writer) int {
	var sets [2]resultSet
	for i, dir := range []string{dirA, dirB} {
		var err error
		if sets[i], err = loadSet(dir); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return compareLoaded(sets[0], sets[1], spec, stdout)
}

func compareLoaded(a, b resultSet, spec benchSpec, stdout io.Writer) int {
	crossHost := a.Provenance.fingerprint() != b.Provenance.fingerprint()
	if crossHost {
		fmt.Fprintf(stdout, "sets come from different fingerprints; nothing is judged\n  A: %s\n  B: %s\n",
			a.Provenance.fingerprint(), b.Provenance.fingerprint())
	}
	status := 0
	fmt.Fprintf(stdout, "%-16s %-16s %14s %14s %9s %8s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "verdict")
	// Every workload both sets hold, sim-sweep included: a full run measures
	// it although the contract's driver does not.
	for _, w := range workloads {
		ra, okA := a.Workloads[w.name]
		rb, okB := b.Workloads[w.name]
		if !okA || !okB {
			continue
		}
		for _, s := range spec.EndToEnd {
			ma, okA := ra.Metrics[s.Name]
			mb, okB := rb.Metrics[s.Name]
			if !okA || !okB {
				continue
			}
			v := judge(ma, mb, s)
			if crossHost {
				v = verdictCrossHost
			}
			if v == verdictRegressed {
				status = 1
			}
			fmt.Fprintf(stdout, "%-16s %-16s %14.4f %14.4f %8.1f%% %7.1f%%  %s\n",
				w.name, s.Name, ma.Value, mb.Value, 100*worseBy(ma.Value, mb.Value, s.Better), 100*s.Bound, v)
		}
		// A failed op is a regression whatever the timings say.
		if !crossHost && rb.Failed > ra.Failed {
			status = 1
			fmt.Fprintf(stdout, "%-16s %-16s %14d %14d %9s %8s  %s\n", w.name, "failed ops", ra.Failed, rb.Failed, "", "0", verdictRegressed)
		}
	}
	return status
}
