package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"seculator/internal/serve/loadgen"
)

// specFile is the benchmark's contract, at the repository root. It is the
// one place metric names, units, directions and regression bounds are
// written down: the harness reads them from there at start-up, so a metric
// the code measures but the contract does not list (or the reverse) is an
// error at the first run, not a silent drift.
const specFile = "BENCHMARK.json"

// metricSpec is one metric of the contract. Bound is the share of the
// parent's median by which an end-to-end metric may get worse; per-layer
// metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchSpec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func loadSpec() (benchSpec, error) {
	data, err := os.ReadFile(specFile)
	if err != nil {
		return benchSpec{}, fmt.Errorf("reading the contract (run from the repository root): %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return benchSpec{}, fmt.Errorf("parsing %s: %w", specFile, err)
	}
	return s, nil
}

// metric is one measured value as it is written to results.json and
// layers.json. Parts are the values of the runs the value is the median of;
// -compare reads their spread to tell a regression from noise.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples int       `json:"samples"`
	Parts   []float64 `json:"parts,omitempty"`
}

type metrics map[string]metric

// conform holds what was measured, in one or more disjoint sets, to the
// contract's list and stamps it with the contract's units. A listed metric
// nobody measured, or a measured one the contract does not list, is a
// harness bug.
func conform(specs []metricSpec, measured ...metrics) error {
	total := 0
	for _, m := range measured {
		total += len(m)
	}
	for _, s := range specs {
		found := false
		for _, set := range measured {
			if m, ok := set[s.Name]; ok {
				m.Unit = s.Unit
				set[s.Name] = m
				found = true
			}
		}
		if !found {
			return fmt.Errorf("metric %q is in %s but was not measured", s.Name, specFile)
		}
	}
	if total != len(specs) {
		return fmt.Errorf("%d metrics were measured, %s lists %d", total, specFile, len(specs))
	}
	return nil
}

// quantile is loadgen.Percentile's nearest-rank rule applied to an
// ascending float series: the rule ranks the index series and the rank
// picks the value, so the repository keeps a single rank formula.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := make([]time.Duration, len(sorted))
	for i := range idx {
		idx[i] = time.Duration(i)
	}
	return sorted[loadgen.Percentile(idx, p)]
}
