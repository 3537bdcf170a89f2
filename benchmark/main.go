// Command benchmark is the repository's one benchmark: seven named
// workloads over the whole stack, end-to-end metrics from an untraced pass,
// per-layer metrics and spans from a traced pass. BENCHMARK.json at the
// repository root is its contract; README.md in this directory explains
// the workloads and how to read the output.
//
// Usage, from the repository root:
//
//	go run ./benchmark -seed 1 -out benchmark/results/a   # all seven workloads, both passes
//	go run ./benchmark -compare benchmark/results/a benchmark/results/b
//	go run ./benchmark -workload lib-deep -seed 3 -seconds 15 -trace 0   # one run, one JSON line
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run this one workload and print one JSON result line (default: all seven, both passes)")
		seed    = fs.Int64("seed", 1, "seed of every generated input: models, activations, arrival times, bit flips")
		seconds = fs.Int("seconds", 0, "length of one timed window (default: run_seconds of "+specFile+")")
		trace   = fs.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
		out     = fs.String("out", "", "directory for results.json, layers.json and trace.jsonl")
		compare = fs.Bool("compare", false, "compare two result sets: -compare <setA> <setB>")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	spec, err := loadSpec()
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result directories"))
		}
		return compareSets(fs.Arg(0), fs.Arg(1), spec, stdout, stderr)
	}
	// The knob would change the executor path of every workload, and with
	// it what each number means.
	if v := os.Getenv("SECULATOR_INFER_PARALLEL"); v != "" {
		return fail(fmt.Errorf("SECULATOR_INFER_PARALLEL=%s is set; unset it to benchmark the default executor path", v))
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	d := time.Duration(*seconds) * time.Second
	e := env{ctx: context.Background(), seed: *seed, nproc: runtime.NumCPU()}

	if *name != "" {
		def, ok := workloadByName(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		var res outcome
		if *trace == 0 {
			res, err = untracedRun(def, e, d, spec)
		} else {
			res, err = perLayerRun(def, e, d, spec)
		}
		if err != nil {
			return fail(err)
		}
		line, err := json.Marshal(res.contractLine())
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(line))
		return 0
	}
	if err := runAll(e, d, spec, *out, stdout); err != nil {
		return fail(err)
	}
	return 0
}

// provenance says where and from what a result set was measured. Sets
// whose fingerprints differ are not judged against each other.
type provenance struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	Seed       int64  `json:"seed"`
	WindowS    int    `json:"window_s"`
}

func (p provenance) fingerprint() string {
	return fmt.Sprintf("%s|%d|%d|%s", p.CPUModel, p.NProc, p.GOMAXPROCS, p.GoVersion)
}

func readProvenance(seed int64, d time.Duration) provenance {
	p := provenance{
		CPUModel: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitCommit: "unknown", Seed: seed, WindowS: int(d.Seconds()),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.GitCommit = strings.TrimSpace(string(rev))
	}
	return p
}

// resultSet is the shape of results.json and layers.json. Probes are the
// per-layer metrics that do not depend on the workload; only layers.json
// has them.
type resultSet struct {
	Provenance provenance         `json:"provenance"`
	Probes     metrics            `json:"probes,omitempty"`
	Workloads  map[string]outcome `json:"workloads"`
}

// perLayerRun is one driver run with -trace 1: the contract wants every
// per-layer metric on one line, so the probes run beside the traced window.
func perLayerRun(def workloadDef, e env, d time.Duration, spec benchSpec) (outcome, error) {
	tr := newTracer()
	probes, err := runProbes(e.ctx, e.nproc, tr)
	if err != nil {
		return outcome{}, err
	}
	res, err := tracedRun(def, e, d, tr)
	if err != nil {
		return outcome{}, err
	}
	if err := conform(spec.PerLayer, probes, res.Metrics); err != nil {
		return outcome{}, fmt.Errorf("%s: %w", def.name, err)
	}
	for name, m := range probes {
		res.Metrics[name] = m
	}
	return res, nil
}

// runAll runs every workload untraced, rounds times over, and prints the
// end-to-end metrics of the median run; then it runs the probes once and
// every workload traced, and prints the per-layer metrics.
func runAll(e env, d time.Duration, spec benchSpec, out string, stdout io.Writer) error {
	prov := readProvenance(e.seed, d)
	results := resultSet{Provenance: prov, Workloads: map[string]outcome{}}
	layers := resultSet{Provenance: prov, Workloads: map[string]outcome{}}

	fmt.Fprintf(stdout, "host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d, window %d s, %d runs\n\n",
		prov.CPUModel, prov.NProc, prov.GOMAXPROCS, prov.GoVersion, prov.GitCommit, prov.Seed, prov.WindowS, rounds)
	perWorkload := map[string][]outcome{}
	for r := 0; r < rounds; r++ {
		for _, def := range workloads {
			res, err := untracedRun(def, e, d, spec)
			if err != nil {
				return err
			}
			perWorkload[def.name] = append(perWorkload[def.name], res)
		}
	}
	for _, def := range workloads {
		res := medianRun(perWorkload[def.name])
		results.Workloads[def.name] = res
		fmt.Fprintf(stdout, "%s: %d ops attempted, %d failed\n", def.name, res.Attempted, res.Failed)
		printMetrics(stdout, spec.EndToEnd, res.Metrics)
	}

	tr := newTracer()
	var err error
	if layers.Probes, err = runProbes(e.ctx, e.nproc, tr); err != nil {
		return err
	}
	for _, def := range workloads {
		res, err := tracedRun(def, e, d, tr)
		if err != nil {
			return err
		}
		if err := conform(spec.PerLayer, layers.Probes, res.Metrics); err != nil {
			return fmt.Errorf("%s: %w", def.name, err)
		}
		layers.Workloads[def.name] = res
	}
	printLayers(stdout, spec.PerLayer, layers)

	if out == "" {
		return nil
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(out, "results.json"), results); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(out, "layers.json"), layers); err != nil {
		return err
	}
	return tr.writeJSONL(filepath.Join(out, "trace.jsonl"))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printMetrics(w io.Writer, specs []metricSpec, m metrics) {
	for _, s := range specs {
		v := m[s.Name]
		fmt.Fprintf(w, "  %-16s %14.4f %-6s n=%d\n", s.Name, v.Value, s.Unit, v.Samples)
	}
	fmt.Fprintln(w)
}

// printLayers prints the probes' metrics once, then one row per metric of
// the traced windows with one column per workload.
func printLayers(w io.Writer, specs []metricSpec, layers resultSet) {
	fmt.Fprintf(w, "%-34s %-10s %15s\n", "per-layer (probes)", "unit", "value")
	for _, s := range specs {
		if m, ok := layers.Probes[s.Name]; ok {
			fmt.Fprintf(w, "%-34s %-10s %15.4f\n", s.Name, s.Unit, m.Value)
		}
	}
	fmt.Fprintf(w, "\n%-34s %-10s", "per-layer (traced windows)", "unit")
	for _, def := range workloads {
		fmt.Fprintf(w, " %15s", def.name)
	}
	fmt.Fprintln(w)
	for _, s := range specs {
		if _, ok := layers.Probes[s.Name]; ok {
			continue
		}
		fmt.Fprintf(w, "%-34s %-10s", s.Name, s.Unit)
		for _, def := range workloads {
			fmt.Fprintf(w, " %15.4f", layers.Workloads[def.name].Metrics[s.Name].Value)
		}
		fmt.Fprintln(w)
	}
}
