// Command perfbench is the repository's end-to-end benchmark. It builds a
// seeded corpus, measures one workload for a fixed time, checks every
// output against a reference computed outside timing, and prints one JSON
// result as its last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// same workload runs with tracing wrappers and timed layer replays and the
// metrics are the per-layer ones. BENCHMARK.json at the repository root
// lists both sets; README.md next to this file defines each metric.
//
//	go run . --workload landscape-scan --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every corpus size; the self-test runs at a tiny
	// scale, the command at 1.
	scale   float64
	workDir string
	// tamper corrupts the reference verdicts so the run must fail; only
	// the self-test sets it.
	tamper bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run produces.
type result struct {
	Attempted int64
	Failed    int64
	Metrics   map[string]metric
	// Detail holds sample counts, distributions and run facts printed on
	// the line before the result.
	Detail map[string]any
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(key string, v any) {
	if r.Detail == nil {
		r.Detail = make(map[string]any)
	}
	r.Detail[key] = v
}

// account tallies verified operations across a run.
type account struct{ attempted, failed int64 }

func (a *account) add(attempted, failed int64) {
	a.attempted += attempted
	a.failed += failed
}

var workloads = map[string]func(config) (*result, error){
	"landscape-scan": func(c config) (*result, error) { return runScan(c, landscapeSpec) },
	"distinct-scan":  func(c config) (*result, error) { return runScan(c, distinctSpec) },
	"serve-mixed":    runServe,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "landscape-scan | distinct-scan | serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "corpus and schedule seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured time of the run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer variant")
	flag.StringVar(&cfg.workDir, "workdir", filepath.Join(".bench_build", "work"), "scratch directory for stores and span files")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.scale = 1

	ok, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed")
		os.Exit(1)
	}
}

// run executes one workload and prints its detail line and result line.
// It reports whether every output matched the reference.
func run(cfg config, out io.Writer) (bool, error) {
	wl, found := workloads[cfg.workload]
	if !found {
		return false, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 || cfg.scale <= 0 {
		return false, fmt.Errorf("--seconds and --scale must be positive")
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return false, err
	}
	res, err := wl(cfg)
	if err != nil {
		return false, err
	}
	res.note("host", map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	})
	res.note("workload", cfg.workload)
	res.note("seed", cfg.seed)
	res.note("trace", cfg.trace)
	correct := res.Failed == 0 && res.Attempted > 0
	// failed_share is zero on a correct run, so it is reported beside the
	// metrics; the result line carries it as attempted and failed.
	res.note("failed_share", float64(res.Failed)/float64(max(res.Attempted, 1)))
	detail, err := json.Marshal(res.Detail)
	if err != nil {
		return false, err
	}
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   res.Metrics,
	})
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%s\n%s\n", detail, line)
	return correct, nil
}
