package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// contract is the part of BENCHMARK.json the self-test checks against.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runTiny runs one workload at a tiny scale and parses its result line.
func runTiny(t *testing.T, workload string, trace, tamper bool) (bool, runResult) {
	t.Helper()
	var out bytes.Buffer
	cfg := config{workload: workload, seed: 3, seconds: 0.5, trace: trace, scale: 0.02, workDir: t.TempDir(), tamper: tamper}
	ok, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: result line: %v", workload, err)
	}
	return ok, res
}

func TestWorkloadsMatchContract(t *testing.T) {
	var got, want []string
	for _, w := range loadContract(t).Workloads {
		got = append(got, w.Name)
	}
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark implements %v", got, want)
	}
}

// TestEveryMetricEmitted runs every workload untraced and traced and
// checks that each prints exactly the metrics BENCHMARK.json names, with
// their units and finite values, and that its outputs verify.
func TestEveryMetricEmitted(t *testing.T) {
	c := loadContract(t)
	sets := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range c.EndToEnd {
		sets[false][m.Name] = m.Unit
	}
	for _, m := range c.PerLayer {
		sets[true][m.Name] = m.Unit
	}
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			ok, res := runTiny(t, name, trace, false)
			if !ok || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := sets[trace]
			for m, unit := range want {
				got, found := res.Metrics[m]
				switch {
				case !found:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m)
				case got.Unit != unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", name, trace, m, got.Unit, unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", name, trace, m, got.Value)
				}
			}
			for m := range res.Metrics {
				if _, named := want[m]; !named {
					t.Errorf("%s trace=%v: metric %s not in BENCHMARK.json", name, trace, m)
				}
			}
			if !trace {
				for m, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, v.Value)
					}
				}
			}
		}
	}
}

// TestTamperedReferenceFails corrupts one reference verdict and checks
// that every workload then reports failures and an incorrect result.
func TestTamperedReferenceFails(t *testing.T) {
	for name := range workloads {
		ok, res := runTiny(t, name, false, true)
		if ok || res.Correct || res.Failed == 0 {
			t.Errorf("%s with a tampered reference: ok=%v correct=%v failed=%d", name, ok, res.Correct, res.Failed)
		}
	}
}
