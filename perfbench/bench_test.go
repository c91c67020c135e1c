package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the program must agree
// with.
type benchmarkJSON struct {
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

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	compare := func(kind string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd)
	compare("per_layer", bj.PerLayer, perLayer)
}

// TestTinyRunsPrintEveryMetric runs every workload at the self-test size,
// untraced and traced, and checks the result line names every metric
// with its unit.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", trace,
				"--size", "tiny", "--out", t.TempDir()}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s%s", w.name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v", w.name, trace, err)
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: correct=%v attempted=%d metrics=%d, want true, >=1, %d",
					w.name, trace, res.Correct, res.Attempted, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Value == nil || m.Unit != d.unit {
					t.Errorf("%s trace=%s: metric %s missing or not in %s", w.name, trace, d.name, d.unit)
				}
			}
		}
	}
}

// TestWrongGoldenFailsTheCheck proves the signoff goldens are checked: a
// deliberately wrong CMOS full-adder area must fail the run.
func TestWrongGoldenFailsTheCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the signoff workload")
	}
	w, err := lookup("signoff")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{seed: 3, seconds: 1, tiny: true, tmp: t.TempDir(), goldens: paperGoldens}
	res, err := execute(context.Background(), w, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.checks) != 0 {
		t.Fatalf("paper goldens failed: %v", res.checks)
	}
	cfg.goldens.areaCMOS++
	res, err = execute(context.Background(), w, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.checks) != 1 || !strings.Contains(res.checks[0], "CMOS full-adder area") {
		t.Fatalf("wrong golden: checks = %v, want one area failure", res.checks)
	}
}
