package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a workload to a 24×12 mesh and a few steps.
func tiny(w workload) workload {
	w.nx, w.ny, w.seg, w.burst = 24, 12, 2, 2
	if w.rounds > 0 {
		w.rounds = 4
	}
	return w
}

// TestWorkloadsSmoke runs every workload at tiny scale, untraced and
// traced, and checks that every output verifies and every listed metric
// is reported.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := tiny(w), traced
			t.Run(w.name, func(t *testing.T) {
				o := options{seed: 7, budget: 400 * time.Millisecond, trace: traced, workDir: t.TempDir()}
				var out bytes.Buffer
				res, err := runWorkload(w, o, fingerprint{}, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 4 {
					t.Fatalf("result %+v\n%s", res, out.String())
				}
				list := endToEnd
				if traced {
					list = perLayer
				}
				if len(res.Metrics) != len(list) {
					t.Fatalf("%d metrics reported, %d listed", len(res.Metrics), len(list))
				}
				for _, m := range list {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v", m.name, got)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
					}
				}
				// Each module's layer reports work on the workload it runs on.
				want := map[string][]string{
					"airfoil-tcp2": {"dist.halo_msgs_per_step", "net.bytes_per_step", "part.edge_cut"},
					"service-ckpt": {"service.jobs_per_s", "ckpt.saves", "ckpt.bytes"},
				}[w.name]
				for _, name := range append([]string{"airfoil.kernel_sweep_ms", "core.wait_ms_per_step"}, want...) {
					if traced && res.Metrics[name].Value <= 0 {
						t.Errorf("%s = %v on %s, want > 0", name, res.Metrics[name].Value, w.name)
					}
				}
			})
		}
	}
}

// TestRunPrintsResultLast checks the command's output contract: the last
// line of standard output is the JSON result.
func TestRunPrintsResultLast(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "airfoil-small", "--seed", "3", "--seconds", "0.2",
		"--trace", "0", "--workdir", t.TempDir()}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("result %+v", res)
	}
	if code := run([]string{"--workload", "nope"}, io.Discard, io.Discard); code == 0 {
		t.Fatal("unknown workload accepted")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists equal to
// what the command reports, and its workloads among the command's.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json lists workload %s, which the command does not have", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command reports %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s %s vs %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
