// Command perfbench is the repository's benchmark: Airfoil on the three
// shared-memory backends at the paper's scale and on a small mesh, a
// two-rank world over TCP, and the simulation service with durable
// checkpoints. It checks every output bitwise against the serial flow
// field and prints each metric by name with its unit; the last line of
// its output is one JSON object with the result.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload airfoil-small --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// measures the per-layer metrics, prints the layer ledger and writes the
// spans as a Chrome trace under .bench_build/trace. See README.md for
// the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the JSON object printed as the report's last line.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricResult `json:"metrics"`
}

type metricResult struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 20, "measurement time in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	workDir := fs.String("workdir", ".bench_build", "directory for checkpoints and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q or bad flags; workloads:", *name)
		for _, w := range workloads {
			fmt.Fprintf(stderr, " %s", w.name)
		}
		fmt.Fprintln(stderr)
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o := options{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, workDir: *workDir}
	root, _ := os.Getwd()
	fp := takeFingerprint(root)

	res, err := runWorkload(w, o, fp, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload measures w and returns the result object: end-to-end
// metrics from one untraced pass, or per-layer metrics from an untraced
// and a traced pass of half the budget each.
func runWorkload(w workload, o options, fp fingerprint, out io.Writer) (*result, error) {
	if !o.trace {
		rd, err := measure(w, o, false, o.budget, 3, time.Second)
		if err != nil {
			return nil, err
		}
		writeReport(out, w, o, fp, rd)
		vals := map[string]float64{
			"setup_s":          median(rd.setups),
			"serial_step_ms":   stepMedian(rd, "serial"),
			"forkjoin_step_ms": stepMedian(rd, "forkjoin"),
			"dataflow_step_ms": stepMedian(rd, "dataflow"),
			"sut_step_ms":      sutStep(w, rd),
			"peak_rss_mb":      peakRSSMiB(),
		}
		return finish(rd, endToEnd, vals, out), nil
	}

	plain, err := measure(w, o, false, o.budget/2, 1, 0)
	if err != nil {
		return nil, err
	}
	traced, err := measure(w, o, true, o.budget/2, 1, 0)
	if err != nil {
		return nil, err
	}
	writeReport(out, w, o, fp, traced)
	vals, err := perLayerValues(w, o, plain, traced)
	if err != nil {
		return nil, err
	}
	traced.tr.writeLedger(out, traced.units)
	dir := filepath.Join(o.workDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	file := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
	f, err := os.Create(file)
	if err != nil {
		return nil, err
	}
	if err := traced.tr.writeChrome(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "chrome trace: %s\n", file)
	rd := &runData{attempted: plain.attempted + traced.attempted,
		failures: append(plain.failures, traced.failures...)}
	return finish(rd, perLayer, vals, out), nil
}

// finish prints the listed metrics and builds the result object.
func finish(rd *runData, list []metric, vals map[string]float64, out io.Writer) *result {
	res := &result{Attempted: rd.attempted, Failed: len(rd.failures), Metrics: make(map[string]metricResult)}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, m := range list {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = metricResult{Value: v, Unit: m.unit}
		fmt.Fprintf(out, "%-36s %14.6g %s\n", m.name, v, m.unit)
	}
	if _, listed := vals["failed_ratio"]; !listed {
		fmt.Fprintf(out, "%-36s %14.6g ratio\n", "failed_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)))
	}
	return res
}

func stepMedian(rd *runData, path string) float64 {
	if st := rd.stats[path]; st != nil {
		return median(st.samples)
	}
	return math.NaN()
}

// sutStep is the step time of the workload's system under test: the
// paper's configuration, the TCP world, or a service job's latency per
// step.
func sutStep(w workload, rd *runData) float64 {
	if w.sut != "service" {
		return stepMedian(rd, w.sutPath())
	}
	if rd.svc == nil || len(rd.svc.latency) == 0 {
		return math.NaN()
	}
	return median(rd.svc.latency) / float64(w.jobIters())
}

// perLayerValues assembles the per-layer metrics: counters and spans
// from the traced pass, CPU, allocation and step times from the untraced
// one, and the kernel sweep measured on its own.
func perLayerValues(w workload, o options, plain, traced *runData) (map[string]float64, error) {
	vals := make(map[string]float64)
	for k, v := range traced.layers {
		vals[k] = v
	}
	if err := kernelLayer(w, o.seed, vals); err != nil {
		return nil, err
	}

	self := traced.tr.selfTimes()
	if st := traced.stats["dataflow"]; st != nil && st.steps > 0 {
		vals["core.issue_us_per_step"] = float64(self["dataflow/core.issue"].Nanoseconds()) / 1e3 / float64(st.steps)
		vals["core.wait_ms_per_step"] = ms(self["dataflow/core.wait"]) / float64(st.steps)
	}
	if st := plain.stats["dataflow"]; st != nil && st.steps > 0 {
		vals["core.allocs_per_step"] = float64(st.allocs) / float64(st.steps)
	}
	vals["core.op2_overhead_ms"] = stepMedian(plain, "serial") - vals["airfoil.kernel_sweep_ms"]
	for _, b := range []string{"forkjoin", "dataflow"} {
		st := plain.stats[b]
		if st == nil || st.steps == 0 {
			continue
		}
		capacity := st.wall.Seconds() * float64(runtime.NumCPU())
		vals["hpx.cpu_util."+b] = st.cpu.Seconds() / capacity
		vals["hpx.idle_ms_per_step."+b] = (capacity - st.cpu.Seconds()) * 1e3 / float64(st.steps)
	}

	root := w.sutPath() + "/segment"
	if w.sut == "service" {
		root = "service/job"
	}
	if u := traced.units[w.sutPath()]; u > 0 {
		vals["unattributed_ms_per_step"] = ms(self[root]) / u
	}
	if base := sutStep(w, plain); base > 0 {
		vals["obs.trace_overhead_pct"] = (sutStep(w, traced) - base) / base * 100
	}

	if s := traced.svc; s != nil && s.jobs > 0 {
		vals["service.queue_wait_ms"] = median(s.queueWait)
		vals["service.job_setup_ms"] = median(s.setup)
		vals["service.steps_retired"] = float64(s.retired)
		vals["service.jobs_per_s"] = float64(s.jobs) / s.elapsed.Seconds()
		vals["service.job_latency_ms"] = median(s.latency)
		vals["service.job_latency_ms_p90"] = percentile(s.latency, 90)
		vals["ckpt.save_ms"] = median(s.saves)
		vals["ckpt.bytes"] = float64(s.ckptBytes)
		vals["ckpt.saves"] = float64(len(s.saves))
	}
	attempted := plain.attempted + traced.attempted
	vals["failed_ratio"] = float64(len(plain.failures)+len(traced.failures)) / float64(max(attempted, 1))
	return vals, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
