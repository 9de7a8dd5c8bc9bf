package main

import "strings"

// metric is one reported number and its unit.
type metric struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run (--trace 0), reported on
// every workload. Step times are medians over fenced segments of the
// workload's own mesh; sut_step_ms is the workload's system under test
// (see README.md).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"serial_step_ms", "ms"},
	{"forkjoin_step_ms", "ms"},
	{"dataflow_step_ms", "ms"},
	{"sut_step_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

var loopNames = []string{"save_soln", "adt_calc", "res_calc", "bres_calc", "update"}

var distPhases = []string{"issue", "hoist", "interior", "halo", "boundary", "inc-apply"}

// perLayer are the metrics of a traced run (--trace 1), reported on
// every workload; a module that does no work on a workload reports 0.
var perLayer = func() []metric {
	ms := []metric{
		{"airfoil.kernel_sweep_ms", "ms"},
	}
	for _, k := range loopNames {
		ms = append(ms, metric{"airfoil." + k + "_ns_per_elem", "ns"})
	}
	ms = append(ms,
		metric{"airfoil.flops_per_step", "count"},
		metric{"airfoil.bytes_per_step", "B"},
		metric{"core.issue_us_per_step", "us"},
		metric{"core.wait_ms_per_step", "ms"},
	)
	for _, k := range loopNames {
		ms = append(ms, metric{"core.loop_ms." + k, "ms"})
	}
	for _, g := range fusedGroups {
		ms = append(ms, metric{"core.fused_ms." + g, "ms"})
	}
	ms = append(ms,
		metric{"core.fused_groups_per_step", "count"},
		metric{"core.allocs_per_step", "count"},
		metric{"core.op2_overhead_ms", "ms"},
		metric{"hpx.cpu_util.forkjoin", "ratio"},
		metric{"hpx.cpu_util.dataflow", "ratio"},
		metric{"hpx.idle_ms_per_step.forkjoin", "ms"},
		metric{"hpx.idle_ms_per_step.dataflow", "ms"},
	)
	for _, p := range distPhases {
		ms = append(ms, metric{phaseMetric(p), "ms"})
	}
	ms = append(ms,
		metric{"dist.halo_msgs_per_step", "count"},
		metric{"dist.halo_buf_allocs", "count"},
		metric{"net.bytes_per_step", "B"},
		metric{"net.frames_per_step", "count"},
		metric{"net.frame_allocs", "count"},
		metric{"net.heartbeat_misses", "count"},
		metric{"net.bootstrap_ms", "ms"},
		metric{"net.payload_ratio", "ratio"},
		metric{"part.partition_ms", "ms"},
		metric{"part.edge_cut", "count"},
		metric{"part.imbalance", "ratio"},
		metric{"service.queue_wait_ms", "ms"},
		metric{"service.job_setup_ms", "ms"},
		metric{"service.steps_retired", "count"},
		metric{"service.jobs_per_s", "1/s"},
		metric{"service.job_latency_ms", "ms"},
		metric{"service.job_latency_ms_p90", "ms"},
		metric{"ckpt.save_ms", "ms"},
		metric{"ckpt.bytes", "B"},
		metric{"ckpt.saves", "count"},
		metric{"obs.trace_overhead_pct", "%"},
		metric{"unattributed_ms_per_step", "ms"},
		metric{"failed_ratio", "ratio"},
	)
	return ms
}()

// fusedGroups are the fused passes the Dataflow backend forms from the
// airfoil step, named as fusedMetric names them.
var fusedGroups = []string{"save_soln-adt_calc", "update-adt_calc"}

// fusedMetric turns a fused pass's profile name, "fused(a+b)", into the
// metric-safe "a-b".
func fusedMetric(group string) string {
	g := strings.TrimSuffix(strings.TrimPrefix(group, "fused("), ")")
	return strings.ReplaceAll(g, "+", "-")
}

// phaseMetric names the metric of a distributed pipeline phase.
func phaseMetric(phase string) string {
	return "dist.phase_ms." + strings.ReplaceAll(phase, "-", "_")
}
