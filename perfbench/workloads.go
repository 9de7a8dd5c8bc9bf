package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"op2hpx/internal/airfoil"
	"op2hpx/op2"
)

// workload is one set of inputs: a seeded mesh and the system under
// test (sut) that executes it next to the three shared-memory backends.
// README.md records why each was chosen.
type workload struct {
	name   string
	nx, ny int
	seg    int    // timesteps per fenced segment
	burst  int    // segments a path runs back to back per round
	sut    string // "paper", "world" or "service"
	rounds int    // service: rounds of the shared paths after which the serial flow field is every job's golden
}

// jobIters is the step count of a service-ckpt job: the first step of
// set-up plus the golden rounds of the shared paths, so the serial path's
// flow field after those rounds is every job's golden.
func (w workload) jobIters() int { return 1 + w.rounds*w.burst*w.seg }

// sutPath names the path of the workload's system under test, which is
// also the prefix of its spans.
func (w workload) sutPath() string {
	switch w.sut {
	case "world":
		return "dist"
	case "service":
		return "service"
	}
	return "sut"
}

var paperNX, paperNY = airfoil.SizeForNodes(720_000)

var workloads = []workload{
	{name: "airfoil-paper", nx: paperNX, ny: paperNY, seg: 2, burst: 1, sut: "paper"},
	{name: "airfoil-small", nx: 120, ny: 60, seg: 50, burst: 2, sut: "paper"},
	{name: "airfoil-tcp2", nx: 240, ny: 120, seg: 10, burst: 2, sut: "world"},
	{name: "service-ckpt", nx: 120, ny: 60, seg: 40, burst: 5, sut: "service", rounds: 1},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are a run's settings.
type options struct {
	seed    uint64
	budget  time.Duration
	trace   bool
	workDir string // checkpoint directories and trace files go below it
}

// built is one set-up of a workload: its seeded mesh and every path,
// each past its first, plan-compiling step.
type built struct {
	mesh  *airfoil.Mesh
	paths []path
	world *worldPath
	sv    *op2.Service
}

func build(w workload, seed uint64, traced bool) (*built, error) {
	m, c, err := newMesh(w.nx, w.ny, seed)
	if err != nil {
		return nil, err
	}
	b := &built{mesh: m}
	cfgs := sharedConfigs
	if w.sut == "paper" {
		cfgs = append(cfgs[:len(cfgs):len(cfgs)], paperConfig)
	}
	for _, cfg := range cfgs {
		p, err := newSMPath(cfg, m, c, traced)
		if err != nil {
			b.close()
			return nil, err
		}
		b.paths = append(b.paths, p)
	}
	switch w.sut {
	case "world":
		if b.world, err = newWorldPath(2, w.nx, w.ny, seed, traced); err != nil {
			b.close()
			return nil, err
		}
		b.paths = append(b.paths, b.world)
	case "service":
		b.sv = op2.NewService(op2.ServiceConfig{MaxResidentJobs: serviceResident})
	}
	return b, nil
}

func (b *built) close() {
	for _, p := range b.paths {
		p.close()
	}
	if b.sv != nil {
		b.sv.Close()
	}
}

// pathStats are one path's measurements.
type pathStats struct {
	samples []float64 // ms per step, one per fenced segment
	steps   int
	wall    time.Duration
	cpu     time.Duration
	allocs  uint64
}

// runData is everything one measurement pass produced.
type runData struct {
	setups    []float64 // seconds per set-up
	stats     map[string]*pathStats
	svc       *serviceResult
	attempted int
	failures  []string
	layers    map[string]float64 // traced passes only
	tr        *tracer
	units     map[string]float64 // steps per path, for the ledger
	working   int64
}

// measure sets the workload up repeatedly (timing each set-up, keeping
// the last), then runs rounds of fenced segments of every path until the
// budget is spent and verifies every path's flow field bitwise against
// the serial one. On service-ckpt every round after the golden rounds
// also runs a round of the closed loop, so the shared paths and the
// service see the same machine noise. minSetups set-ups are made, and
// more while they have taken less than setupTime, up to 50.
func measure(w workload, o options, traced bool, budget time.Duration, minSetups int, setupTime time.Duration) (*runData, error) {
	rd := &runData{stats: make(map[string]*pathStats), layers: make(map[string]float64), units: make(map[string]float64)}
	var b *built
	first := time.Now()
	for {
		t0 := time.Now()
		nb, err := build(w, o.seed, traced)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rd.setups = append(rd.setups, time.Since(t0).Seconds())
		if n := len(rd.setups); n >= 50 || (n >= minSetups && time.Since(first) >= setupTime) {
			b = nb
			break
		}
		nb.close()
		// Collect the discarded set-up now, so set-ups do not stack up
		// in the heap (peak_rss_mb) or in the next one's timing.
		runtime.GC()
	}
	defer b.close()
	rd.working = workingSetBytes(b.mesh)
	if traced {
		rd.tr = newTracer()
		for _, p := range b.paths {
			if sp, ok := p.(*smPath); ok {
				sp.rt.ResetProfile()
			}
		}
	}
	world0 := snapshotWorld(b.world)
	var worldWarm worldCounters
	var dataflow *smPath
	for _, p := range b.paths {
		if sp, ok := p.(*smPath); ok && sp.label == "dataflow" {
			dataflow = sp
		}
	}
	fused0 := dataflow.rt.StepStats().FusedGroups

	ctx := context.Background()
	live := append([]path(nil), b.paths...)
	alloc := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	var svc *serviceLoop
	svcLive := true
	start := time.Now()
	var id int64
	for round := 0; ; round++ {
		if w.sut == "service" && round == w.rounds {
			golden, err := serialQ(live)
			if err != nil {
				rd.failures = append(rd.failures, err.Error())
			}
			if golden != nil {
				dir, err := os.MkdirTemp(o.workDir, "ckpt-")
				if err != nil {
					return nil, err
				}
				defer os.RemoveAll(dir)
				if svc, err = newServiceLoop(b.sv, dir, w.nx, w.ny, w.jobIters(), o.seed, golden, rd.tr); err != nil {
					return nil, err
				}
			}
		}
		if round >= max(w.rounds+1, 3) && time.Since(start) >= budget {
			break
		}
		for i := 0; i < len(live); i++ {
			p := live[i]
			st := rd.stats[p.name()]
			if st == nil {
				st = &pathStats{}
				rd.stats[p.name()] = st
			}
			var err error
			for j := 0; j < w.burst && err == nil; j++ {
				metrics.Read(alloc)
				a0, c0, t0 := alloc[0].Value.Uint64(), cpuTime(), time.Now()
				err = p.segment(ctx, w.seg, rd.tr, id)
				d := time.Since(t0)
				c1 := cpuTime()
				metrics.Read(alloc)
				id++
				st.samples = append(st.samples, float64(d.Nanoseconds())/1e6/float64(w.seg))
				st.steps += w.seg
				st.wall += d
				st.cpu += c1 - c0
				st.allocs += alloc[0].Value.Uint64() - a0
			}
			if err != nil {
				// A failed path is never timed as a success: drop it and
				// count it failed.
				rd.failures = append(rd.failures, fmt.Sprintf("%s: %v", p.name(), err))
				delete(rd.stats, p.name())
				live = append(live[:i], live[i+1:]...)
				i--
			}
		}
		if svc != nil && svcLive {
			svcLive = svc.round()
		}
		if round == 0 {
			worldWarm = snapshotWorld(b.world)
		}
	}

	// Verification: every path has run the same steps from the same
	// input, so every final flow field must equal the serial one bitwise.
	rd.attempted += len(b.paths)
	var golden []float64
	for _, p := range live {
		q, err := p.finalQ()
		if err != nil {
			rd.failures = append(rd.failures, fmt.Sprintf("%s: %v", p.name(), err))
			continue
		}
		if p.name() == "serial" {
			golden = append([]float64(nil), q...)
			continue
		}
		if golden == nil {
			rd.failures = append(rd.failures, fmt.Sprintf("%s: no serial golden to compare with", p.name()))
			continue
		}
		if i := firstDiff(q, golden); i >= 0 {
			rd.failures = append(rd.failures, fmt.Sprintf("%s: q[%d] differs bitwise from serial", p.name(), i))
			delete(rd.stats, p.name())
		}
	}

	if traced {
		coreLayers(rd, dataflow, fused0)
		if b.world != nil {
			worldLayers(rd, b.world, world0, worldWarm)
		}
	}

	if svc != nil {
		rd.svc = svc.result()
		rd.attempted += rd.svc.attempted
		rd.failures = append(rd.failures, rd.svc.failures...)
	}
	for name, st := range rd.stats {
		rd.units[name] = float64(st.steps)
	}
	if rd.svc != nil {
		rd.units["service"] = float64(rd.svc.jobs * w.jobIters())
	}
	return rd, nil
}

// serialQ copies the serial path's flow field, or returns nil when the
// serial path has failed.
func serialQ(live []path) ([]float64, error) {
	for _, p := range live {
		if p.name() != "serial" {
			continue
		}
		q, err := p.finalQ()
		if err != nil {
			return nil, fmt.Errorf("serial: %w", err)
		}
		return append([]float64(nil), q...), nil
	}
	return nil, nil
}

// worldCounters snapshots a TCP world's program-side counters, summed
// over its ranks.
type worldCounters struct {
	halo, bufAllocs                      int64
	bytes, frames, frameAllocs, hbMisses int64
	phase                                map[string]float64 // seconds per phase
}

func snapshotWorld(w *worldPath) worldCounters {
	var c worldCounters
	if w == nil {
		return c
	}
	c.phase = make(map[string]float64)
	for _, rk := range w.ranks {
		c.halo += rk.rt.HaloMessagesSent()
		a, _ := rk.rt.HaloBufferStats()
		c.bufAllocs += a
		if s, ok := rk.rt.NetStats(); ok {
			c.bytes += s.BytesSent
			c.frames += s.FramesSent
			c.frameAllocs += s.FrameAllocs
			c.hbMisses += s.HeartbeatMisses
		}
		for k, v := range phaseSums(rk.rt) {
			c.phase[k] += v
		}
	}
	return c
}

// phaseSums reads the total seconds per pipeline phase from the
// op2_dist_phase_seconds histogram family the runtime exports.
func phaseSums(rt *op2.Runtime) map[string]float64 {
	sums := make(map[string]float64)
	var b strings.Builder
	if rt.Metrics() == nil || rt.WriteMetrics(&b) != nil {
		return sums
	}
	const prefix = `op2_dist_phase_seconds_sum{phase="`
	for _, line := range strings.Split(b.String(), "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		phase, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			sums[phase] += v
		}
	}
	return sums
}

// coreLayers derives the op2/core layer metrics of the dataflow path
// from the runtime's own profile and step counters.
func coreLayers(rd *runData, sp *smPath, fused0 int64) {
	st := rd.stats[sp.label]
	if st == nil || st.steps == 0 {
		return
	}
	steps := float64(st.steps)
	for _, lp := range sp.rt.ProfileStats() {
		name := "core.loop_ms." + lp.Name
		if g := fusedMetric(lp.Name); g != lp.Name {
			name = "core.fused_ms." + g
		}
		rd.layers[name] = float64(lp.Total.Nanoseconds()) / 1e6 / steps
	}
	rd.layers["core.fused_groups_per_step"] = float64(sp.rt.StepStats().FusedGroups-fused0) / steps
}

// worldLayers derives the dist, net and part layer metrics of a TCP
// world from the program's own counters: deltas over the measured
// rounds, and allocation deltas after the first (warm-up) round.
func worldLayers(rd *runData, w *worldPath, c0, warm worldCounters) {
	st := rd.stats[w.name()]
	if st == nil || st.steps == 0 {
		return
	}
	c1 := snapshotWorld(w)
	steps := float64(st.steps)
	ranks := float64(len(w.ranks))
	for _, p := range distPhases {
		rd.layers[phaseMetric(p)] = (c1.phase[p] - c0.phase[p]) * 1e3 / (ranks * steps)
	}
	rd.layers["dist.halo_msgs_per_step"] = float64(c1.halo-c0.halo) / steps
	rd.layers["dist.halo_buf_allocs"] = float64(c1.bufAllocs - warm.bufAllocs)
	wire := float64(c1.bytes-c0.bytes) / steps
	rd.layers["net.bytes_per_step"] = wire
	rd.layers["net.frames_per_step"] = float64(c1.frames-c0.frames) / steps
	rd.layers["net.frame_allocs"] = float64(c1.frameAllocs - warm.frameAllocs)
	rd.layers["net.heartbeat_misses"] = float64(c1.hbMisses)
	rd.layers["net.bootstrap_ms"] = float64(w.bootstrap.Nanoseconds()) / 1e6
	rd.layers["part.partition_ms"] = float64(w.partition.Nanoseconds()) / 1e6
	for _, s := range w.ranks[0].rt.PartitionReport() {
		if s.Set != "cells" {
			continue
		}
		rd.layers["part.edge_cut"] = float64(s.EdgeCut)
		rd.layers["part.imbalance"] = s.Imbalance
		// Computed halo payload per step: each of the two sub-iterations
		// imports q (4 values) and adt (1) for every halo cell and sends
		// back res increments (4), 8 bytes a value.
		var halo int
		for _, h := range s.Halo {
			halo += h
		}
		if wire > 0 {
			rd.layers["net.payload_ratio"] = float64(2*halo*9*8) / wire
		}
	}
}

// writeReport prints the human-readable report of a run.
func writeReport(out io.Writer, w workload, o options, fp fingerprint, rd *runData) {
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%.0f trace=%v\n", w.name, o.seed, o.budget.Seconds(), o.trace)
	fp.write(out)
	fmt.Fprintf(out, "mesh %dx%d: computed working set %s per flow copy (L2 %s, L3 %s)\n",
		w.nx, w.ny, mib(rd.working), mib(fp.L2Bytes), mib(fp.L3Bytes))
	fmt.Fprintf(out, "set-up: %d runs, median %.4f s\n", len(rd.setups), median(rd.setups))
	fmt.Fprintf(out, "%-10s %6s %10s %10s %10s %10s %8s\n", "path", "N", "median", "q1", "q3", "tail", "cpu")
	for _, name := range []string{"serial", "forkjoin", "dataflow", "sut", "dist"} {
		st := rd.stats[name]
		if st == nil {
			continue
		}
		q1, q3 := quartiles(st.samples)
		tail := "-"
		if p, ok := tailPercentile(len(st.samples)); ok {
			tail = fmt.Sprintf("p%g=%.3f", p, percentile(st.samples, p))
		}
		fmt.Fprintf(out, "%-10s %6d %10.4f %10.4f %10.4f %10s %8.2f  ms/step over %d-step segments\n",
			name, len(st.samples), median(st.samples), q1, q3, tail,
			st.cpu.Seconds()/st.wall.Seconds(), w.seg)
	}
	if s := rd.svc; s != nil {
		tail := "-"
		if p, ok := tailPercentile(len(s.latency)); ok {
			tail = fmt.Sprintf("p%g=%.1f", p, percentile(s.latency, p))
		}
		fmt.Fprintf(out, "service: %d jobs of %d steps in %.2f s (%.2f jobs/s), latency median %.1f ms %s, N=%d\n",
			s.jobs, w.jobIters(), s.elapsed.Seconds(), float64(s.jobs)/s.elapsed.Seconds(),
			median(s.latency), tail, len(s.latency))
	}
	for _, f := range rd.failures {
		fmt.Fprintf(out, "FAILED %s\n", f)
	}
	fmt.Fprintf(out, "operations: %d attempted, %d failed\n", rd.attempted, len(rd.failures))
}
