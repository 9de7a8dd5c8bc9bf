package core_test

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"op2hpx/internal/airfoil"
	"op2hpx/internal/core"
	"op2hpx/internal/hpx"
	"op2hpx/internal/hpx/sched"
)

// countingChunker counts the ChunkSize and measure calls a wrapped
// chunker receives.
type countingChunker struct {
	inner    hpx.Chunker
	calls    atomic.Int64
	measures atomic.Int64
}

func (c *countingChunker) ChunkSize(n, workers int, measure func(int) time.Duration) int {
	c.calls.Add(1)
	if measure == nil {
		return c.inner.ChunkSize(n, workers, nil)
	}
	return c.inner.ChunkSize(n, workers, func(k int) time.Duration {
		c.measures.Add(1)
		return measure(k)
	})
}

func (c *countingChunker) Name() string { return "counting(" + c.inner.Name() + ")" }

// airfoilLoops declares Airfoil's loops over m with the generic kernels
// and returns res_calc alone and one time iteration: save_soln, then two
// sub-iterations of adt_calc, res_calc, bres_calc, update.
func airfoilLoops(m *airfoil.Mesh) (res *core.Loop, step []*core.Loop) {
	c := airfoil.DefaultConstants()
	rms := core.MustDeclGlobal(1, nil, "rms")
	direct := func(d *core.Dat, acc core.Access) core.Arg { return core.ArgDat(d, core.IDIdx, nil, acc) }
	save := &core.Loop{Name: "save_soln", Set: m.Cells,
		Args:   []core.Arg{direct(m.Q, core.Read), direct(m.Qold, core.Write)},
		Kernel: func(v [][]float64) { airfoil.SaveSoln(v[0], v[1]) }}
	adt := &core.Loop{Name: "adt_calc", Set: m.Cells,
		Args: []core.Arg{
			core.ArgDat(m.X, 0, m.Pcell, core.Read), core.ArgDat(m.X, 1, m.Pcell, core.Read),
			core.ArgDat(m.X, 2, m.Pcell, core.Read), core.ArgDat(m.X, 3, m.Pcell, core.Read),
			direct(m.Q, core.Read), direct(m.Adt, core.Write)},
		Kernel: func(v [][]float64) { c.AdtCalc(v[0], v[1], v[2], v[3], v[4], v[5]) }}
	res = &core.Loop{Name: "res_calc", Set: m.Edges,
		Args: []core.Arg{
			core.ArgDat(m.X, 0, m.Pedge, core.Read), core.ArgDat(m.X, 1, m.Pedge, core.Read),
			core.ArgDat(m.Q, 0, m.Pecell, core.Read), core.ArgDat(m.Q, 1, m.Pecell, core.Read),
			core.ArgDat(m.Adt, 0, m.Pecell, core.Read), core.ArgDat(m.Adt, 1, m.Pecell, core.Read),
			core.ArgDat(m.Res, 0, m.Pecell, core.Inc), core.ArgDat(m.Res, 1, m.Pecell, core.Inc)},
		Kernel: func(v [][]float64) { c.ResCalc(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]) }}
	bres := &core.Loop{Name: "bres_calc", Set: m.Bedges,
		Args: []core.Arg{
			core.ArgDat(m.X, 0, m.Pbedge, core.Read), core.ArgDat(m.X, 1, m.Pbedge, core.Read),
			core.ArgDat(m.Q, 0, m.Pbecell, core.Read), core.ArgDat(m.Adt, 0, m.Pbecell, core.Read),
			core.ArgDat(m.Res, 0, m.Pbecell, core.Inc), direct(m.Bound, core.Read)},
		Kernel: func(v [][]float64) { c.BresCalc(v[0], v[1], v[2], v[3], v[4], v[5]) }}
	update := &core.Loop{Name: "update", Set: m.Cells,
		Args: []core.Arg{direct(m.Qold, core.Read), direct(m.Q, core.Write),
			direct(m.Res, core.RW), direct(m.Adt, core.Read), core.ArgGbl(rms, core.Inc)},
		Kernel: func(v [][]float64) { airfoil.Update(v[0], v[1], v[2], v[3], v[4]) }}
	return res, []*core.Loop{save, adt, res, bres, update, adt, res, bres, update}
}

func newAirfoilMesh(t *testing.T) *airfoil.Mesh {
	t.Helper()
	m, err := airfoil.NewMesh(120, 60, airfoil.DefaultConstants())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func bitwiseEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, serial %v", what, i, got[i], want[i])
		}
	}
}

// TestCalibrationOncePerCompiledLoop pins the chunk-size contract of the
// dataflow backend: a calibrating chunker is consulted (and its probe
// executed) only by a compiled loop's first invocation, per plan color
// and per fused pass. Every later invocation dispatches all of every
// color's blocks to the pool with the cached size — no Chunker call, no
// probe on the calling goroutine — until Loop.InvalidateCompiled, and
// results stay bitwise identical to serial execution.
func TestCalibrationOncePerCompiledLoop(t *testing.T) {
	const runs = 20
	chunkers := []struct {
		name string
		mk   func() hpx.Chunker
	}{
		{"auto", hpx.AutoChunker},
		{"persistent_auto", func() hpx.Chunker { return hpx.NewPersistentAutoChunker() }},
	}
	for _, tc := range chunkers {
		name, mk := tc.name, tc.mk
		t.Run(name+"/res_calc", func(t *testing.T) {
			m := newAirfoilMesh(t)
			res, _ := airfoilLoops(m)
			plan, err := core.LoopPlan(res, core.DefaultBlockSize)
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < plan.NColors(); c++ {
				// Colors no larger than the 16-iteration probe: probing
				// on every invocation would run each whole color on
				// the calling goroutine.
				if nb := len(plan.BlocksOfColor(c)); nb > 16 {
					t.Fatalf("color %d has %d blocks, want <= 16", c, nb)
				}
			}
			pool := sched.NewPool(2)
			defer pool.Close()
			ck := &countingChunker{inner: mk()}
			ex := core.NewExecutor(core.Config{Backend: core.Dataflow, Pool: pool, Chunker: ck})
			if err := ex.Run(res); err != nil {
				t.Fatal(err)
			}
			if ck.calls.Load() != int64(plan.NColors()) {
				t.Fatalf("first run made %d ChunkSize calls, want one per color (%d)", ck.calls.Load(), plan.NColors())
			}
			calls, measures := ck.calls.Load(), ck.measures.Load()
			for r := 0; r < runs; r++ {
				before, _ := pool.Stats()
				if err := ex.Run(res); err != nil {
					t.Fatal(err)
				}
				after, _ := pool.Stats()
				if got, want := after-before, uint64(2*plan.NColors()); got < want {
					t.Fatalf("run %d executed %d pool tasks, want >= %d (every color dispatched)", r, got, want)
				}
			}
			if d := ck.calls.Load() - calls; d != 0 {
				t.Fatalf("steady state made %d ChunkSize calls, want 0", d)
			}
			if d := ck.measures.Load() - measures; d != 0 {
				t.Fatalf("steady state made %d measure calls, want 0", d)
			}
			res.InvalidateCompiled()
			if err := ex.Run(res); err != nil {
				t.Fatal(err)
			}
			if d := ck.calls.Load() - calls; d != int64(plan.NColors()) {
				t.Fatalf("run after InvalidateCompiled made %d ChunkSize calls, want %d", d, plan.NColors())
			}

			sm := newAirfoilMesh(t)
			sres, _ := airfoilLoops(sm)
			serial := core.NewExecutor(core.Config{Backend: core.Serial})
			for r := 0; r < runs+2; r++ {
				if err := serial.Run(sres); err != nil {
					t.Fatal(err)
				}
			}
			bitwiseEqual(t, "res", m.Res.Data(), sm.Res.Data())
		})
		t.Run(name+"/step", func(t *testing.T) {
			m := newAirfoilMesh(t)
			_, loops := airfoilLoops(m)
			sp, err := core.BuildStepPlan("airfoil_iter", loops)
			if err != nil {
				t.Fatal(err)
			}
			if sp.FusedGroups() == 0 {
				t.Fatal("the step formed no fused group")
			}
			pool := sched.NewPool(2)
			defer pool.Close()
			ck := &countingChunker{inner: mk()}
			ex := core.NewExecutor(core.Config{Backend: core.Dataflow, Pool: pool, Chunker: ck})
			ctx := context.Background()
			if err := ex.RunStepCtx(ctx, sp); err != nil {
				t.Fatal(err)
			}
			calls, measures := ck.calls.Load(), ck.measures.Load()
			fused := ex.StepStats().FusedGroups
			for r := 0; r < runs; r++ {
				before, _ := pool.Stats()
				if err := ex.RunStepCtx(ctx, sp); err != nil {
					t.Fatal(err)
				}
				after, _ := pool.Stats()
				if got, want := after-before, uint64(2*sp.FusedGroups()); got < want {
					t.Fatalf("step %d executed %d pool tasks, want >= %d", r, got, want)
				}
			}
			if got, want := ex.StepStats().FusedGroups-fused, int64(runs*sp.FusedGroups()); got != want {
				t.Fatalf("ran %d fused passes, want %d", got, want)
			}
			if d := ck.calls.Load() - calls; d != 0 {
				t.Fatalf("steady-state steps made %d ChunkSize calls, want 0", d)
			}
			if d := ck.measures.Load() - measures; d != 0 {
				t.Fatalf("steady-state steps made %d measure calls, want 0", d)
			}
			// save_soln runs only inside the fused save_soln+adt_calc
			// pass: recompiling it recalibrates that pass alone.
			loops[0].InvalidateCompiled()
			if err := ex.RunStepCtx(ctx, sp); err != nil {
				t.Fatal(err)
			}
			if d := ck.calls.Load() - calls; d != 1 {
				t.Fatalf("step after InvalidateCompiled made %d ChunkSize calls, want 1", d)
			}

			sm := newAirfoilMesh(t)
			_, sloops := airfoilLoops(sm)
			ssp, err := core.BuildStepPlan("airfoil_iter", sloops)
			if err != nil {
				t.Fatal(err)
			}
			serial := core.NewExecutor(core.Config{Backend: core.Serial})
			for r := 0; r < runs+2; r++ {
				if err := serial.RunStepCtx(ctx, ssp); err != nil {
					t.Fatal(err)
				}
			}
			bitwiseEqual(t, "q", m.Q.Data(), sm.Q.Data())
		})
	}
}
