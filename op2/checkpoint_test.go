package op2_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"op2hpx/op2"
)

// newDecay declares a small time-marching program on rt — a direct
// update of a cell field that also accumulates a running residual into a
// global, so a checkpoint must capture both a dat and a reduction — and
// returns a step function plus a bit-pattern reader.
func newDecay(t testing.TB, rt *op2.Runtime) (step func() error, bits func() (uint64, []uint64)) {
	t.Helper()
	const n = 96
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i)*0.75 + 0.25
	}
	cells := op2.MustDeclSet(n, "cells")
	q := op2.MustDeclDat(cells, 1, vals, "q")
	res := op2.MustDeclGlobal(1, nil, "residual")
	decay := rt.ParLoop("decay", cells,
		op2.DirectArg(q, op2.RW),
		op2.GblArg(res, op2.Inc),
	).Kernel(func(v [][]float64) {
		v[0][0] = v[0][0]*1.0009765625 + 0.03125
		v[1][0] += v[0][0]
	})
	ctx := context.Background()
	step = func() error { return decay.Run(ctx) }
	bits = func() (uint64, []uint64) {
		if err := q.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := res.Sync(); err != nil {
			t.Fatal(err)
		}
		qb := make([]uint64, n)
		for i, v := range q.Data() {
			qb[i] = math.Float64bits(v)
		}
		return math.Float64bits(res.Data()[0]), qb
	}
	return step, bits
}

// TestCheckpointRestoreBitwise: run the reference uninterrupted, then
// interrupt a second run at a checkpoint, discard its runtime, and
// finish the remaining steps on fresh runtimes of several backends and
// rank counts. Every continuation must match the reference bit for bit —
// a serial-machine checkpoint restores onto a distributed runtime and
// vice versa, because snapshots are plain fenced host memory.
func TestCheckpointRestoreBitwise(t *testing.T) {
	const total, cut = 9, 5

	refRT := op2.MustNew()
	refStep, refBits := newDecay(t, refRT)
	for i := 0; i < total; i++ {
		if err := refStep(); err != nil {
			t.Fatal(err)
		}
	}
	refRes, refQ := refBits()
	refRT.Close() //nolint:errcheck

	crashRT := op2.MustNew()
	crashStep, _ := newDecay(t, crashRT)
	for i := 0; i < cut; i++ {
		if err := crashStep(); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := crashRT.Checkpoint(cut)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Step != cut {
		t.Fatalf("checkpoint step = %d, want %d", cp.Step, cut)
	}
	crashRT.Close() //nolint:errcheck // the "crashed" attempt is discarded

	resume := map[string]func() *op2.Runtime{
		"serial": func() *op2.Runtime { return op2.MustNew() },
		"dataflow": func() *op2.Runtime {
			return op2.MustNew(op2.WithBackend(op2.Dataflow), op2.WithChunker(op2.StaticChunk(1<<20)))
		},
		"ranks=2": func() *op2.Runtime { return op2.MustNew(op2.WithRanks(2)) },
		"ranks=3": func() *op2.Runtime { return op2.MustNew(op2.WithRanks(3)) },
	}
	for name, mk := range resume {
		t.Run(name, func(t *testing.T) {
			rt := mk()
			defer rt.Close()
			step, bits := newDecay(t, rt)
			if err := rt.Restore(cp); err != nil {
				t.Fatal(err)
			}
			for i := cp.Step; i < total; i++ {
				if err := step(); err != nil {
					t.Fatal(err)
				}
			}
			gotRes, gotQ := bits()
			if gotRes != refRes {
				t.Fatalf("residual bits %#x != reference %#x", gotRes, refRes)
			}
			for i := range gotQ {
				if gotQ[i] != refQ[i] {
					t.Fatalf("q[%d] bits differ from the uninterrupted run", i)
				}
			}
		})
	}
}

// TestCheckpointRestoreValidation pins the mismatch errors: restoring
// nothing, and restoring a snapshot naming data the target runtime never
// declared a loop over (diverged declarations).
func TestCheckpointRestoreValidation(t *testing.T) {
	ctx := context.Background()
	rt := op2.MustNew()
	defer rt.Close()
	if err := rt.Restore(nil); !errors.Is(err, op2.ErrValidation) {
		t.Fatalf("Restore(nil) = %v, want ErrValidation", err)
	}

	cells := op2.MustDeclSet(8, "cells")
	x := op2.MustDeclDat(cells, 1, nil, "x")
	if err := rt.ParLoop("wx", cells, op2.DirectArg(x, op2.Write)).
		Kernel(func(v [][]float64) { v[0][0] = 1 }).Run(ctx); err != nil {
		t.Fatal(err)
	}
	cp, err := rt.Checkpoint(1)
	if err != nil {
		t.Fatal(err)
	}

	other := op2.MustNew()
	defer other.Close()
	y := op2.MustDeclDat(cells, 1, nil, "y")
	other.ParLoop("wy", cells, op2.DirectArg(y, op2.Write)).
		Kernel(func(v [][]float64) { v[0][0] = 1 })
	if err := other.Restore(cp); !errors.Is(err, op2.ErrValidation) {
		t.Fatalf("Restore with diverged declarations = %v, want ErrValidation", err)
	}
}

// TestCheckpointRejectsAmbiguousNames: two distinct dats sharing a name
// cannot be told apart at Restore time, so Checkpoint refuses them.
func TestCheckpointRejectsAmbiguousNames(t *testing.T) {
	rt := op2.MustNew()
	defer rt.Close()
	cells := op2.MustDeclSet(4, "cells")
	a := op2.MustDeclDat(cells, 1, nil, "dup")
	b := op2.MustDeclDat(cells, 1, nil, "dup")
	rt.ParLoop("wa", cells, op2.DirectArg(a, op2.Write)).Kernel(func(v [][]float64) {})
	rt.ParLoop("wb", cells, op2.DirectArg(b, op2.Write)).Kernel(func(v [][]float64) {})
	if _, err := rt.Checkpoint(0); !errors.Is(err, op2.ErrValidation) {
		t.Fatalf("Checkpoint with duplicate dat names = %v, want ErrValidation", err)
	}
}
