package dist_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"op2hpx/internal/core"
	"op2hpx/internal/dist"
	"op2hpx/internal/part"
)

// orderMesh is a grid of cells joined by horizontal, vertical and
// diagonal edges whose increments alternate between magnitude 1e16 and
// magnitude 1: at that ratio a double absorbs the small term unless it
// is added before the large one, so any reordering of one cell's
// contributions flips bits.
type orderMesh struct {
	cells, edges *core.Set
	pecell       *core.Map
	x, res, xy   *core.Dat // xy: cell centroids (partitioning only)
	w            *core.Dat // per-edge weight, read directly (replicated)
	flux, update *core.Loop
}

func newOrderMesh(t *testing.T) *orderMesh {
	t.Helper()
	const nx, ny = 13, 9
	m := &orderMesh{}
	cell := func(i, j int) int32 { return int32(j*nx + i) }
	var idx []int32
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			if i+1 < nx {
				idx = append(idx, cell(i, j), cell(i+1, j))
			}
			if j+1 < ny {
				idx = append(idx, cell(i, j+1), cell(i, j)) // reversed: the derived owner varies
			}
			if i+1 < nx && j+1 < ny {
				idx = append(idx, cell(i+1, j+1), cell(i, j))
			}
		}
	}
	nedges := len(idx) / 2
	m.cells = core.MustDeclSet(nx*ny, "cells")
	m.edges = core.MustDeclSet(nedges, "edges")
	m.pecell = core.MustDeclMap(m.edges, m.cells, 2, idx, "pecell")
	xs := make([]float64, nx*ny)
	xy := make([]float64, 2*nx*ny)
	for c := range xs {
		xs[c] = 2 + math.Sin(float64(c)*0.37)
		xy[2*c], xy[2*c+1] = float64(c%nx), float64(c/nx)
	}
	ws := make([]float64, nedges)
	for e := range ws {
		ws[e] = 1 + float64(e%5)*0.125
		if e%2 == 0 {
			ws[e] *= 1e16
		}
	}
	m.x = core.MustDeclDat(m.cells, 1, xs, "x")
	m.res = core.MustDeclDat(m.cells, 1, nil, "res")
	m.xy = core.MustDeclDat(m.cells, 2, xy, "xy")
	m.w = core.MustDeclDat(m.edges, 1, ws, "w")
	m.flux = &core.Loop{
		Name: "flux", Set: m.edges,
		Args: []core.Arg{
			core.ArgDat(m.x, 0, m.pecell, core.Read),
			core.ArgDat(m.x, 1, m.pecell, core.Read),
			core.ArgDat(m.w, core.IDIdx, nil, core.Read),
			core.ArgDat(m.res, 0, m.pecell, core.Inc),
			core.ArgDat(m.res, 1, m.pecell, core.Inc),
		},
		Kernel: func(v [][]float64) {
			v[3][0] += v[2][0] * v[1][0]
			v[4][0] -= v[2][0] * v[0][0]
		},
	}
	m.update = &core.Loop{
		Name: "update", Set: m.cells,
		Args: []core.Arg{
			core.ArgDat(m.x, core.IDIdx, nil, core.RW),
			core.ArgDat(m.res, core.IDIdx, nil, core.RW),
		},
		Kernel: func(v [][]float64) {
			v[0][0] += v[1][0] * 1e-17
			v[1][0] = 0
		},
	}
	return m
}

// bits runs steps flux → update rounds through run and returns x's bit
// pattern, plus res's after a final flux (so the increments themselves
// are compared, not just their damped effect on x).
func (m *orderMesh) bits(t *testing.T, steps int, run func(l *core.Loop) error) []uint64 {
	t.Helper()
	for s := 0; s < steps; s++ {
		for _, l := range []*core.Loop{m.flux, m.update} {
			if err := run(l); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := run(m.flux); err != nil {
		t.Fatal(err)
	}
	var out []uint64
	for _, d := range []*core.Dat{m.x, m.res} {
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		for _, v := range d.Data() {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

// TestOrderSensitiveIncrementsBitwise pins the distributed engine's
// execution-order invariant directly: every owned cell must receive its
// increments in the serial plan order, including those from exec-halo
// edges run redundantly and from elements held back behind the halo
// wait, at every rank count and under every partitioner.
func TestOrderSensitiveIncrementsBitwise(t *testing.T) {
	const steps, bs = 3, 8
	ref := newOrderMesh(t)
	ex := core.NewExecutor(core.Config{Backend: core.Serial, BlockSize: bs})
	want := ref.bits(t, steps, ex.Run)

	// The fixture must be order-sensitive: summing one cell's
	// contributions in a different order has to change its bits.
	big, one := ref.w.Data()[0], 1.0
	if (big+one)+one == big+(one+one) {
		t.Fatal("fixture magnitudes do not expose reordering")
	}

	for _, p := range []part.Partitioner{part.Block{}, part.RCB{}, part.GreedyGraph{}} {
		for _, ranks := range []int{1, 2, 4, 7} {
			t.Run(fmt.Sprintf("%s/ranks=%d", p.Name(), ranks), func(t *testing.T) {
				m := newOrderMesh(t)
				e, err := dist.NewEngine(dist.Config{Ranks: ranks, Partitioner: p, BlockSize: bs})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				topo := part.NewTopology(m.cells.Size())
				if err := topo.AddAdjacencyMap(m.pecell); err != nil {
					t.Fatal(err)
				}
				if err := topo.SetCentroids(m.xy); err != nil {
					t.Fatal(err)
				}
				if err := e.RegisterTopology(m.cells, topo); err != nil {
					t.Fatal(err)
				}
				got := m.bits(t, steps, func(l *core.Loop) error { return e.Run(context.Background(), l) })
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("value %d: %v, serial %v", i, math.Float64frombits(got[i]), math.Float64frombits(want[i]))
					}
				}
			})
		}
	}
}
