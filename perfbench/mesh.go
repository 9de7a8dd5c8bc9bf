package main

import (
	"math/rand/v2"

	"op2hpx/internal/airfoil"
	"op2hpx/op2"
)

// newMesh generates the nx×ny airfoil mesh and seeds its initial flow
// field: every cell's state is the free stream with each conserved
// variable perturbed by up to ±0.5% (the cross-flow momentum by up to
// 0.5% of the streamwise one). The seed selects the perturbation, so
// runs with different seeds solve different problems on the same
// topology and do identical work.
func newMesh(nx, ny int, seed uint64) (*airfoil.Mesh, airfoil.Constants, error) {
	c := airfoil.DefaultConstants()
	m, err := airfoil.NewMesh(nx, ny, c)
	if err != nil {
		return nil, c, err
	}
	rng := rand.New(rand.NewPCG(seed, uint64(nx)<<32|uint64(ny)))
	jitter := func() float64 { return 0.01 * (rng.Float64() - 0.5) }
	q := m.Q.Data()
	for i := 0; i < len(q); i += 4 {
		q[i] = c.Qinf[0] * (1 + jitter())
		q[i+1] = c.Qinf[1] * (1 + jitter())
		q[i+2] = c.Qinf[1] * jitter()
		q[i+3] = c.Qinf[3] * (1 + jitter())
	}
	return m, c, nil
}

// flowCopy returns a mesh that shares m's read-only declarations (sets,
// maps, coordinates, boundary flags) and owns fresh flow dats holding a
// copy of m's current q. Each execution path of a workload steps its own
// flow copy, so paper-scale workloads keep one copy of the topology.
func flowCopy(m *airfoil.Mesh) (*airfoil.Mesh, error) {
	c := *m
	var err error
	if c.Q, err = op2.DeclDat(m.Cells, 4, append([]float64(nil), m.Q.Data()...), "p_q"); err != nil {
		return nil, err
	}
	if c.Qold, err = op2.DeclDat(m.Cells, 4, nil, "p_qold"); err != nil {
		return nil, err
	}
	if c.Adt, err = op2.DeclDat(m.Cells, 1, nil, "p_adt"); err != nil {
		return nil, err
	}
	if c.Res, err = op2.DeclDat(m.Cells, 4, nil, "p_res"); err != nil {
		return nil, err
	}
	return &c, nil
}

// workingSetBytes is the computed size of one mesh's dats and maps: the
// data a timestep touches.
func workingSetBytes(m *airfoil.Mesh) int64 {
	var n int64
	for _, d := range []*op2.Dat{m.X, m.Q, m.Qold, m.Adt, m.Res, m.Bound} {
		n += int64(len(d.Data())) * 8
	}
	for _, mp := range []*op2.Map{m.Pedge, m.Pecell, m.Pbedge, m.Pbecell, m.Pcell} {
		n += int64(mp.From().Size()*mp.Dim()) * 4
	}
	return n
}

// Operation and byte counts per kernel call, counted from the kernel
// sources in internal/airfoil/kernels.go (a division and a square root
// count as one operation each). Bytes are the dat values and map
// indices one call reads plus the values it writes, with no cache reuse
// between calls: a computed figure, not a measured one.
const (
	flopsSaveSoln     = 0
	flopsAdtCalc      = 65
	flopsResCalc      = 75
	flopsBresWall     = 14
	flopsBresFarfield = 69
	flopsUpdate       = 18

	bytesSaveSoln = 64  // q read, qold written
	bytesAdtCalc  = 120 // 4 node coordinates, 4 indices, q, adt written
	bytesResCalc  = 256 // 2 nodes, 2 q, 2 adt, 2 res read and written, 4 indices
	bytesBresCalc = 156 // 2 nodes, q, adt, res read and written, bound, 3 indices
	bytesUpdate   = 136 // qold, q written, res read and written, adt
)

// stepCounts returns the computed operations and bytes of one timestep:
// save_soln, then two sub-iterations of adt_calc, res_calc, bres_calc
// and update.
func stepCounts(m *airfoil.Mesh) (flops, bytes float64) {
	cells := float64(m.Cells.Size())
	edges := float64(m.Edges.Size())
	var wall, far float64
	for _, b := range m.Bound.Data() {
		if b == airfoil.BoundWall {
			wall++
		} else {
			far++
		}
	}
	bedges := wall + far
	flops = cells*flopsSaveSoln + 2*(cells*flopsAdtCalc+edges*flopsResCalc+
		wall*flopsBresWall+far*flopsBresFarfield+cells*flopsUpdate)
	bytes = cells*bytesSaveSoln + 2*(cells*bytesAdtCalc+edges*bytesResCalc+
		bedges*bytesBresCalc+cells*bytesUpdate)
	return flops, bytes
}
