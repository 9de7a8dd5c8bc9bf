package main

import (
	"time"

	"op2hpx/internal/airfoil"
)

// kernelTimes is one timestep of the five exported airfoil kernels run
// in plain single-threaded loops, with no op2 runtime in between: the
// kernel-arithmetic layer on its own.
type kernelTimes struct {
	sweep                                     time.Duration // the whole step: save_soln + 2×(adt, res, bres, update)
	saveSoln, adtCalc, resCalc, bresCalc, upd time.Duration // one call over the kernel's set
}

// sweepKernels runs one timestep of the kernels over fm, a flow copy
// that no runtime uses, and times each kernel loop.
func sweepKernels(fm *airfoil.Mesh, c *airfoil.Constants) kernelTimes {
	x, q, qold := fm.X.Data(), fm.Q.Data(), fm.Qold.Data()
	adt, res, bound := fm.Adt.Data(), fm.Res.Data(), fm.Bound.Data()
	pcell, pedge, pecell := fm.Pcell.Data(), fm.Pedge.Data(), fm.Pecell.Data()
	pbedge, pbecell := fm.Pbedge.Data(), fm.Pbecell.Data()
	ncell, nedge, nbedge := fm.Cells.Size(), fm.Edges.Size(), fm.Bedges.Size()
	rms := []float64{0}
	node := func(i int32) []float64 { return x[2*i : 2*i+2] }

	var kt kernelTimes
	t := time.Now()
	for e := 0; e < ncell; e++ {
		airfoil.SaveSoln(q[4*e:4*e+4], qold[4*e:4*e+4])
	}
	kt.saveSoln = time.Since(t)
	for k := 0; k < 2; k++ {
		t = time.Now()
		for e := 0; e < ncell; e++ {
			p := pcell[4*e : 4*e+4]
			c.AdtCalc(node(p[0]), node(p[1]), node(p[2]), node(p[3]), q[4*e:4*e+4], adt[e:e+1])
		}
		kt.adtCalc += time.Since(t)
		t = time.Now()
		for e := 0; e < nedge; e++ {
			c1, c2 := pecell[2*e], pecell[2*e+1]
			c.ResCalc(node(pedge[2*e]), node(pedge[2*e+1]), q[4*c1:4*c1+4], q[4*c2:4*c2+4],
				adt[c1:c1+1], adt[c2:c2+1], res[4*c1:4*c1+4], res[4*c2:4*c2+4])
		}
		kt.resCalc += time.Since(t)
		t = time.Now()
		for e := 0; e < nbedge; e++ {
			c1 := pbecell[e]
			c.BresCalc(node(pbedge[2*e]), node(pbedge[2*e+1]), q[4*c1:4*c1+4], adt[c1:c1+1],
				res[4*c1:4*c1+4], bound[e:e+1])
		}
		kt.bresCalc += time.Since(t)
		t = time.Now()
		for e := 0; e < ncell; e++ {
			airfoil.Update(qold[4*e:4*e+4], q[4*e:4*e+4], res[4*e:4*e+4], adt[e:e+1], rms)
		}
		kt.upd += time.Since(t)
	}
	kt.sweep = kt.saveSoln + kt.adtCalc + kt.resCalc + kt.bresCalc + kt.upd
	kt.adtCalc /= 2
	kt.resCalc /= 2
	kt.bresCalc /= 2
	kt.upd /= 2
	return kt
}

// kernelLayer sets the airfoil.* metrics: each kernel's median time over
// repeated sweeps of the workload's mesh (at least five, and enough to
// fill 200 ms on small meshes), and the computed counts of a step.
func kernelLayer(w workload, seed uint64, vals map[string]float64) error {
	m, c, err := newMesh(w.nx, w.ny, seed)
	if err != nil {
		return err
	}
	var runs []kernelTimes
	for t0 := time.Now(); len(runs) < 5 || (time.Since(t0) < 200*time.Millisecond && len(runs) < 1000); {
		runs = append(runs, sweepKernels(m, &c))
	}
	perElem := func(f func(kernelTimes) time.Duration, n int) float64 {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = float64(f(r).Nanoseconds())
		}
		return median(xs) / float64(n)
	}
	vals["airfoil.kernel_sweep_ms"] = perElem(func(k kernelTimes) time.Duration { return k.sweep }, 1) / 1e6
	vals["airfoil.save_soln_ns_per_elem"] = perElem(func(k kernelTimes) time.Duration { return k.saveSoln }, m.Cells.Size())
	vals["airfoil.adt_calc_ns_per_elem"] = perElem(func(k kernelTimes) time.Duration { return k.adtCalc }, m.Cells.Size())
	vals["airfoil.res_calc_ns_per_elem"] = perElem(func(k kernelTimes) time.Duration { return k.resCalc }, m.Edges.Size())
	vals["airfoil.bres_calc_ns_per_elem"] = perElem(func(k kernelTimes) time.Duration { return k.bresCalc }, m.Bedges.Size())
	vals["airfoil.update_ns_per_elem"] = perElem(func(k kernelTimes) time.Duration { return k.upd }, m.Cells.Size())
	vals["airfoil.flops_per_step"], vals["airfoil.bytes_per_step"] = stepCounts(m)
	return nil
}
