package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Kernel is a user kernel in the generic OP2 style: views[k] is the slice
// view of argument k for the current set element (dim values for dat args,
// the reduction scratch for global args). It is called once per element,
// like save_soln(...) inside the generated loop of Fig. 4.
type Kernel func(views [][]float64)

// RangeBody is a specialized loop body covering the element range
// [lo, hi) — the shape the OP2 translator generates per kernel so the
// inner loop indexes raw slices directly instead of building per-element
// views. scratch is the loop's reduction buffer (laid out by scratchLayout;
// empty when the loop has no global reductions). A RangeBody must touch
// data exactly as the loop's Args declare.
type RangeBody func(lo, hi int, scratch []float64)

// Bindings resolves a loop's declared containers to the storage one
// execution context runs on: the host arrays for the shared-memory
// backends, a rank's localized arrays and map tables for the distributed
// engine. Element e of a bound body is element e of that storage, and a
// bound map's values index the bound storage of the map's target set.
type Bindings interface {
	// Dat returns the storage of a dat the loop declares (dim values per
	// element).
	Dat(d *Dat) []float64
	// Map returns the table of a map the loop declares (dim entries per
	// element).
	Map(m *Map) []int32
}

// BodyFactory builds a loop's RangeBody over bound storage. Backends call
// it once per execution context — the executor once per compiled loop
// over host storage, the distributed engine once per rank over the
// rank's local mesh — so the returned body must read every array it
// indexes through b, never from the host containers directly.
type BodyFactory func(b Bindings) RangeBody

// hostBindings binds a loop to the declarations' own (host) storage.
type hostBindings struct{}

func (hostBindings) Dat(d *Dat) []float64 { return d.data }
func (hostBindings) Map(m *Map) []int32   { return m.data }

// Loop describes one op_par_loop: a name, the iteration set, the argument
// list with access descriptors, and the kernel. At least one of Kernel or
// Body must be set; Body takes precedence.
type Loop struct {
	Name   string
	Set    *Set
	Args   []Arg
	Kernel Kernel
	Body   BodyFactory

	// compiled caches the loop's steady-state execution artifact, built
	// by the first executor that runs the loop (see CompiledLoop). The
	// body is bound at compile time, so attaching a different Body after
	// the first execution needs InvalidateCompiled; a re-attached Kernel
	// is read per invocation by the generic body and needs nothing.
	compiled atomic.Pointer[CompiledLoop]
}

// Factory returns the loop's body factory: the attached Body, or the
// generic view builder over the loop's Kernel for Kernel-only loops — so
// every backend executes a loop through one element path.
func (l *Loop) Factory() BodyFactory {
	if l.Body != nil {
		return l.Body
	}
	return l.genericFactory
}

// genericFactory is the body factory of a Kernel-only loop: per element
// it builds the argument views over the bound storage and calls the
// kernel, read from the Loop on every range so a re-attached Kernel is
// observed without rebinding.
func (l *Loop) genericFactory(b Bindings) RangeBody {
	args := l.Args
	sl := layoutScratch(args)
	data := make([][]float64, len(args))
	maps := make([][]int32, len(args))
	for i := range args {
		a := &args[i]
		switch {
		case a.gbl != nil:
			data[i] = a.gbl.data
		default:
			data[i] = b.Dat(a.dat)
			if a.m != nil {
				maps[i] = b.Map(a.m)
			}
		}
	}
	views := &sync.Pool{New: func() any {
		v := make([][]float64, len(args))
		return &v
	}}
	return func(lo, hi int, scratch []float64) {
		kernel := l.Kernel
		vp := views.Get().(*[][]float64)
		v := *vp
		// Invariant views (globals) are set once per range.
		for i := range args {
			a := &args[i]
			if a.gbl == nil {
				continue
			}
			if off := sl.offs[i]; off >= 0 {
				v[i] = scratch[off : off+a.gbl.Dim()]
			} else {
				v[i] = data[i]
			}
		}
		for e := lo; e < hi; e++ {
			for i := range args {
				a := &args[i]
				if a.gbl != nil {
					continue
				}
				dim := a.dat.dim
				j := e
				if m := maps[i]; m != nil {
					j = int(m[e*a.m.dim+a.idx])
				}
				v[i] = data[i][j*dim : (j+1)*dim : (j+1)*dim]
			}
			kernel(v)
		}
		views.Put(vp)
	}
}

// InvalidateCompiled drops the loop's cached compiled artifact so the
// next execution recompiles it. Needed when the loop's Set, Args or Body
// are changed after the first run — an attached Kernel is always read
// fresh.
func (l *Loop) InvalidateCompiled() { l.compiled.Store(nil) }

// Validate checks the loop's arguments against its iteration set.
func (l *Loop) Validate() error {
	if l.Set == nil {
		return fmt.Errorf("op2: loop %q has no iteration set", l.Name)
	}
	if l.Kernel == nil && l.Body == nil {
		return fmt.Errorf("op2: loop %q has neither Kernel nor Body", l.Name)
	}
	for i, a := range l.Args {
		if err := a.validate(l.Set, i); err != nil {
			return fmt.Errorf("op2: loop %q: %w", l.Name, err)
		}
	}
	return nil
}

// ReduceInit returns the identity element of a reduction access: 0 for
// Inc, +Inf for Min, -Inf for Max. Shared by every backend (including
// the distributed engine) so they cannot drift.
func ReduceInit(a Access) float64 {
	switch a {
	case Min:
		return math.Inf(1)
	case Max:
		return math.Inf(-1)
	default:
		return 0
	}
}

// ReduceCombine folds src into dst under the reduction access — the one
// definition of how partial reductions merge, shared by every backend.
func ReduceCombine(a Access, dst, src []float64) {
	switch a {
	case Inc:
		for k := range src {
			dst[k] += src[k]
		}
	case Min:
		for k := range src {
			if src[k] < dst[k] {
				dst[k] = src[k]
			}
		}
	case Max:
		for k := range src {
			if src[k] > dst[k] {
				dst[k] = src[k]
			}
		}
	}
}

// scratchLayout computes where each reducing global argument lives inside
// the per-chunk scratch buffer.
type scratchLayout struct {
	size  int
	offs  []int // per arg; -1 for non-reducing args
	initv []float64
}

func layoutScratch(args []Arg) scratchLayout {
	sl := scratchLayout{offs: make([]int, len(args))}
	for i, a := range args {
		sl.offs[i] = -1
		if !a.IsGlobal() || a.acc == Read {
			continue
		}
		sl.offs[i] = sl.size
		dim := a.gbl.Dim()
		for k := 0; k < dim; k++ {
			sl.initv = append(sl.initv, ReduceInit(a.acc))
		}
		sl.size += dim
	}
	return sl
}

// combine folds one scratch buffer into an accumulator of the same layout.
func (sl *scratchLayout) combine(acc, s []float64, args []Arg) {
	for i, a := range args {
		off := sl.offs[i]
		if off < 0 {
			continue
		}
		dim := a.gbl.Dim()
		ReduceCombine(a.acc, acc[off:off+dim], s[off:off+dim])
	}
}

// apply folds the final accumulator into the global variables themselves.
func (sl *scratchLayout) apply(acc []float64, args []Arg) {
	for i, a := range args {
		off := sl.offs[i]
		if off < 0 {
			continue
		}
		g := a.gbl
		dim := g.Dim()
		ReduceCombine(a.acc, g.data[:dim], acc[off:off+dim])
	}
}

// conflictMaps returns one conflictSource per distinct map used by an
// indirect modifying access: these are the accesses that make unsynchron-
// ized parallel execution racy and therefore require plan coloring.
func conflictMaps(args []Arg) []conflictSource {
	var out []conflictSource
	seen := map[*Map]bool{}
	for _, a := range args {
		if a.IsGlobal() || a.m == nil || a.acc == Read {
			continue
		}
		if !seen[a.m] {
			seen[a.m] = true
			out = append(out, conflictSource{m: a.m})
		}
	}
	return out
}
