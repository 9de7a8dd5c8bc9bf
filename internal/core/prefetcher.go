package core

import (
	"math"

	"op2hpx/internal/hpx/prefetch"
)

// loopPrefetcher implements the §V prefetching iterator for OP2 loops:
// while a prefetch unit of the iteration range executes, the data of the
// *next* unit is read into cache for every container the loop accesses —
// the dats accessed directly, the map tables of indirect arguments, and
// (by gathering through the map, a jump-pointer-style prefetch) the
// indirectly accessed dat elements themselves.
type loopPrefetcher struct {
	unit     int // iterations per prefetch unit
	direct   []directContainer
	maps     []*Map
	indirect []indirectContainer
}

type directContainer struct {
	data prefetch.Float64s
	dim  int
}

type indirectContainer struct {
	data []float64
	dim  int
	m    *Map
	idx  int
}

// newLoopPrefetcher builds the prefetcher for l, or returns nil when
// prefetching is disabled.
func (ex *Executor) newLoopPrefetcher(l *Loop) *loopPrefetcher {
	d := ex.cfg.PrefetchDistance
	if d < 1 || ex.cfg.Backend == Serial {
		return nil
	}
	pf := &loopPrefetcher{
		unit: d * (prefetch.CacheLineBytes / 8),
	}
	seenDat := map[*Dat]bool{}
	seenMap := map[*Map]bool{}
	seenInd := map[[2]any]bool{}
	for _, a := range l.Args {
		switch {
		case a.gbl != nil:
			// Globals are tiny and stay cache-resident.
		case a.m == nil:
			if !seenDat[a.dat] {
				seenDat[a.dat] = true
				pf.direct = append(pf.direct, directContainer{data: a.dat.data, dim: a.dat.dim})
			}
		default:
			if !seenMap[a.m] {
				seenMap[a.m] = true
				pf.maps = append(pf.maps, a.m)
			}
			key := [2]any{a.dat, a.m}
			if !seenInd[key] {
				seenInd[key] = true
				pf.indirect = append(pf.indirect, indirectContainer{
					data: a.dat.data, dim: a.dat.dim, m: a.m, idx: a.idx,
				})
			}
		}
	}
	return pf
}

// touch reads one element per cache line of every container's storage for
// iterations [ulo, uhi).
func (pf *loopPrefetcher) touch(ulo, uhi int) {
	if ulo >= uhi {
		return
	}
	for _, c := range pf.direct {
		c.data.TouchRange(ulo*c.dim, uhi*c.dim)
	}
	for _, m := range pf.maps {
		prefetch.Int32s(m.data).TouchRange(ulo*m.dim, uhi*m.dim)
	}
	for _, c := range pf.indirect {
		// Gather prefetch: pull the first value of every element the
		// next unit will reach through the map. The map rows them-
		// selves were just touched above, so this is the second hop.
		md := c.m.data
		mdim := c.m.dim
		var acc float64
		for e := ulo; e < uhi; e++ {
			base := e * mdim
			for k := 0; k < mdim; k++ {
				acc += c.data[int(md[base+k])*c.dim]
			}
		}
		prefetch.Sink(math.Float64bits(acc))
	}
}

// run executes body over [lo, hi) in prefetch units, touching unit k+1
// while unit k is about to execute (Fig. 13: data of the next iteration
// step is prefetched in each iteration within the for_each). The touch
// stops at hi: past it lie the elements of a neighbouring chunk, whose
// direct data another worker's body may be writing concurrently.
func (pf *loopPrefetcher) run(lo, hi int, scratch []float64, body RangeBody) {
	unit := pf.unit
	for ulo := lo; ulo < hi; ulo += unit {
		uhi := ulo + unit
		if uhi > hi {
			uhi = hi
		}
		pf.touch(uhi, min(uhi+unit, hi))
		body(ulo, uhi, scratch)
	}
}
