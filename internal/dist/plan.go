package dist

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"op2hpx/internal/core"
)

// ErrInvalid classifies plan-time failures of the distributed engine:
// unsupported access modes, intra-loop aliasing, partitioners missing
// topology information. The public facade maps it onto
// op2.ErrValidation.
var ErrInvalid = errors.New("dist: invalid configuration")

func invalidf(format string, a ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrInvalid}, a...)...)
}

// setPart is the ownership and rank-local numbering of one set: every
// element belongs to exactly one rank. Real partitions come from a
// part.Partitioner; derived partitions follow a map into an
// already-partitioned set (each element executes on the rank owning its
// first map target), which is how iteration sets like edges align with
// the data they increment.
//
// On rank r, position p < len(owned[r]) is the p-th owned element
// (ascending global id) and position len(owned[r])+s is halo slot s — the
// localized mesh every sharded dat on the set is laid out in and every
// rank-local map table into the set indexes.
type setPart struct {
	set     *core.Set
	owner   []int32   // global element → owning rank
	owned   [][]int32 // rank → its elements, ascending global id
	local   []int32   // global element → index within its owner's block
	derived bool
	method  string

	// Halo directory: slots are assigned the first time a loop plan
	// references a foreign element on a rank and stay stable afterwards,
	// so the local numbering only ever grows.
	haloSlot []map[int32]int32 // per rank: global id → halo slot
	haloIDs  [][]int32         // per rank: halo slot → global id
}

// finish populates the derived ownership tables for a fixed rank count.
func (sp *setPart) finish(ranks int) {
	sp.owned = make([][]int32, ranks)
	sp.haloSlot = make([]map[int32]int32, ranks)
	sp.haloIDs = make([][]int32, ranks)
	for r := range sp.haloSlot {
		sp.haloSlot[r] = map[int32]int32{}
	}
	for e, r := range sp.owner {
		sp.local[e] = int32(len(sp.owned[r]))
		sp.owned[r] = append(sp.owned[r], int32(e))
	}
}

// size reports rank r's local element count: owned plus halo.
func (sp *setPart) size(r int) int { return len(sp.owned[r]) + len(sp.haloIDs[r]) }

// pos returns rank r's local position of global element id, assigning a
// halo slot on first use. Called only while the engine lock is held
// (plan construction); workers consume the precomputed positions.
func (sp *setPart) pos(r int, id int32) int32 {
	if sp.owner[id] == int32(r) {
		return sp.local[id]
	}
	s, ok := sp.haloSlot[r][id]
	if !ok {
		s = int32(len(sp.haloIDs[r]))
		sp.haloSlot[r][id] = s
		sp.haloIDs[r] = append(sp.haloIDs[r], id)
	}
	return int32(len(sp.owned[r])) + s
}

// lookup is pos without slot assignment: -1 for a foreign element that
// has no halo slot on rank r.
func (sp *setPart) lookup(r int, id int32) int32 {
	if sp.owner[id] == int32(r) {
		return sp.local[id]
	}
	if s, ok := sp.haloSlot[r][id]; ok {
		return int32(len(sp.owned[r])) + s
	}
	return -1
}

// ids returns the global ids of rank r's local positions [0, n).
func (sp *setPart) ids(r, n int) []int32 {
	out := make([]int32, n)
	k := copy(out, sp.owned[r])
	copy(out[k:], sp.haloIDs[r])
	return out
}

// shardedDat is a dat on its set's localized mesh: rank r holds one
// contiguous array, local[r], with its owned elements' values first and
// the halo slots after. The declaration's global array is stale between
// flushes; the shards are authoritative. The halo part is sized at plan
// time (see Engine.growLocked) on the ranks this process hosts.
type shardedDat struct {
	d     *core.Dat
	sp    *setPart
	local [][]float64
}

// argKind classifies a loop argument for distributed execution.
type argKind int

const (
	argGblRead   argKind = iota // global parameter, read-only
	argGblReduce                // global reduction (Inc/Min/Max)
	argSharded                  // sharded dat, direct or through a map
	argGathered                 // replicated dat on a partitioned set: gathered into its local numbering per occurrence
	argHost                     // replicated dat on an unpartitioned set: the host array, indexed by global id
)

type argPlan struct {
	kind argKind
	acc  core.Access
	dim  int
	g    *core.Global
	d    *core.Dat   // every dat kind
	sd   *shardedDat // argSharded
	dsp  *setPart    // partition of the dat's set (argSharded, argGathered)
	m    *core.Map   // nil for direct access
	idx  int
	off  int // scratch offset (argGblReduce)
}

// reads reports whether the argument reads a dat's values.
func (ap *argPlan) reads() bool { return ap.acc == core.Read || ap.acc == core.RW }

// gblLayout mirrors the core scratch layout for reducing global args.
type gblLayout struct {
	size int
	init []float64
}

// loopPlan is the distributed execution plan of one loop: each rank's
// localized elements in plan order, split into the runs that execute
// before and after the read-halo wait, the rank-local map tables the
// loop's body is bound to, the read-halo exchange schedules, and the
// reduction metadata that keeps the results bitwise-identical to the
// shared-memory backends.
type loopPlan struct {
	name string
	itsp *setPart

	args    []argPlan
	readSDs []*shardedDat // sharded dats whose halo values the loop reads, in arg order
	incSDs  []*shardedDat // sharded dats incremented through maps, in arg order
	repl    []*core.Dat   // dats read as replicated (plan invalidated if sharded later)

	gbl             gblLayout
	needElementwise bool  // any Inc global: reduction folds per element in serial order
	foldOrder       []int // serial element order (plan colors/blocks/elements)

	ranks []*rankPlan
}

type readSendPart struct {
	sd     *shardedDat
	locals []int32 // owned positions to gather, ascending global id
}

type readRecvPart struct {
	sd  *shardedDat
	pos []int32 // halo positions to scatter into, ascending global id
}

// readSchedule is one rank's read-halo exchange for one posting point:
// which owned values to pack per destination, which messages to expect
// per source, and where to scatter them. A loopPlan holds the solo
// schedule of each rank (what the loop needs when issued on its own); a
// multi-loop step builds union schedules that serve every loop of a
// coalescing group with one exchange (see stepPlan).
type readSchedule struct {
	sendTo   [][]readSendPart // per dst rank; empty = no message
	sendLen  []int            // floats per dst
	recvFrom [][]readRecvPart // per src rank
	recvLen  []int
}

// active reports whether the schedule moves any data on this rank.
func (rs *readSchedule) active() bool {
	for _, n := range rs.sendLen {
		if n > 0 {
			return true
		}
	}
	for _, n := range rs.recvLen {
		if n > 0 {
			return true
		}
	}
	return false
}

// gather refreshes one replicated dat's rank-local copy from the host
// array at the start of every occurrence, so host writes stay visible
// exactly as they were to the host-indexed loops.
type gather struct {
	d   *core.Dat
	ids []int32 // global id per local position
	buf []float64
}

func (g *gather) fill() {
	dim := g.d.Dim()
	src := g.d.Data()
	for p, id := range g.ids {
		copy(g.buf[p*dim:(p+1)*dim], src[int(id)*dim:(int(id)+1)*dim])
	}
}

// rankPlan is the per-rank slice of a loopPlan. Runs are [lo, hi) pairs
// of local positions of the iteration set, in plan order; a run never
// crosses from owned positions into the exec halo.
type rankPlan struct {
	rank   int
	nowned int     // positions below are owned, at or above exec halo
	early  []int32 // runs that read no halo value: execute while messages fly
	late   []int32 // runs gated on the read-halo exchange

	// halo lists, per sharded dat, the foreign ids the rank reads in
	// ascending global id — the canonical import need the exchange
	// schedules are built from.
	halo map[*shardedDat][]int32

	// Binding targets, built on the ranks this process hosts.
	maps    map[*core.Map][]int32 // localized map tables, rows by local position
	gathers []*gather

	read *readSchedule // the loop's own read-halo exchange
}

// loopKey identifies a distributed plan structurally: the iteration set
// and the (dat/global, map, index, access) shape of every argument.
// Loops declared inline each timestep therefore share one cached plan
// instead of growing the cache without bound; the body is not part of
// the key (it is bound per loop, see Engine.bindLocked).
func loopKey(l *core.Loop) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%p", l.Set)
	for _, a := range l.Args {
		if a.IsGlobal() {
			fmt.Fprintf(&b, "|g%p:%d", a.Global(), a.Acc())
		} else {
			fmt.Fprintf(&b, "|d%p:%p:%d:%d", a.Dat(), a.Map(), a.Idx(), a.Acc())
		}
	}
	return b.String()
}

// validateDistLoop rejects loops the distributed engine cannot replay
// with serial semantics: unsupported indirect access modes, and
// intra-loop aliasing between increments, direct writes and
// halo-snapshotted reads.
func validateDistLoop(l *core.Loop) error {
	if err := l.Validate(); err != nil {
		return err
	}
	for _, a := range l.Args {
		if a.IsGlobal() || a.Map() == nil {
			continue
		}
		switch a.Acc() {
		case core.Read, core.Inc:
		default:
			return invalidf("loop %q: indirect %v access is not supported distributed (owner-compute needs Read or Inc through maps)", l.Name, a.Acc())
		}
	}
	// Intra-loop aliasing the engine cannot replay: serial applies
	// increments and direct writes immediately, so a later element's
	// read can observe them; a rank reads foreign values from a halo
	// snapshot taken before any element runs, and its halo slots of an
	// incremented dat hold contributions that are never read. A loop
	// that both writes a dat (inc or direct write) and reads it through
	// a map (or reads an incremented dat at all) would silently diverge
	// from the serial backend, so reject it instead.
	incd := map[*core.Dat]bool{}
	directWrite := map[*core.Dat]bool{}
	indirectRead := map[*core.Dat]bool{}
	for _, a := range l.Args {
		if a.IsGlobal() {
			continue
		}
		switch {
		case a.Map() != nil && a.Acc() == core.Inc:
			incd[a.Dat()] = true
		case a.Map() == nil && a.Acc() != core.Read:
			directWrite[a.Dat()] = true
		case a.Map() != nil && a.Acc() == core.Read:
			indirectRead[a.Dat()] = true
		}
	}
	for _, a := range l.Args {
		if !a.IsGlobal() && a.Acc() != core.Inc && incd[a.Dat()] {
			return invalidf("loop %q: dat %q is both read and incremented; distributed ranks read foreign values from a halo snapshot, so reads would not observe the increments as the serial backend's do", l.Name, a.Dat().Name())
		}
	}
	for d := range directWrite {
		if indirectRead[d] {
			return invalidf("loop %q: dat %q is written directly and read through a map; the distributed halo snapshot would not observe the writes as the serial backend's reads do", l.Name, d.Name())
		}
	}
	return nil
}

// prepareLoopLocked establishes the ownership and sharding state a
// validated loop needs: target sets of sharded indirect accesses
// partitioned, the iteration set partitioned (derived through a map when
// possible), and every written dat moved to its set's localized mesh. It
// is idempotent; a Step calls it for every member loop before any
// member's plan is built, so a dat a later loop writes is already sharded
// when an earlier loop's plan is derived.
func (e *Engine) prepareLoopLocked(l *core.Loop) error {
	// Ownership first: target sets of indirect accesses that are (or are
	// about to be) sharded must be partitioned before the iteration set
	// can derive from them.
	for _, a := range l.Args {
		if a.IsGlobal() || a.Map() == nil {
			continue
		}
		if a.Acc() == core.Inc || e.dats[a.Dat()] != nil {
			if _, err := e.ensureRealPartLocked(a.Dat().Set()); err != nil {
				return err
			}
		}
	}
	if e.sets[l.Set] == nil {
		// Derive the iteration set's ownership from the first indirect
		// arg whose target is partitioned (owner of map slot 0), so
		// elements execute where their data lives; otherwise partition
		// it for real.
		derived := false
		for _, a := range l.Args {
			if a.IsGlobal() || a.Map() == nil {
				continue
			}
			if tsp := e.sets[a.Dat().Set()]; tsp != nil {
				e.derivePartLocked(l.Set, a.Map(), tsp)
				derived = true
				break
			}
		}
		if !derived {
			if _, err := e.ensureRealPartLocked(l.Set); err != nil {
				return err
			}
		}
	}
	// Shard every dat the loop writes; everything else read-only stays
	// replicated until some later loop writes it.
	for _, a := range l.Args {
		if a.IsGlobal() || a.Acc() == core.Read {
			continue
		}
		if _, err := e.ensureShardedLocked(a.Dat()); err != nil {
			return err
		}
	}
	return nil
}

// planLocked returns the cached distributed plan for l, building it (and
// any ownership, sharding and halo state it needs) on first use. The
// engine lock must be held; the caller grows the local storage the new
// plan references (growLocked) before anything executes it.
func (e *Engine) planLocked(l *core.Loop) (*loopPlan, error) {
	key := loopKey(l)
	if lp, ok := e.plans[key]; ok {
		return lp, nil
	}
	if err := validateDistLoop(l); err != nil {
		return nil, err
	}
	if err := e.prepareLoopLocked(l); err != nil {
		return nil, err
	}
	e.builds++
	lp := &loopPlan{name: l.Name, itsp: e.sets[l.Set]}
	lp.args = make([]argPlan, len(l.Args))
	seenSD := map[*shardedDat]bool{}
	seenInc := map[*shardedDat]bool{}
	seenRepl := map[*core.Dat]bool{}
	for i, a := range l.Args {
		ap := &lp.args[i]
		ap.acc = a.Acc()
		if a.IsGlobal() {
			g := a.Global()
			ap.g, ap.dim = g, g.Dim()
			e.fenceGlobalLocked(g)
			if a.Acc() == core.Read {
				ap.kind = argGblRead
				continue
			}
			ap.kind = argGblReduce
			ap.off = lp.gbl.size
			lp.gbl.size += g.Dim()
			for k := 0; k < g.Dim(); k++ {
				lp.gbl.init = append(lp.gbl.init, core.ReduceInit(a.Acc()))
			}
			if a.Acc() == core.Inc {
				lp.needElementwise = true
			}
			continue
		}
		d := a.Dat()
		ap.d, ap.dim, ap.m, ap.idx = d, d.Dim(), a.Map(), a.Idx()
		if sd := e.dats[d]; sd != nil {
			ap.kind, ap.sd, ap.dsp = argSharded, sd, sd.sp
			if ap.m != nil && ap.acc == core.Inc && !seenInc[sd] {
				seenInc[sd] = true
				lp.incSDs = append(lp.incSDs, sd)
			}
			continue
		}
		ap.kind = argHost
		if dsp := e.sets[d.Set()]; dsp != nil {
			ap.kind, ap.dsp = argGathered, dsp
		}
		if !seenRepl[d] {
			seenRepl[d] = true
			lp.repl = append(lp.repl, d)
			e.fenceReplicatedLocked(d)
		}
	}
	// Halo values are read through maps, and directly by exec-halo
	// elements (which exist only in loops with indirect increments).
	for i := range lp.args {
		ap := &lp.args[i]
		if ap.kind == argSharded && ap.reads() && (ap.m != nil || len(lp.incSDs) > 0) && !seenSD[ap.sd] {
			seenSD[ap.sd] = true
			lp.readSDs = append(lp.readSDs, ap.sd)
		}
	}

	plan, err := core.LoopPlan(l, e.blockSize)
	if err != nil {
		return nil, err
	}
	lp.foldOrder = plan.ElementOrder()
	execs := lp.execLists(e.ranks)
	lp.ranks = make([]*rankPlan, e.ranks)
	for r := range lp.ranks {
		lp.ranks[r] = e.buildRank(lp, r, execs[r])
	}
	e.buildReadExchange(lp)

	e.plans[key] = lp
	return lp, nil
}

// execLists splits the plan order across ranks: every rank executes its
// own elements and, in a loop with indirect increments, the foreign
// elements that increment one of its owned elements — the exec halo,
// executed redundantly so that increments to owned elements never cross
// the wire. Each list keeps plan order.
func (lp *loopPlan) execLists(ranks int) [][]int32 {
	execs := make([][]int32, ranks)
	last := make([]int32, ranks) // last element appended per rank, deduplicating exec-halo entries
	for r := range last {
		last[r] = -1
	}
	for _, el := range lp.foldOrder {
		e32 := int32(el)
		o := lp.itsp.owner[el]
		execs[o] = append(execs[o], e32)
		last[o] = e32
		for i := range lp.args {
			ap := &lp.args[i]
			if ap.kind != argSharded || ap.m == nil || ap.acc != core.Inc {
				continue
			}
			if t := ap.sd.sp.owner[ap.m.At(el, ap.idx)]; last[t] != e32 {
				execs[t] = append(execs[t], e32)
				last[t] = e32
			}
		}
	}
	return execs
}

// buildRank derives rank r's slice of the plan from its exec list: the
// local positions (assigning halo slots to every foreign element and map
// target it touches), the foreign values it reads, the early/late split,
// and — on ranks this process hosts — the map tables and gather buffers
// its bound body indexes.
//
// An element runs early, before the read-halo wait, only if it reads no
// halo value and no owned increment target it shares has already taken a
// contribution from a late element earlier in plan order. One pass over
// plan order decides this, so every owned element still receives its
// increments in the loop plan's ElementOrder — bitwise identity with the
// serial backend by construction.
func (e *Engine) buildRank(lp *loopPlan, r int, exec []int32) *rankPlan {
	itsp := lp.itsp
	rp := &rankPlan{rank: r, nowned: len(itsp.owned[r]), halo: map[*shardedDat][]int32{}}
	need := map[*shardedDat]map[int32]bool{}
	taint := map[*shardedDat][]bool{} // owned targets that took a late contribution
	split := int32(rp.nowned)
	var late []int32
	for _, el := range exec {
		p := itsp.pos(r, el)
		halo := false
		for i := range lp.args {
			ap := &lp.args[i]
			if ap.dsp == nil {
				continue // globals and host-indexed dats
			}
			id := el
			if ap.m != nil {
				id = int32(ap.m.At(int(el), ap.idx))
			}
			q := ap.dsp.pos(r, id)
			if ap.kind != argSharded || q < int32(len(ap.dsp.owned[r])) {
				if ap.kind == argSharded && ap.m != nil && ap.acc == core.Inc && taint[ap.sd] != nil && taint[ap.sd][q] {
					halo = true
				}
				continue
			}
			if ap.reads() {
				if need[ap.sd] == nil {
					need[ap.sd] = map[int32]bool{}
				}
				need[ap.sd][id] = true
				halo = true
			}
		}
		if !halo {
			rp.early = appendRun(rp.early, p, split)
			continue
		}
		late = append(late, p)
		for i := range lp.args {
			ap := &lp.args[i]
			if ap.kind != argSharded || ap.m == nil || ap.acc != core.Inc {
				continue
			}
			tsp := ap.sd.sp
			if q := tsp.lookup(r, int32(ap.m.At(int(el), ap.idx))); q < int32(len(tsp.owned[r])) {
				if taint[ap.sd] == nil {
					taint[ap.sd] = make([]bool, len(tsp.owned[r]))
				}
				taint[ap.sd][q] = true
			}
		}
	}
	for _, p := range late {
		rp.late = appendRun(rp.late, p, split)
	}
	for sd, ids := range need {
		rp.halo[sd] = sortedIDs(ids)
	}
	if e.workers[r] == nil {
		return rp // hosted by a peer process: schedules only
	}
	rp.maps = map[*core.Map][]int32{}
	seenGather := map[*core.Dat]bool{}
	for i := range lp.args {
		ap := &lp.args[i]
		if ap.m != nil && rp.maps[ap.m] == nil {
			rp.maps[ap.m] = e.localMap(ap.m, itsp, r)
		}
		if ap.kind == argGathered && !seenGather[ap.d] {
			seenGather[ap.d] = true
			n := ap.dsp.size(r)
			rp.gathers = append(rp.gathers, &gather{d: ap.d, ids: ap.dsp.ids(r, n), buf: make([]float64, n*ap.dim)})
		}
	}
	return rp
}

// localMap builds rank r's table of map m: one row per local position of
// the source set, holding local positions of the target set when that set
// is partitioned (global ids otherwise — its dats are only ever read from
// the host arrays). Entries no plan references stay -1.
func (e *Engine) localMap(m *core.Map, from *setPart, r int) []int32 {
	dim := m.Dim()
	n := from.size(r)
	t := make([]int32, n*dim)
	to := e.sets[m.To()]
	ids := from.ids(r, n)
	src := m.Data()
	for p, id := range ids {
		row := src[int(id)*dim : (int(id)+1)*dim]
		for k, tgt := range row {
			if to != nil {
				tgt = to.lookup(r, tgt)
			}
			t[p*dim+k] = tgt
		}
	}
	return t
}

// appendRun extends the run list with local position p, merging it into
// the last run when contiguous; runs never merge across split, the first
// exec-halo position.
func appendRun(runs []int32, p, split int32) []int32 {
	if n := len(runs); n > 0 && runs[n-1] == p && p != split {
		runs[n-1]++
		return runs
	}
	return append(runs, p, p+1)
}

// sortedIDs returns a set of ids as an ascending slice.
func sortedIDs(set map[int32]bool) []int32 {
	ids := make([]int32, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// buildReadSchedules derives, for every rank, the exchange that delivers
// the given halo ids of the given dats: which owned values each rank
// packs per destination and which messages it expects per source, both
// sides grouped by owning rank in ascending global id — the same
// canonical order everywhere, so a message is one frame-sequence tag
// (see worker.checkFrame) followed by raw values with no per-value
// headers. needIDs(r, sd) returns the ascending halo ids rank r must
// import for sd; dats are visited in list order, which fixes the layout
// of multi-dat messages.
func (e *Engine) buildReadSchedules(dats []*shardedDat, needIDs func(r int, sd *shardedDat) []int32) []*readSchedule {
	R := e.ranks
	scheds := make([]*readSchedule, R)
	for r := range scheds {
		scheds[r] = &readSchedule{
			sendTo:   make([][]readSendPart, R),
			sendLen:  make([]int, R),
			recvFrom: make([][]readRecvPart, R),
			recvLen:  make([]int, R),
		}
	}
	for r := 0; r < R; r++ {
		for _, sd := range dats {
			sp := sd.sp
			ids := needIDs(r, sd)
			if len(ids) == 0 {
				continue
			}
			// Group by owner, preserving ascending id within each group.
			for s := 0; s < R; s++ {
				var group []int32
				for _, id := range ids {
					if int(sp.owner[id]) == s {
						group = append(group, id)
					}
				}
				if len(group) == 0 {
					continue
				}
				pos := make([]int32, len(group))
				locals := make([]int32, len(group))
				for i, id := range group {
					pos[i] = sp.lookup(r, id)
					locals[i] = sp.local[id]
				}
				scheds[r].recvFrom[s] = append(scheds[r].recvFrom[s], readRecvPart{sd: sd, pos: pos})
				scheds[r].recvLen[s] += len(group) * sd.d.Dim()
				scheds[s].sendTo[r] = append(scheds[s].sendTo[r], readSendPart{sd: sd, locals: locals})
				scheds[s].sendLen[r] += len(group) * sd.d.Dim()
			}
		}
	}
	return scheds
}

// buildReadExchange attaches each rank's solo read-halo schedule to the
// loop plan: rank r imports exactly the halo ids it reads.
func (e *Engine) buildReadExchange(lp *loopPlan) {
	scheds := e.buildReadSchedules(lp.readSDs, func(r int, sd *shardedDat) []int32 {
		return lp.ranks[r].halo[sd]
	})
	for _, rp := range lp.ranks {
		rp.read = scheds[rp.rank]
	}
}
