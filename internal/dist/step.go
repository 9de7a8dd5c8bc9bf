package dist

import (
	"strings"

	"op2hpx/internal/core"
)

// stepPlan is the distributed execution plan of one Step: the member
// loops' plans in program order plus the cross-loop schedules the step's
// dataflow DAG makes legal —
//
//   - coalesced read-halo exchanges: consecutive loops importing the
//     same dat's halo with no intervening write share one exchange,
//     posted by the first importer (the group leader) and sized to the
//     union of the group's needs, and
//   - hoisted posting: a leader's exchange is posted as soon as every
//     dat it carries holds its final owned values, so the messages
//     travel while the occurrences in between compute.
//
// Single loops are one-loop steps: their leader schedule is the loop's
// own, which is exactly the loop-at-a-time behaviour.
type stepPlan struct {
	key   string
	name  string
	loops []*loopPlan // per occurrence; the same plan may repeat
	repl  []*core.Dat // union of replicated-read dats (per-dat invalidation)

	// Per-global gating (see Engine.gateLocked): a submission of this
	// plan waits only for the submissions whose driver-side folds it can
	// actually race — the last reducer of each global it reads, and its
	// own previous submission when it reduces (the per-rank reduction
	// buffers below are reused across invocations). Steps over disjoint
	// globals therefore pipeline freely instead of gating on the engine
	// tail.
	gblReads   []*core.Global // globals any member reads, deduped
	gblReduces []*core.Global // globals any member reduces, deduped
	lastSub    gateRef        // this plan's last reducing submission (engine lock)

	// hoistAt[o] is the occurrence at whose START occurrence o's leader
	// read-halo exchange posts: o itself when the exchange cannot move
	// (or o leads nothing), or the earliest occurrence by which every
	// dat of the union has its final owned values — right after the last
	// earlier writer (direct or increment) executed. hoisted[h] lists
	// the leaders L > h whose exchange posts at the start of occurrence
	// h, in ascending L, so every rank posts the same per-pair message
	// sequence. Hoisting moves posting
	// only: the leader still waits (and scatters) at its own occurrence,
	// and the message count is untouched — a union schedule moves as one
	// message per pair, pinned at the max readiness of its dats.
	hoistAt []int
	hoisted [][]int

	ranks []*stepRank
}

// stepRank is the per-rank slice of a stepPlan.
type stepRank struct {
	// readPost[o] is the read-halo exchange occurrence o posts on this
	// rank: its own solo schedule for a one-loop step, the group union
	// for a coalescing leader, nil for followers (their halo is fresh by
	// the time they run — the worker executes occurrences in order) and
	// for occurrences with nothing to import.
	readPost []*readSchedule
	// redBuf[o] is occurrence o's reduction scratch, lazily sized and
	// reused across step invocations. Reuse is race-free because a
	// reducing step gates on its own previous submission's future, which
	// resolves only after the driver folded that invocation's buffers.
	redBuf [][]float64
	// redOut is the per-occurrence buffer list a worker reports to the
	// driver, reused across invocations: entries are only read by the
	// driver for occurrences with globals, whose steps gate on their
	// plan's previous submission.
	redOut [][]float64
}

// stepKey identifies a step plan structurally: the concatenated
// structural keys of its loops in order. Steps rebuilt inline each
// timestep therefore share one cached plan.
func stepKey(loops []*core.Loop) string {
	var b strings.Builder
	for i, l := range loops {
		if i > 0 {
			b.WriteString("||")
		}
		b.WriteString(loopKey(l))
	}
	return b.String()
}

// StepHandle pins a compiled distributed step plan to its declaring
// Step: the structural key is computed once, the plan pointer is
// revalidated per submission with one map lookup, and the member loops'
// bodies stay bound to every hosted rank's local mesh, so steady-state
// issue skips the per-invocation key construction, re-planning and
// binding that RunStepAsync pays for anonymous loop lists. If
// re-sharding a replicated dat invalidated the plan, or a later plan grew
// a local mesh the bodies index, the next submission rebinds
// transparently.
type StepHandle struct {
	name   string
	key    string
	loops  []*core.Loop
	sp     *stepPlan
	bodies [][]core.RangeBody // per occurrence, per rank (nil off-process)
	layout uint64             // Engine.layout the bodies were bound against
}

// CompileStep builds (or fetches) the distributed plan for the step and
// returns a handle that pins it, with its bodies bound, for repeated
// submission.
func (e *Engine) CompileStep(name string, loops []*core.Loop) (*StepHandle, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, invalidf("engine is closed")
	}
	h := &StepHandle{name: name, key: stepKey(loops), loops: append([]*core.Loop(nil), loops...)}
	if err := e.refreshLocked(h); err != nil {
		return nil, err
	}
	return h, nil
}

// refreshLocked makes the handle current: (re)builds its plan when the
// cache no longer holds it, and rebinds its bodies when the plan changed
// or a plan build since the last binding reallocated local storage. The
// engine lock must be held. Steady-state submissions find both current
// and return after two comparisons.
func (e *Engine) refreshLocked(h *StepHandle) error {
	if h.sp == nil || e.steps[h.key] != h.sp {
		sp, err := e.stepPlanLocked(h.name, h.loops)
		if err != nil {
			return err
		}
		h.sp, h.bodies = sp, nil
	}
	if h.bodies == nil || h.layout != e.layout {
		h.bodies, h.layout = e.bindLocked(h.sp, h.loops), e.layout
	}
	return nil
}

// bindLocked binds every occurrence's body factory to each hosted rank's
// local mesh: the rank's sharded arrays, its gathered copies of
// replicated dats, and the plan's rank-local map tables.
func (e *Engine) bindLocked(sp *stepPlan, loops []*core.Loop) [][]core.RangeBody {
	bodies := make([][]core.RangeBody, len(loops))
	for o, l := range loops {
		bodies[o] = make([]core.RangeBody, e.ranks)
		f := l.Factory()
		for r, w := range e.workers {
			if w != nil {
				bodies[o][r] = f(rankBindings{lp: sp.loops[o], r: r})
			}
		}
	}
	return bodies
}

// rankBindings resolves a loop's declared containers to one rank's local
// mesh. Containers the loop does not declare resolve to nil, so a body
// that strays outside its declared arguments fails loudly instead of
// touching host storage.
type rankBindings struct {
	lp *loopPlan
	r  int
}

func (b rankBindings) Dat(d *core.Dat) []float64 {
	for i := range b.lp.args {
		ap := &b.lp.args[i]
		if ap.d != d {
			continue
		}
		switch ap.kind {
		case argSharded:
			return ap.sd.local[b.r]
		case argGathered:
			for _, g := range b.lp.ranks[b.r].gathers {
				if g.d == d {
					return g.buf
				}
			}
		case argHost:
			return d.Data()
		}
	}
	return nil
}

func (b rankBindings) Map(m *core.Map) []int32 { return b.lp.ranks[b.r].maps[m] }

// stepPlanLocked returns the cached distributed plan for the step,
// building it on first use, with every hosted rank's local storage grown
// to what the plan references. The engine lock must be held (growLocked
// may release it while it drains the engine).
func (e *Engine) stepPlanLocked(name string, loops []*core.Loop) (*stepPlan, error) {
	if len(loops) == 0 {
		return nil, invalidf("step %q has no loops", name)
	}
	key := stepKey(loops)
	sp, ok := e.steps[key]
	if !ok {
		var err error
		if sp, err = e.buildStepPlanLocked(key, name, loops); err != nil {
			return nil, err
		}
	}
	return sp, e.growLocked()
}

// buildStepPlanLocked validates the step's loops, prepares their
// ownership and sharding, builds (or fetches) every member plan and the
// step's cross-loop schedules, and caches the result.
func (e *Engine) buildStepPlanLocked(key, name string, loops []*core.Loop) (*stepPlan, error) {
	// Validate every loop before mutating any ownership state.
	for _, l := range loops {
		if err := validateDistLoop(l); err != nil {
			return nil, err
		}
	}
	// Reductions fold when the whole step has completed, so a loop that
	// reads a global an earlier loop of the same step reduces would see
	// the stale value — unlike the shared-memory dataflow backend, where
	// the version chain orders the fold before the read. Reject instead
	// of silently diverging; the host can split the step at the read.
	reduced := map[*core.Global]bool{}
	for _, l := range loops {
		for _, a := range l.Args {
			if !a.IsGlobal() {
				continue
			}
			if a.Acc() == core.Read {
				if reduced[a.Global()] {
					return nil, invalidf("step %q: loop %q reads global %q which an earlier loop of the step reduces; distributed reductions fold at step end, so split the step at the read", name, l.Name, a.Global().Name())
				}
			} else {
				reduced[a.Global()] = true
			}
		}
	}
	// Sharding pre-pass over the whole step: a dat any member writes
	// must be on its local mesh before any member's plan is built, or an
	// earlier loop's plan would read the (soon stale) replicated array.
	for _, l := range loops {
		if err := e.prepareLoopLocked(l); err != nil {
			return nil, err
		}
	}
	lps := make([]*loopPlan, len(loops))
	for i, l := range loops {
		lp, err := e.planLocked(l)
		if err != nil {
			return nil, err
		}
		lps[i] = lp
	}
	sp := e.buildStepLocked(key, name, lps)
	e.steps[key] = sp
	return sp, nil
}

// writesDat reports whether lp invalidates sd's exchanged halo values:
// a direct write/RW of the dat or an increment.
func writesDat(lp *loopPlan, sd *shardedDat) bool {
	for i := range lp.args {
		if ap := &lp.args[i]; ap.sd == sd && ap.acc != core.Read {
			return true
		}
	}
	return false
}

// buildStepLocked derives the step's cross-loop schedules from the
// per-loop plans: coalescing groups for the read exchanges and their
// hoisted post points.
func (e *Engine) buildStepLocked(key, name string, lps []*loopPlan) *stepPlan {
	n := len(lps)
	sp := &stepPlan{key: key, name: name, loops: lps}
	seenRepl := map[*core.Dat]bool{}
	seenRead := map[*core.Global]bool{}
	seenRed := map[*core.Global]bool{}
	for _, lp := range lps {
		for i := range lp.args {
			ap := &lp.args[i]
			switch ap.kind {
			case argGblRead:
				if !seenRead[ap.g] {
					seenRead[ap.g] = true
					sp.gblReads = append(sp.gblReads, ap.g)
				}
			case argGblReduce:
				if !seenRed[ap.g] {
					seenRed[ap.g] = true
					sp.gblReduces = append(sp.gblReduces, ap.g)
				}
			}
		}
		for _, d := range lp.repl {
			if !seenRepl[d] {
				seenRepl[d] = true
				sp.repl = append(sp.repl, d)
			}
		}
	}

	// Coalescing groups: walk the occurrences; the first importer of a
	// dat's halo after a write (or ever) leads a group that every later
	// importer joins until the next write to the dat.
	cur := map[*shardedDat]int{}                // dat → open group's leader occurrence
	ledDats := make([][]*shardedDat, n)         // leader occurrence → dats it posts, in first-use order
	members := make([]map[*shardedDat][]int, n) // leader occurrence → dat → member occurrences
	for o, lp := range lps {
		for _, sd := range lp.readSDs {
			L, open := cur[sd]
			if !open {
				L = o
				cur[sd] = o
				if members[L] == nil {
					members[L] = map[*shardedDat][]int{}
				}
				ledDats[L] = append(ledDats[L], sd)
			}
			members[L][sd] = append(members[L][sd], o)
		}
		for sd := range cur {
			if writesDat(lp, sd) {
				delete(cur, sd)
			}
		}
	}

	sp.ranks = make([]*stepRank, e.ranks)
	for r := range sp.ranks {
		sp.ranks[r] = &stepRank{
			readPost: make([]*readSchedule, n),
			redBuf:   make([][]float64, n),
			redOut:   make([][]float64, n),
		}
	}
	for L, dats := range ledDats {
		if len(dats) == 0 {
			continue
		}
		var scheds []*readSchedule
		if n == 1 {
			// One-loop step: the loop's own schedule is the union.
			scheds = make([]*readSchedule, e.ranks)
			for r := range scheds {
				scheds[r] = lps[0].ranks[r].read
			}
		} else {
			scheds = e.buildReadSchedules(dats, func(r int, sd *shardedDat) []int32 {
				return unionHaloIDs(lps, members[L][sd], r, sd)
			})
		}
		for r := range sp.ranks {
			if scheds[r].active() {
				sp.ranks[r].readPost[L] = scheds[r]
			}
		}
	}
	sp.buildHoists(ledDats)
	e.prefillLocked(sp)
	return sp
}

// prefillLocked stocks the pools of the hosted ranks with every message
// shape the step moves — its halo messages (frame tag included) and, in
// SPMD mode, the reduction partials gathered from the peers — once per
// shape, inFlightPerPair deep.
func (e *Engine) prefillLocked(sp *stepPlan) {
	shapes := map[[4]int]bool{} // src, dst, floats, ctl (0/1)
	for r, w := range e.workers {
		if w == nil {
			continue
		}
		for _, sched := range sp.ranks[r].readPost {
			for peer := 0; sched != nil && peer < e.ranks; peer++ {
				if n := sched.sendLen[peer]; n > 0 {
					shapes[[4]int{r, peer, n + 1, 0}] = true
				}
				if n := sched.recvLen[peer]; n > 0 {
					shapes[[4]int{peer, r, n + 1, 0}] = true
				}
			}
		}
		for _, lp := range sp.loops {
			for peer := 0; e.local >= 0 && peer < e.ranks; peer++ {
				if peer == r {
					continue
				}
				if n := lp.partialLen(peer); n > 0 {
					shapes[[4]int{peer, r, n, 1}] = true
				}
				if n := lp.partialLen(r); n > 0 {
					shapes[[4]int{r, peer, n, 1}] = true
				}
			}
		}
	}
	for s := range shapes {
		e.stockLocked(s[0], s[2], inFlightPerPair, s[3] == 1)
	}
}

// buildHoists computes each leader's exchange post point: the earliest
// occurrence by which every dat of its union schedule holds final owned
// values on every rank — right after its last earlier writer (direct or
// increment: every owned increment lands during the writer's own
// occurrence) has executed. The post point is the max over the union's
// dats — the whole coalesced message moves together, so the message
// count (and the per-pair FIFO order, which every rank derives from this
// same plan) is unchanged; only the overlap window grows.
func (sp *stepPlan) buildHoists(ledDats [][]*shardedDat) {
	n := len(sp.loops)
	sp.hoistAt = make([]int, n)
	sp.hoisted = make([][]int, n)
	for o := range sp.hoistAt {
		sp.hoistAt[o] = o
	}
	for L, dats := range ledDats {
		if len(dats) == 0 {
			continue
		}
		h := 0
		for _, sd := range dats {
			for j := h; j < L; j++ {
				if writesDat(sp.loops[j], sd) {
					h = j + 1
				}
			}
		}
		if h < L {
			sp.hoistAt[L] = h
			sp.hoisted[h] = append(sp.hoisted[h], L)
		}
	}
}

// unionHaloIDs merges the ascending halo-id needs of the given
// occurrences for one dat on one rank.
func unionHaloIDs(lps []*loopPlan, occs []int, r int, sd *shardedDat) []int32 {
	if len(occs) == 1 {
		return lps[occs[0]].ranks[r].halo[sd]
	}
	need := map[int32]bool{}
	var ids []int32
	for _, o := range occs {
		for _, id := range lps[o].ranks[r].halo[sd] {
			if !need[id] {
				need[id] = true
				ids = append(ids, id)
			}
		}
	}
	// Each per-occurrence list is ascending; the union must be too.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}
