package dist

import "fmt"

// This file is the engine's SPMD (single-program-multiple-data) mode:
// the bridge between the in-process engine — every rank a goroutine —
// and rank-per-process execution over a real wire (internal/net).
//
// In SPMD mode every process runs the SAME program with the same Ranks
// count, the same (deterministic) partitioner and the same submission
// order, but hosts exactly one rank: only that rank's worker goroutine
// exists, and only its shards are computed locally. Three places where
// the in-process engine reads other ranks' memory become collectives
// over a second logical wire channel (the control channel, kept apart
// from halo traffic so the two never interleave on a pair's FIFO):
//
//   - reduction folds: each driver allgathers the per-rank reduction
//     partials and folds ALL of them locally, in the same order on
//     every process — global values stay bitwise-identical everywhere,
//     so no broadcast root is needed;
//   - Dat flush (Sync): owned shards are allgathered so Data() is
//     globally authoritative on every process;
//   - scatter (Rescatter) needs no traffic at all: the host-side global
//     storage is replicated identically, so each process refreshes its
//     own shards from its own copy.
//
// The collective contract is MPI-like: every process must issue the
// same collectives in the same order. The engine guarantees this by
// construction — drivers serialize on the previous step future and
// flushes fence first — as long as the application is SPMD (the same
// submissions on every process), which is what cmd/op2rank runs.

// Collective is the control-channel half of a process-spanning
// transport: ordered payload exchange between rank processes, separate
// from the halo channel so driver-side collectives can never interleave
// with (and mis-match against) worker-side halo frames on a pair's
// FIFO. SendCtl borrows the payload — the caller keeps ownership and
// the slice is serialized before SendCtl returns — unlike Transport.
// Send, which hands the pooled buffer over.
type Collective interface {
	// SendCtl delivers payload from rank src to rank dst on the control
	// channel without blocking. The payload is only borrowed.
	SendCtl(src, dst int, payload []float64) error
	// RecvCtl returns a future resolving to the next undelivered
	// control-channel message from src to dst.
	RecvCtl(dst, src int) RecvFuture
}

// RankedTransport is a Transport that spans PROCESSES: each process
// hosts exactly one rank (LocalRank) and the transport carries traffic
// to the others. Handing one to NewEngine switches the engine into SPMD
// mode; the engine owns the transport from then on and closes it (clean
// GOODBYE to the peers) when the engine is closed.
type RankedTransport interface {
	Transport
	Collective
	// LocalRank reports which rank this process hosts.
	LocalRank() int
}

// PoolBinder is implemented by transports that serialize payloads from
// and into pooled buffers. The engine binds its per-rank message-buffer
// free lists at construction: inbound payloads from rank r are decoded
// into buffers drawn from pool r — the same pool the worker returns
// them to after scattering (eng.putBuf(src, msg)) — and outbound halo
// payloads are recycled into the sender's pool once serialized onto the
// wire. This closes the zero-allocation cycle across the wire path:
// steady-state timesteps over TCP allocate no new message buffers.
type PoolBinder interface {
	BindBufferPool(get func(rank, n int) []float64, put func(rank int, b []float64))
}

// FrameStocker is implemented by transports that serialize outbound
// payloads into pooled wire frames. The engine stocks the frame pool
// with the message shapes a compiled plan sends, as it stocks its own
// buffer pools, so steady-state sends never allocate a frame.
type FrameStocker interface {
	// StockFrames adds n frames able to carry a payload of floats values.
	StockFrames(floats, n int)
}

// LocalRank reports the rank this process hosts in SPMD mode, or -1
// when every rank is an in-process goroutine.
func (e *Engine) LocalRank() int { return e.local }

// TransportImpl exposes the engine's underlying transport (unwrapped
// from the message-counting shim) so the facade can surface
// transport-specific statistics — the TCP wire counters in particular.
func (e *Engine) TransportImpl() Transport { return e.tr.inner }

// partialLen is the exact length of rank r's reduction partial for this
// loop — derived from the shared plan, so sender and receiver agree
// without negotiating (an elementwise partial holds one slot per
// element rank r owns; a combinable one holds one accumulator).
func (lp *loopPlan) partialLen(r int) int {
	if lp.gbl.size == 0 {
		return 0
	}
	if lp.needElementwise {
		return len(lp.itsp.owned[r]) * lp.gbl.size
	}
	return lp.gbl.size
}

// gatherPartials allgathers one occurrence's reduction partials: the
// local rank's partial goes to every peer (borrowed — the worker's
// reduction scratch stays owned by the plan), and every peer's partial
// is received into bufs[src] in ascending rank order. Received buffers
// are drawn from the engine's pools through the transport's pool
// binding; releasePartials returns them after the fold.
func (e *Engine) gatherPartials(sub *submission, o int, lp *loopPlan, bufs [][]float64) error {
	r := e.local
	bufs[r] = sub.dones[r].bufs[o]
	for dst := 0; dst < e.ranks; dst++ {
		if dst == r || lp.partialLen(r) == 0 {
			continue
		}
		if err := e.ctl.SendCtl(r, dst, bufs[r]); err != nil {
			return fmt.Errorf("dist: step %q reduction gather send %d→%d: %w", sub.sp.name, r, dst, err)
		}
	}
	for src := 0; src < e.ranks; src++ {
		if src == r {
			continue
		}
		want := lp.partialLen(src)
		if want == 0 {
			bufs[src] = nil
			continue
		}
		fut := e.ctl.RecvCtl(r, src)
		msg, err := fut.Get()
		if err != nil {
			return fmt.Errorf("dist: step %q reduction gather recv %d←%d: %w", sub.sp.name, r, src, err)
		}
		if len(msg) != want {
			return fmt.Errorf("dist: step %q reduction partial from rank %d: got %d floats, want %d: %w",
				sub.sp.name, src, len(msg), want, ErrHaloCorrupt)
		}
		bufs[src] = msg
		fut.Release()
	}
	return nil
}

// releasePartials returns the gathered remote partials to their source
// pools once the fold has consumed them.
func (e *Engine) releasePartials(bufs [][]float64) {
	for src := range bufs {
		if src == e.local || bufs[src] == nil {
			continue
		}
		e.putBuf(src, bufs[src])
		bufs[src] = nil
	}
}

// gatherFlush allgathers a sharded dat's owned blocks so the host-side
// global storage every process writes in flushDat is complete (and,
// since the exchange is symmetric and the shards deterministic,
// identical on every process). Pairs whose shard is empty are skipped
// on both sides by the same ownership-derived rule.
func (e *Engine) gatherFlush(sd *shardedDat) error {
	r := e.local
	own := sd.local[r][:len(sd.sp.owned[r])*sd.d.Dim()]
	for dst := 0; dst < e.ranks; dst++ {
		if dst == r || len(own) == 0 {
			continue
		}
		if err := e.ctl.SendCtl(r, dst, own); err != nil {
			return fmt.Errorf("dist: flush %q shard send %d→%d: %w", sd.d.Name(), r, dst, err)
		}
	}
	for src := 0; src < e.ranks; src++ {
		if src == r {
			continue
		}
		want := len(sd.sp.owned[src]) * sd.d.Dim()
		if want == 0 {
			continue
		}
		fut := e.ctl.RecvCtl(r, src)
		msg, err := fut.Get()
		if err != nil {
			return fmt.Errorf("dist: flush %q shard recv %d←%d: %w", sd.d.Name(), r, src, err)
		}
		if len(msg) != want {
			return fmt.Errorf("dist: flush %q shard from rank %d: got %d floats, want %d: %w",
				sd.d.Name(), src, len(msg), want, ErrHaloCorrupt)
		}
		copy(sd.local[src], msg)
		e.putBuf(src, msg)
		fut.Release()
	}
	return nil
}
