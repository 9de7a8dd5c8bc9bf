// Package net is the real rank transport: a dist.Transport over TCP,
// turning the engine's "rank = goroutine" model into "rank = process"
// (see dist/spmd.go for the engine half). Every ordered peer pair
// shares one TCP connection carrying length-prefixed typed frames on
// two logical channels — halo (worker traffic, still tagged with the
// engine's per-pair sequence numbers inside the payload) and ctl
// (driver-side collectives) — plus heartbeats and teardown control
// frames. Payloads are serialized from and into the engine's pooled
// message buffers (PoolBinder), and the wire frames themselves are
// pooled, so the zero-allocation steady state of the in-process
// transport survives the move onto the wire.
//
// Robustness is the point of the package, not an afterthought:
//
//   - bootstrap is a rendezvous on the configured listen-address list
//     (rank r dials every lower rank, accepts every higher one), with a
//     HELLO exchange validating protocol version, rank identity, world
//     size and partition metadata, a full barrier before the step loop,
//     and bounded dial retry with backoff — during bootstrap ONLY;
//   - per-connection heartbeats feed a liveness prober: a peer that
//     goes silent past the miss window poisons the transport with
//     dist.ErrHaloTimeout, the same typed path the engine's halo
//     deadline uses;
//   - a connection lost mid-run is a permanent typed failure
//     (dist.ErrRankFailed) — never a silent reconnect over torn halo
//     state;
//   - teardown distinguishes peer-exit-clean (GOODBYE frame, then EOF)
//     from peer-crash (EOF without GOODBYE) and failure propagation
//     (ABORT frame carrying the poisoning cause).
package net

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
)

// Wire frame: a fixed 9-byte header — type byte, sender rank (uint32
// LE), payload byte length (uint32 LE) — followed by the payload.
// float64 payloads (halo, ctl) are encoded little-endian, 8 bytes per
// value. TCP preserves order per connection, so frames need no wire
// sequence number: the engine's own per-pair tags (first float of every
// halo message) validate end-to-end ordering, and any framing damage
// (truncation, garbage) surfaces as a header/length violation →
// dist.ErrHaloCorrupt.
const (
	protoVersion = 1
	headerLen    = 9

	// maxFramePayload bounds a frame's payload: far above any halo or
	// flush shard the engine sends, low enough that a corrupt length
	// field cannot drive a multi-gigabyte allocation.
	maxFramePayload = 1 << 28
)

// Frame types.
const (
	fHello     = byte(1) // bootstrap handshake: version, world size, metadata
	fBarrier   = byte(2) // bootstrap barrier token
	fHalo      = byte(3) // engine halo message (float64 payload)
	fCtl       = byte(4) // driver collective message (float64 payload)
	fHeartbeat = byte(5) // liveness beacon, empty payload
	fGoodbye   = byte(6) // clean teardown: sender exited after a complete run
	fAbort     = byte(7) // failure propagation: payload is the poisoning cause
)

// putHeader writes a frame header into b (len >= headerLen).
func putHeader(b []byte, typ byte, src, payloadLen int) {
	b[0] = typ
	binary.LittleEndian.PutUint32(b[1:5], uint32(src))
	binary.LittleEndian.PutUint32(b[5:9], uint32(payloadLen))
}

// parseHeader splits a frame header.
func parseHeader(b []byte) (typ byte, src int, payloadLen int) {
	return b[0], int(binary.LittleEndian.Uint32(b[1:5])), int(binary.LittleEndian.Uint32(b[5:9]))
}

// encodeFloats appends payload little-endian into b (which must have
// the capacity — the caller sized it).
func encodeFloats(b []byte, payload []float64) []byte {
	for _, v := range payload {
		var u [8]byte
		binary.LittleEndian.PutUint64(u[:], math.Float64bits(v))
		b = append(b, u[:]...)
	}
	return b
}

// decodeFloats appends the float64s encoded in raw onto dst.
//
//op2:noalloc
func decodeFloats(dst []float64, raw []byte) []float64 {
	for off := 0; off+8 <= len(raw); off += 8 {
		//op2:allow dst is a pooled recv payload sized by the caller to len(raw)/8, so append never grows it
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(raw[off:off+8])))
	}
	return dst
}

// framePool is the outbound wire-frame free list — the byte-buffer
// mirror of the engine's per-rank message-buffer pools. Send draws a
// frame, the peer's writer goroutine returns it once written. The
// engine stocks the pool with the frame shapes its compiled plans send
// (StockFrames), so steady-state traffic allocates nothing
// (Stats.FrameAllocs is the observable the wire-path pooling guard
// pins).
type framePool struct {
	mu     sync.Mutex
	free   [][]byte
	allocs atomic.Int64 // frames ever allocated (misses and stock)
	gets   atomic.Int64 // frames handed out
}

// maxFreeFrames bounds the free list, a backstop against pathological
// shape churn (same rationale as the engine's maxFreeBufs).
const maxFreeFrames = 64

// get returns an empty frame buffer with capacity >= n: the smallest
// free one that fits, so a heartbeat or a short halo frame never takes
// the buffer a long frame will need next.
func (p *framePool) get(n int) []byte {
	p.gets.Add(1)
	p.mu.Lock()
	best := -1
	for i, b := range p.free {
		if c := cap(b); c >= n && (best < 0 || c < cap(p.free[best])) {
			best = i
		}
	}
	if best >= 0 {
		b := p.free[best]
		last := len(p.free) - 1
		p.free[best] = p.free[last]
		p.free[last] = nil
		p.free = p.free[:last]
		p.mu.Unlock()
		return b[:0]
	}
	p.mu.Unlock()
	p.allocs.Add(1)
	return make([]byte, 0, n)
}

// stock adds k frames of capacity n to the free list (up to its bound).
func (p *framePool) stock(n, k int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := 0; i < k && len(p.free) < maxFreeFrames; i++ {
		p.allocs.Add(1)
		p.free = append(p.free, make([]byte, 0, n))
	}
}

// put returns a written frame to the free list.
func (p *framePool) put(b []byte) {
	if cap(b) == 0 {
		return
	}
	p.mu.Lock()
	if len(p.free) < maxFreeFrames {
		p.free = append(p.free, b[:0])
	}
	p.mu.Unlock()
}

// ring is a growable FIFO over a reusable backing array (the same
// shape dist uses for its pair queues): steady-state push/pop cycles
// recycle slots instead of re-appending into a slid slice.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, maxInt(4, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf = grown
		r.head = 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
