package hpx

import (
	"sync"
	"sync/atomic"
	"time"
)

// Chunker decides how many consecutive iterations each task executes — the
// "amount of work performed by each task" that §IV-B of the paper sets out
// to control. Implementations may measure the loop body to calibrate.
//
// The OP2 core consults a chunker once per compiled loop and plan color
// (once per fused pass of a step): the first invocation's size is cached
// and every later invocation of that loop reuses it without calling the
// chunker or its measure probe again. The ForkJoin backend is the
// exception: it asks for its never-measuring division on every loop.
type Chunker interface {
	// ChunkSize returns the chunk size for a loop of n iterations running
	// on workers pool threads. measure executes k iterations of the loop
	// body and reports how long they took; implementations that do not
	// calibrate must not call it. measure may be nil when the caller
	// cannot re-execute iterations safely (side-effecting bodies); in
	// that case calibrating chunkers fall back to a heuristic.
	ChunkSize(n, workers int, measure func(k int) time.Duration) int
	// Name identifies the chunker in reports and benchmarks.
	Name() string
}

// ---------------------------------------------------------------------------
// static_chunk_size

type staticChunker struct{ size int }

// StaticChunker returns a chunker that always uses the given chunk size,
// like hpx::execution::static_chunk_size.
func StaticChunker(size int) Chunker {
	if size < 1 {
		size = 1
	}
	return staticChunker{size: size}
}

func (c staticChunker) ChunkSize(n, workers int, _ func(int) time.Duration) int {
	return c.size
}

func (c staticChunker) Name() string { return "static" }

// ---------------------------------------------------------------------------
// even division (one chunk per worker) — the behaviour of a plain
// "#pragma omp parallel for" with static scheduling.

type evenChunker struct{ chunksPerWorker int }

// EvenChunker divides the iteration space into chunksPerWorker chunks per
// worker. With chunksPerWorker == 1 this reproduces OpenMP static
// scheduling: one contiguous block per thread and an implicit barrier at
// the end.
func EvenChunker(chunksPerWorker int) Chunker {
	if chunksPerWorker < 1 {
		chunksPerWorker = 1
	}
	return evenChunker{chunksPerWorker: chunksPerWorker}
}

func (c evenChunker) ChunkSize(n, workers int, _ func(int) time.Duration) int {
	chunks := workers * c.chunksPerWorker
	if chunks < 1 {
		chunks = 1
	}
	size := (n + chunks - 1) / chunks
	if size < 1 {
		size = 1
	}
	return size
}

func (c evenChunker) Name() string { return "even" }

// ---------------------------------------------------------------------------
// auto_chunk_size

// autoTargetDuration is the chunk execution time auto_chunk_size aims for.
// HPX's default is 80µs; large enough to amortize task overhead, small
// enough to load-balance.
const autoTargetDuration = 80 * time.Microsecond

// autoProbeIters is how many iterations the calibration probe executes.
const autoProbeIters = 16

type autoChunker struct {
	target time.Duration
}

// AutoChunker returns a chunker that times a small probe of the loop body
// and sizes chunks so each takes approximately the target duration —
// hpx::execution::auto_chunk_size.
func AutoChunker() Chunker { return autoChunker{target: autoTargetDuration} }

// AutoChunkerTarget returns an auto chunker with an explicit target chunk
// duration.
func AutoChunkerTarget(target time.Duration) Chunker {
	if target <= 0 {
		target = autoTargetDuration
	}
	return autoChunker{target: target}
}

func (c autoChunker) ChunkSize(n, workers int, measure func(int) time.Duration) int {
	return sizeForTarget(n, workers, c.target, measure)
}

func (c autoChunker) Name() string { return "auto" }

// sizeForTarget converts a target chunk duration into a chunk size using a
// timed probe, falling back to even division when probing is impossible.
func sizeForTarget(n, workers int, target time.Duration, measure func(int) time.Duration) int {
	if n <= 0 {
		return 1
	}
	if measure == nil {
		return EvenChunker(4).ChunkSize(n, workers, nil)
	}
	probe := autoProbeIters
	if probe > n {
		probe = n
	}
	d := measure(probe)
	if d <= 0 {
		d = time.Nanosecond
	}
	perIter := d / time.Duration(probe)
	if perIter <= 0 {
		perIter = time.Nanosecond
	}
	return clampChunk(int(target/perIter), n, workers)
}

// clampChunk bounds a proposed chunk size so the loop produces at least one
// chunk per worker (no idle cores) and at most n single-iteration chunks.
func clampChunk(size, n, workers int) int {
	if size < 1 {
		size = 1
	}
	if workers < 1 {
		workers = 1
	}
	if maxSize := (n + workers - 1) / workers; size > maxSize {
		size = maxSize
	}
	if size > n {
		size = n
	}
	if size < 1 {
		size = 1
	}
	return size
}

// ---------------------------------------------------------------------------
// persistent_auto_chunk_size (§IV-B, Fig. 12)

// PersistentAutoChunker implements the paper's proposed execution policy:
// the chunk *duration* is determined once, from the first loop that runs
// under the policy, and every subsequent (dependent) loop derives its chunk
// size from its own per-iteration cost so that all loops' chunks have the
// same execution time (Fig. 12b). Chunk sizes differ between loops; chunk
// durations do not, which minimizes the waiting time between interleaved
// dependent loops.
type PersistentAutoChunker struct {
	mu       sync.Mutex
	target   time.Duration // fixed after first calibration
	fallback time.Duration // target used if the first loop cannot probe
	calls    atomic.Uint64
}

// NewPersistentAutoChunker creates a persistent chunker. The zero target is
// established by the first loop executed under it.
func NewPersistentAutoChunker() *PersistentAutoChunker {
	return &PersistentAutoChunker{fallback: autoTargetDuration}
}

// Target reports the persisted chunk duration (zero before first use).
func (c *PersistentAutoChunker) Target() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.target
}

// ChunkSize implements Chunker. The first call fixes the target chunk
// duration from the measured per-iteration cost of that loop (sized as
// auto_chunk_size would); later calls reuse the persisted duration so
// chunks of dependent loops align in time.
func (c *PersistentAutoChunker) ChunkSize(n, workers int, measure func(int) time.Duration) int {
	c.calls.Add(1)
	c.mu.Lock()
	target := c.target
	c.mu.Unlock()
	if target == 0 {
		if measure == nil || n <= 0 {
			return sizeForTarget(n, workers, c.fallback, measure)
		}
		// Single probe: derive both the first loop's chunk size and
		// the chunk duration persisted for the dependent loops.
		probe := autoProbeIters
		if probe > n {
			probe = n
		}
		d := measure(probe)
		if d <= 0 {
			d = time.Nanosecond
		}
		perIter := d / time.Duration(probe)
		if perIter <= 0 {
			perIter = time.Nanosecond
		}
		size := clampChunk(int(c.fallback/perIter), n, workers)
		c.mu.Lock()
		if c.target == 0 {
			c.target = time.Duration(size) * perIter
			if c.target <= 0 {
				c.target = c.fallback
			}
		}
		c.mu.Unlock()
		return size
	}
	return sizeForTarget(n, workers, target, measure)
}

// Name implements Chunker.
func (c *PersistentAutoChunker) Name() string { return "persistent_auto" }

// Calls reports how many loops have consulted the chunker; used in tests.
func (c *PersistentAutoChunker) Calls() uint64 { return c.calls.Load() }
