package hpx

import (
	"testing"
	"testing/quick"
	"time"
)

func constMeasure(perIter time.Duration) func(k int) time.Duration {
	return func(k int) time.Duration { return time.Duration(k) * perIter }
}

func TestStaticChunker(t *testing.T) {
	c := StaticChunker(100)
	if got := c.ChunkSize(1000, 4, nil); got != 100 {
		t.Fatalf("ChunkSize = %d, want 100", got)
	}
	if StaticChunker(0).ChunkSize(10, 1, nil) != 1 {
		t.Fatal("StaticChunker(0) must clamp to 1")
	}
	if c.Name() != "static" {
		t.Fatalf("Name = %q", c.Name())
	}
}

func TestEvenChunkerOneChunkPerWorker(t *testing.T) {
	c := EvenChunker(1)
	size := c.ChunkSize(1000, 4, nil)
	if size != 250 {
		t.Fatalf("ChunkSize = %d, want 250", size)
	}
	// Uneven division rounds up so at most `workers` chunks exist.
	size = c.ChunkSize(1001, 4, nil)
	if size != 251 {
		t.Fatalf("ChunkSize = %d, want 251", size)
	}
}

func TestEvenChunkerMultipleChunksPerWorker(t *testing.T) {
	c := EvenChunker(4)
	if size := c.ChunkSize(1600, 4, nil); size != 100 {
		t.Fatalf("ChunkSize = %d, want 100", size)
	}
}

func TestAutoChunkerTargetsDuration(t *testing.T) {
	c := AutoChunkerTarget(time.Millisecond)
	// 1µs per iteration → 1000 iterations per chunk, clamped by n/workers.
	size := c.ChunkSize(100000, 2, constMeasure(time.Microsecond))
	if size != 1000 {
		t.Fatalf("ChunkSize = %d, want 1000", size)
	}
}

func TestAutoChunkerClampsToWorkerShare(t *testing.T) {
	c := AutoChunkerTarget(time.Second)
	// Target so large every iteration fits one chunk; must still split
	// across workers.
	size := c.ChunkSize(1000, 4, constMeasure(time.Microsecond))
	if size != 250 {
		t.Fatalf("ChunkSize = %d, want 250 (n/workers)", size)
	}
}

func TestAutoChunkerNilMeasureFallsBack(t *testing.T) {
	c := AutoChunker()
	size := c.ChunkSize(1000, 4, nil)
	if size < 1 || size > 1000 {
		t.Fatalf("fallback chunk size %d out of range", size)
	}
}

func TestPersistentAutoChunkerPersistsDuration(t *testing.T) {
	c := NewPersistentAutoChunker()
	if c.Target() != 0 {
		t.Fatal("target set before first loop")
	}
	// First loop: 1µs per iteration → chunk ≈ 80 iterations (80µs target),
	// persisting a target duration of ~80µs.
	s1 := c.ChunkSize(1_000_000, 4, constMeasure(time.Microsecond))
	if s1 < 60 || s1 > 100 {
		t.Fatalf("first loop chunk %d, want ≈80", s1)
	}
	target := c.Target()
	if target <= 0 {
		t.Fatal("no persisted target after first loop")
	}
	// Second loop has 10× cheaper iterations: its chunks must be ~10×
	// larger so the chunk *durations* match (Fig. 12b).
	s2 := c.ChunkSize(1_000_000, 4, constMeasure(100*time.Nanosecond))
	ratio := float64(s2) / float64(s1)
	if ratio < 5 || ratio > 20 {
		t.Fatalf("dependent loop chunk %d (ratio %.1f), want ≈10× first loop's %d", s2, ratio, s1)
	}
	// Third loop has 10× costlier iterations: chunks ~10× smaller.
	s3 := c.ChunkSize(1_000_000, 4, constMeasure(10*time.Microsecond))
	ratio = float64(s1) / float64(s3)
	if ratio < 5 || ratio > 20 {
		t.Fatalf("costly loop chunk %d, want ≈%d/10", s3, s1)
	}
	if c.Calls() != 3 {
		t.Fatalf("Calls = %d, want 3", c.Calls())
	}
}

func TestPersistentAutoChunkerEqualTimeChunks(t *testing.T) {
	// The defining property: chunk sizes differ, chunk durations match.
	c := NewPersistentAutoChunker()
	perIter := []time.Duration{time.Microsecond, 250 * time.Nanosecond, 4 * time.Microsecond}
	var durations []time.Duration
	for _, p := range perIter {
		size := c.ChunkSize(1_000_000, 4, constMeasure(p))
		durations = append(durations, time.Duration(size)*p)
	}
	for i := 1; i < len(durations); i++ {
		ratio := float64(durations[i]) / float64(durations[0])
		if ratio < 0.5 || ratio > 2 {
			t.Fatalf("chunk duration %v deviates from %v (ratio %.2f)", durations[i], durations[0], ratio)
		}
	}
}

func TestPersistentAutoChunkerNilMeasure(t *testing.T) {
	c := NewPersistentAutoChunker()
	if size := c.ChunkSize(1000, 4, nil); size < 1 {
		t.Fatalf("chunk size %d", size)
	}
}

func TestClampChunkProperty(t *testing.T) {
	f := func(size int16, n uint16, workers uint8) bool {
		nn := int(n)%10000 + 1
		w := int(workers)%32 + 1
		got := clampChunk(int(size), nn, w)
		if got < 1 || got > nn {
			return false
		}
		// At least one chunk per worker.
		return got <= (nn+w-1)/w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChunkerZeroIterations(t *testing.T) {
	for _, c := range []Chunker{StaticChunker(8), EvenChunker(1), AutoChunker(), NewPersistentAutoChunker()} {
		if size := c.ChunkSize(0, 4, constMeasure(time.Microsecond)); size < 1 {
			t.Fatalf("%s: chunk size %d for empty range", c.Name(), size)
		}
	}
}
