package op2_test

import (
	"math"
	"testing"

	"op2hpx/internal/airfoil"
	"op2hpx/op2"
)

// TestPaperConfigPrefetchBitwise runs the paper's configuration —
// Dataflow, persistent auto chunking, prefetch distance 15 — on a 60×30
// Airfoil and checks the flow field bitwise against the serial backend.
// Under -race it also pins that the §V prefetcher never reads past its
// own chunk: the elements beyond a chunk's end belong to a neighbouring
// chunk whose body another worker may be writing.
func TestPaperConfigPrefetchBitwise(t *testing.T) {
	const nx, ny, iters = 60, 30, 10
	run := func(opts ...op2.Option) []float64 {
		t.Helper()
		rt := op2.MustNew(opts...)
		defer rt.Close()
		app, err := airfoil.NewApp(nx, ny, rt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := app.Run(iters); err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), app.M.Q.Data()...)
	}
	want := run(op2.WithBackend(op2.Serial), op2.WithPoolSize(1))
	got := run(op2.WithBackend(op2.Dataflow), op2.WithPoolSize(4),
		op2.WithChunker(op2.PersistentAutoChunk()), op2.WithPrefetchDistance(15))
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("q[%d] = %v, serial %v: the paper configuration diverged", i, got[i], want[i])
		}
	}
}
