// Package experiments regenerates every table and figure of the paper's
// evaluation section (§VI) on the Go reproduction: Airfoil execution time
// and strong scaling for the fork-join ("OpenMP") baseline versus the HPX
// dataflow backend (Figs. 15-16), the effect of persistent_auto_chunk_size
// (Fig. 17), the effect of data prefetching (Fig. 18), transfer rates of
// the standard versus the prefetching iterator (Fig. 19) and the prefetch
// distance sweep (Fig. 20), plus the execution-policy matrix of Table I.
package experiments

import (
	"fmt"
	"runtime"
	"time"

	"op2hpx/internal/airfoil"
	"op2hpx/internal/hpx"
	"op2hpx/internal/hpx/prefetch"
	"op2hpx/internal/hpx/sched"
	"op2hpx/internal/perf"
	"op2hpx/op2"
)

// Options sizes an experiment run. The defaults keep a full sweep under a
// minute on a laptop; Paper() sizes the mesh like the paper's 720K-node
// grid.
type Options struct {
	NX, NY  int   // airfoil mesh cells
	Iters   int   // time iterations per measurement
	Reps    int   // measured repetitions
	Warmup  int   // warm-up repetitions
	Threads []int // thread counts for scaling sweeps

	// StreamN is the number of elements per container for the iterator
	// bandwidth experiments (Figs. 19-20).
	StreamN int
	// Distances is the prefetch_distance_factor sweep of Fig. 20.
	Distances []int
}

// Default returns laptop-scale options.
func Default() Options {
	return Options{
		NX: 120, NY: 60,
		Iters: 10, Reps: 3, Warmup: 1,
		Threads:   perf.ThreadSweep(runtime.NumCPU()),
		StreamN:   1 << 22, // 4M doubles per container = 32 MB, memory-bound
		Distances: []int{1, 2, 5, 10, 15, 25, 50, 100},
	}
}

// Paper returns options at the paper's workload scale (~720K nodes,
// ~1.4M interior edges). Expect minutes per figure.
func Paper() Options {
	o := Default()
	o.NX, o.NY = airfoil.SizeForNodes(720_000)
	o.Iters = 100
	return o
}

// runAirfoil builds a facade runtime per the config, runs the airfoil app
// and returns the timing statistics of a full Run(Iters).
func runAirfoil(o Options, threads int, backend op2.Backend, chunker op2.Chunker, prefetchDist int) (perf.Stats, error) {
	rt, err := op2.New(
		op2.WithBackend(backend),
		op2.WithPoolSize(threads),
		op2.WithChunker(chunker), // nil = backend default
		op2.WithPrefetchDistance(prefetchDist),
	)
	if err != nil {
		return perf.Stats{}, err
	}
	defer rt.Close()
	app, err := airfoil.NewApp(o.NX, o.NY, rt)
	if err != nil {
		return perf.Stats{}, err
	}
	return perf.Measure(o.Warmup, o.Reps, func() error {
		_, err := app.Run(o.Iters)
		return err
	})
}

// fig15Data measures the common dataset behind Figs. 15 and 16.
func fig15Data(o Options) (threads []int, omp, df []perf.Stats, err error) {
	for _, th := range o.Threads {
		so, err := runAirfoil(o, th, op2.ForkJoin, nil, 0)
		if err != nil {
			return nil, nil, nil, err
		}
		sd, err := runAirfoil(o, th, op2.Dataflow, nil, 0)
		if err != nil {
			return nil, nil, nil, err
		}
		threads = append(threads, th)
		omp = append(omp, so)
		df = append(df, sd)
	}
	return threads, omp, df, nil
}

// Fig15 reproduces "comparison results of the execution time between
// dataflow and #pragma omp parallel for used for an Airfoil application".
func Fig15(o Options) (*perf.Table, error) {
	threads, omp, df, err := fig15Data(o)
	if err != nil {
		return nil, err
	}
	t := perf.NewTable("Fig. 15: Airfoil execution time, OpenMP-style fork-join vs HPX dataflow",
		"threads", "forkjoin", "dataflow", "dataflow/forkjoin")
	t.Note = fmt.Sprintf("mesh %dx%d cells, %d iterations, mean of %d reps", o.NX, o.NY, o.Iters, o.Reps)
	for i, th := range threads {
		ratio := float64(df[i].Mean) / float64(omp[i].Mean)
		t.AddRow(th, omp[i].Mean, df[i].Mean, ratio)
	}
	return t, nil
}

// Fig16 reproduces the strong-scaling speedup comparison: each variant is
// normalized to its own single-thread time (strong scaling, fixed problem
// size), where the paper reports ~33% better scaling for dataflow.
func Fig16(o Options) (*perf.Table, error) {
	threads, omp, df, err := fig15Data(o)
	if err != nil {
		return nil, err
	}
	t := perf.NewTable("Fig. 16: Airfoil strong-scaling speedup, fork-join vs dataflow",
		"threads", "forkjoin speedup", "dataflow speedup", "dataflow advantage %")
	t.Note = fmt.Sprintf("mesh %dx%d cells, %d iterations; speedup vs own 1-thread time", o.NX, o.NY, o.Iters)
	base0 := omp[0].Mean
	base1 := df[0].Mean
	for i, th := range threads {
		so := perf.Speedup(base0, omp[i].Mean)
		sd := perf.Speedup(base1, df[i].Mean)
		t.AddRow(th, so, sd, 100*(sd/so-1))
	}
	return t, nil
}

// Fig17 reproduces "strong scaling using dataflow with/without setting
// chunk sizes of different dependent loops based on each other": the
// dataflow backend with independent auto chunking per loop versus one
// persistent_auto_chunk_size policy shared by all five loops.
func Fig17(o Options) (*perf.Table, error) {
	t := perf.NewTable("Fig. 17: dataflow with/without persistent_auto_chunk_size",
		"threads", "auto (per loop)", "persistent_auto", "improvement %")
	t.Note = fmt.Sprintf("mesh %dx%d cells, %d iterations", o.NX, o.NY, o.Iters)
	for _, th := range o.Threads {
		plain, err := runAirfoil(o, th, op2.Dataflow, op2.AutoChunk(), 0)
		if err != nil {
			return nil, err
		}
		pers, err := runAirfoil(o, th, op2.Dataflow, op2.PersistentAutoChunk(), 0)
		if err != nil {
			return nil, err
		}
		t.AddRow(th, plain.Mean, pers.Mean,
			100*(float64(plain.Mean)/float64(pers.Mean)-1))
	}
	return t, nil
}

// Fig18 reproduces "comparison results of a dataflow performance by using
// proposed prefetching method": dataflow with persistent chunking, with
// and without the §V prefetcher at distance 15.
func Fig18(o Options) (*perf.Table, error) {
	t := perf.NewTable("Fig. 18: dataflow with/without data prefetching (distance 15)",
		"threads", "no prefetch", "prefetch", "improvement %")
	t.Note = fmt.Sprintf("mesh %dx%d cells, %d iterations", o.NX, o.NY, o.Iters)
	for _, th := range o.Threads {
		plain, err := runAirfoil(o, th, op2.Dataflow, op2.PersistentAutoChunk(), 0)
		if err != nil {
			return nil, err
		}
		pref, err := runAirfoil(o, th, op2.Dataflow, op2.PersistentAutoChunk(), 15)
		if err != nil {
			return nil, err
		}
		t.AddRow(th, plain.Mean, pref.Mean,
			100*(float64(plain.Mean)/float64(pref.Mean)-1))
	}
	return t, nil
}

// streamContainers builds the multi-container, memory-bound loop of
// Fig. 14: container1[i] = ..., container2[i] = ..., containern[i] = ...
// over large float64 slices.
type streamData struct {
	a, b, c, d prefetch.Float64s
}

func newStreamData(n int) *streamData {
	s := &streamData{
		a: make(prefetch.Float64s, n),
		b: make(prefetch.Float64s, n),
		c: make(prefetch.Float64s, n),
		d: make(prefetch.Float64s, n),
	}
	for i := 0; i < n; i++ {
		s.b[i] = float64(i)
		s.c[i] = 1.5 * float64(i%1024)
	}
	return s
}

// body is the per-index kernel: two reads, two writes = 32 bytes per
// iteration.
func (s *streamData) body(i int) {
	s.a[i] = s.b[i] + 0.5*s.c[i]
	s.d[i] = s.b[i] - s.c[i]
}

const streamBytesPerIter = 32

// measureStream times the stream loop under a dataflow with either the
// standard or the prefetching iterator and returns MB/s.
func measureStream(o Options, threads, distance int) (float64, error) {
	s := newStreamData(o.StreamN)
	pool := sched.NewPool(threads)
	defer pool.Close()
	pol := hpx.ParPolicy().WithPool(pool).WithChunker(hpx.StaticChunker(64 * 1024 / 8))
	run := func() error {
		// hpx::parallel::for_each inside a dataflow, as in Fig. 19's
		// caption.
		fut := hpx.Dataflow(func() (struct{}, error) {
			if distance > 0 {
				ctx, err := prefetch.NewContext(0, o.StreamN, distance, s.a, s.b, s.c, s.d)
				if err != nil {
					return struct{}{}, err
				}
				return struct{}{}, prefetch.ForEach(pol, ctx, s.body).Wait()
			}
			return struct{}{}, hpx.ForEach(pol, 0, o.StreamN, s.body).Wait()
		})
		return fut.Wait()
	}
	st, err := perf.Measure(o.Warmup, o.Reps, run)
	if err != nil {
		return 0, err
	}
	return perf.BandwidthMBs(int64(o.StreamN)*streamBytesPerIter, st.Mean), nil
}

// Fig19 reproduces "the data transfer rate of implementing hpx::for_each
// using standard random access iterator versus prefetching iterator within
// a dataflow" across thread counts.
func Fig19(o Options) (*perf.Table, error) {
	t := perf.NewTable("Fig. 19: transfer rate, standard vs prefetching iterator (MB/s)",
		"threads", "standard MB/s", "prefetching MB/s", "improvement %")
	t.Note = fmt.Sprintf("4 containers x %d float64 elements, distance 15", o.StreamN)
	for _, th := range o.Threads {
		std, err := measureStream(o, th, 0)
		if err != nil {
			return nil, err
		}
		pre, err := measureStream(o, th, 15)
		if err != nil {
			return nil, err
		}
		t.AddRow(th, std, pre, 100*(pre/std-1))
	}
	return t, nil
}

// Fig20 reproduces "the data transfer rate of using prefetching iterator
// for different prefetching distances" at the maximum thread count.
func Fig20(o Options) (*perf.Table, error) {
	threads := o.Threads[len(o.Threads)-1]
	t := perf.NewTable("Fig. 20: transfer rate vs prefetch_distance_factor (MB/s)",
		"distance", "MB/s")
	t.Note = fmt.Sprintf("%d threads, 4 containers x %d float64 elements", threads, o.StreamN)
	for _, d := range o.Distances {
		bw, err := measureStream(o, threads, d)
		if err != nil {
			return nil, err
		}
		t.AddRow(d, bw)
	}
	return t, nil
}

// TableI demonstrates the execution-policy matrix: each policy of Table I
// runs the same loop; task policies must return before completion.
func TableI(o Options) (*perf.Table, error) {
	pool := sched.NewPool(o.Threads[len(o.Threads)-1])
	defer pool.Close()
	n := 1 << 20
	data := make([]float64, n)
	policies := []struct {
		name string
		pol  hpx.Policy
	}{
		{"seq", hpx.SeqPolicy()},
		{"par", hpx.ParPolicy().WithPool(pool)},
		{"seq(task)", hpx.SeqPolicy().WithTask()},
		{"par(task)", hpx.ParPolicy().WithPool(pool).WithTask()},
	}
	t := perf.NewTable("Table I: execution policies", "policy", "asynchronous", "time")
	for _, p := range policies {
		start := time.Now()
		fut := hpx.ForEach(p.pol, 0, n, func(i int) { data[i] = float64(i) * 1.0000001 })
		immediate := !fut.Ready() // true iff the call returned before the loop completed
		if err := fut.Wait(); err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		async := "no"
		if p.pol.IsTask() && immediate {
			async = "yes"
		} else if p.pol.IsTask() {
			async = "yes (completed early)"
		}
		t.AddRow(p.name, async, elapsed)
	}
	return t, nil
}

// All runs every experiment and returns the tables in paper order.
func All(o Options) ([]*perf.Table, error) {
	type expFn struct {
		name string
		fn   func(Options) (*perf.Table, error)
	}
	fns := []expFn{
		{"table1", TableI},
		{"fig15", Fig15},
		{"fig16", Fig16},
		{"fig17", Fig17},
		{"fig18", Fig18},
		{"fig19", Fig19},
		{"fig20", Fig20},
		{"dist", Dist},
		{"step", Step},
		{"hotpath", HotPath},
		{"service", Service},
		{"obs", Obs},
	}
	var out []*perf.Table
	for _, f := range fns {
		tab, err := f.fn(o)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", f.name, err)
		}
		out = append(out, tab)
	}
	return out, nil
}

// ByName returns the experiment function registered under name.
func ByName(name string) (func(Options) (*perf.Table, error), bool) {
	m := map[string]func(Options) (*perf.Table, error){
		"table1":  TableI,
		"fig15":   Fig15,
		"fig16":   Fig16,
		"fig17":   Fig17,
		"fig18":   Fig18,
		"fig19":   Fig19,
		"fig20":   Fig20,
		"dist":    Dist,
		"step":    Step,
		"hotpath": HotPath,
		"service": Service,
		"obs":     Obs,
	}
	f, ok := m[name]
	return f, ok
}
