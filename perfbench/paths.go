package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"time"

	"op2hpx/internal/airfoil"
	"op2hpx/op2"
)

// path is one way of executing the workload's timestep: a shared-memory
// backend or a TCP world of ranks. segment runs k timesteps and returns
// only once all of them have completed (a fenced segment).
type path interface {
	name() string
	segment(ctx context.Context, k int, tr *tracer, id int64) error
	finalQ() ([]float64, error)
	close()
}

// smPath drives one shared-memory runtime through the airfoil step
// graph. Dataflow runtimes issue a segment's steps with Step.Async and
// then wait every future; Serial and ForkJoin run each step with
// Step.Run.
type smPath struct {
	label string
	rt    *op2.Runtime
	app   *airfoil.App
	step  *op2.Step
	async bool
	futs  []*op2.Future
}

// smConfig names a shared-memory configuration of a workload.
type smConfig struct {
	label    string
	backend  op2.Backend
	chunker  func() op2.Chunker // nil: the backend's default
	prefetch int
}

// sharedConfigs are the shared-memory paths every workload runs: the
// single-threaded baseline (also the bitwise golden), OP2's fork-join
// baseline and the paper's dataflow backend, the latter two with their
// default chunking on nproc workers.
var sharedConfigs = []smConfig{
	{label: "serial", backend: op2.Serial},
	{label: "forkjoin", backend: op2.ForkJoin},
	{label: "dataflow", backend: op2.Dataflow},
}

// paperConfig is the paper's full configuration: dataflow with the
// persistent auto chunker and the §V prefetcher at the distance the
// Fig. 20 experiment uses.
var paperConfig = smConfig{
	label:    "sut",
	backend:  op2.Dataflow,
	chunker:  func() op2.Chunker { return op2.PersistentAutoChunk() },
	prefetch: 15,
}

// newSMPath builds a runtime for cfg over a flow copy of m and runs the
// first, plan-compiling step.
func newSMPath(cfg smConfig, m *airfoil.Mesh, c airfoil.Constants, traced bool) (*smPath, error) {
	fm, err := flowCopy(m)
	if err != nil {
		return nil, err
	}
	opts := []op2.Option{op2.WithBackend(cfg.backend)}
	if cfg.backend != op2.Serial {
		opts = append(opts, op2.WithPoolSize(runtime.NumCPU()), op2.WithPrefetchDistance(cfg.prefetch))
		if cfg.chunker != nil {
			opts = append(opts, op2.WithChunker(cfg.chunker()))
		}
	}
	if traced {
		opts = append(opts, op2.WithProfiling(), op2.WithMetrics())
	}
	rt, err := op2.New(opts...)
	if err != nil {
		return nil, err
	}
	app, err := airfoil.NewAppFromMesh(fm, c, rt)
	if err != nil {
		rt.Close()
		return nil, err
	}
	p := &smPath{label: cfg.label, rt: rt, app: app, step: app.StepGraph(),
		async: cfg.backend == op2.Dataflow}
	if err := p.segment(context.Background(), 1, nil, 0); err != nil {
		rt.Close()
		return nil, fmt.Errorf("%s: first step: %w", cfg.label, err)
	}
	return p, nil
}

func (p *smPath) name() string { return p.label }

func (p *smPath) segment(ctx context.Context, k int, tr *tracer, id int64) error {
	root := tr.open(p.label+"/segment", -1, id, 0)
	defer tr.close(root)
	if !p.async {
		for i := 0; i < k; i++ {
			s := tr.now()
			err := p.step.Run(ctx)
			tr.record(p.label+"/core.run", root, id, 0, s)
			if err != nil {
				return err
			}
		}
		return nil
	}
	p.futs = p.futs[:0]
	for i := 0; i < k; i++ {
		s := tr.now()
		p.futs = append(p.futs, p.step.Async(ctx))
		tr.record(p.label+"/core.issue", root, id, 0, s)
	}
	s := tr.now()
	var first error
	for _, f := range p.futs {
		if err := f.Wait(); err != nil && first == nil {
			first = err
		}
	}
	tr.record(p.label+"/core.wait", root, id, 0, s)
	return first
}

func (p *smPath) finalQ() ([]float64, error) {
	if err := p.app.Sync(); err != nil {
		return nil, err
	}
	return p.app.M.Q.Data(), nil
}

func (p *smPath) close() { p.rt.Close() }

// worldPath is a two-rank world over real TCP loopback sockets, both
// ranks hosted in this process: each rank is an SPMD program on its own
// goroutine with its own runtime, mesh and sockets, driven in lockstep
// by segment commands.
type worldPath struct {
	ranks []*rank
	wg    sync.WaitGroup

	bootstrap time.Duration // slowest rank's op2.New (TCP rendezvous)
	partition time.Duration // slowest rank's Runtime.Partition
}

type rank struct {
	id                  int
	issueSpan, waitSpan string
	rt                  *op2.Runtime
	app                 *airfoil.App
	step                *op2.Step
	cmd                 chan segmentCmd
	done                chan error
	futs                []*op2.Future
}

type segmentCmd struct {
	ctx    context.Context
	k      int
	tr     *tracer
	parent int // the world's segment span
	id     int64
	gather bool // instead of stepping, sync the flow field to the host
}

// newWorldPath bootstraps an n-rank TCP world on 127.0.0.1, partitions
// the seeded nx×ny mesh with the block partitioner on every rank and
// runs the first step.
func newWorldPath(n, nx, ny int, seed uint64, traced bool) (*worldPath, error) {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	w := &worldPath{ranks: make([]*rank, n)}
	errs := make([]error, n)
	boots := make([]time.Duration, n)
	parts := make([]time.Duration, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			t0 := time.Now()
			// The halo timeout turns a stuck peer into an error rather
			// than a hung benchmark.
			opts := []op2.Option{op2.WithTCPTransport(op2.TCPConfig{
				Rank: r, Peers: addrs, Listener: lns[r],
				Meta: fmt.Sprintf("perfbench airfoil %dx%d seed %d", nx, ny, seed),
			}), op2.WithHaloTimeout(30 * time.Second)}
			if traced {
				opts = append(opts, op2.WithMetrics())
			}
			rt, err := op2.New(opts...)
			if err != nil {
				lns[r].Close()
				errs[r] = fmt.Errorf("rank %d: bootstrap: %w", r, err)
				return
			}
			boots[r] = time.Since(t0)
			rk := &rank{id: r, rt: rt, cmd: make(chan segmentCmd), done: make(chan error),
				issueSpan: fmt.Sprintf("dist/rank%d.issue", r), waitSpan: fmt.Sprintf("dist/rank%d.wait", r)}
			w.ranks[r] = rk
			m, c, err := newMesh(nx, ny, seed)
			if err != nil {
				errs[r] = err
				return
			}
			t1 := time.Now()
			if err := rt.Partition(m.Cells, m.Pecell, m.Pcell, m.X); err != nil {
				errs[r] = fmt.Errorf("rank %d: partition: %w", r, err)
				return
			}
			parts[r] = time.Since(t1)
			if rk.app, err = airfoil.NewAppFromMesh(m, c, rt); err != nil {
				errs[r] = err
				return
			}
			rk.step = rk.app.StepGraph()
			errs[r] = rk.run(segmentCmd{ctx: context.Background(), k: 1})
		}(r)
	}
	wg.Wait()
	for r, rk := range w.ranks {
		if rk == nil {
			continue
		}
		w.bootstrap = max(w.bootstrap, boots[r])
		w.partition = max(w.partition, parts[r])
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			for c := range rk.cmd {
				rk.done <- rk.run(c)
			}
		}()
	}
	for _, err := range errs {
		if err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

// run issues k steps asynchronously and waits for all of them, or
// gathers the flow field: a collective every rank must join at once.
func (rk *rank) run(c segmentCmd) error {
	if c.gather {
		return rk.app.Sync()
	}
	lane := 1 + rk.id
	rk.futs = rk.futs[:0]
	for i := 0; i < c.k; i++ {
		s := c.tr.now()
		rk.futs = append(rk.futs, rk.step.Async(c.ctx))
		c.tr.record(rk.issueSpan, c.parent, c.id, lane, s)
	}
	s := c.tr.now()
	var first error
	for _, f := range rk.futs {
		if err := f.Wait(); err != nil && first == nil {
			first = err
		}
	}
	c.tr.record(rk.waitSpan, c.parent, c.id, lane, s)
	return first
}

func (w *worldPath) name() string { return "dist" }

func (w *worldPath) segment(ctx context.Context, k int, tr *tracer, id int64) error {
	root := tr.open("dist/segment", -1, id, 0)
	defer tr.close(root)
	return w.do(segmentCmd{ctx: ctx, k: k, tr: tr, parent: root, id: id})
}

// do runs c on every rank at once and returns the first rank's error.
func (w *worldPath) do(c segmentCmd) error {
	for _, rk := range w.ranks {
		rk.cmd <- c
	}
	var first error
	for _, rk := range w.ranks {
		if err := <-rk.done; err != nil && first == nil {
			first = fmt.Errorf("rank %d: %w", rk.id, err)
		}
	}
	return first
}

// finalQ gathers every rank's flow field and checks that the ranks
// agree bitwise before returning rank 0's.
func (w *worldPath) finalQ() ([]float64, error) {
	if err := w.do(segmentCmd{gather: true}); err != nil {
		return nil, fmt.Errorf("sync: %w", err)
	}
	var q0 []float64
	for _, rk := range w.ranks {
		q := rk.app.M.Q.Data()
		if q0 == nil {
			q0 = q
			continue
		}
		if i := firstDiff(q0, q); i >= 0 {
			return nil, fmt.Errorf("rank %d: q[%d] differs bitwise from rank 0", rk.id, i)
		}
	}
	return q0, nil
}

func (w *worldPath) close() {
	for _, rk := range w.ranks {
		if rk != nil {
			close(rk.cmd)
		}
	}
	w.wg.Wait()
	for _, rk := range w.ranks {
		if rk != nil {
			rk.rt.Close()
		}
	}
}

// firstDiff returns the first index where a and b differ bitwise, or -1.
func firstDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}
