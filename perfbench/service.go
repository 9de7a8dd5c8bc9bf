package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"op2hpx/internal/airfoil"
	"op2hpx/op2"
)

const (
	serviceClients    = 2 // closed-loop clients, one job in flight each
	serviceResident   = 2 // the service's residency slots
	serviceCkpts      = 4 // durable checkpoints per job
	serviceStaticSize = 2048
	serviceRoundJobs  = 2 // jobs each client runs, one after another, per round
)

// serviceResult is what the closed loop measured.
type serviceResult struct {
	latency   []float64 // ms from Submit to result, per completed job
	queueWait []float64 // ms from Submit to the job's Setup starting
	setup     []float64 // ms inside the job's Setup
	saves     []float64 // ms per CheckpointStore.Save
	ckptBytes int64     // size of one checkpoint file
	jobs      int
	retired   int64         // steps the service retired during the loop
	elapsed   time.Duration // time spent in the rounds
	attempted int
	failures  []string
}

// timedStore decorates a CheckpointStore, timing every Save and
// recording it as a span under the saving job's root span.
type timedStore struct {
	inner op2.CheckpointStore
	dir   string
	tr    *tracer

	mu      sync.Mutex
	parents map[string]int
	saves   []float64
	bytes   int64
}

func (s *timedStore) Save(job string, cp *op2.Checkpoint) error {
	t0 := time.Now()
	err := s.inner.Save(job, cp)
	d := time.Since(t0)
	s.mu.Lock()
	defer s.mu.Unlock()
	// Saves run on the service's scheduler: a lane of their own.
	s.tr.record("service/ckpt.save", s.parents[job], 0, serviceClients, t0)
	s.saves = append(s.saves, float64(d.Nanoseconds())/1e6)
	if s.bytes == 0 && err == nil {
		// DirCheckpoints keeps a job's checkpoint at <dir>/<job>.ckpt.
		if fi, serr := os.Stat(filepath.Join(s.dir, job+".ckpt")); serr == nil {
			s.bytes = fi.Size()
		}
	}
	return err
}

func (s *timedStore) Load(job string) (*op2.Checkpoint, error) { return s.inner.Load(job) }

func (s *timedStore) setParent(job string, span int) {
	s.mu.Lock()
	s.parents[job] = span
	s.mu.Unlock()
}

// serviceLoop drives sv with serviceClients closed-loop clients in
// rounds. Each client submits an airfoil job of iters steps on the
// seeded nx×ny mesh, waits for its result, checks the final flow field
// bitwise against golden and submits the next. Jobs checkpoint to dir
// serviceCkpts times, evenly spaced.
type serviceLoop struct {
	sv            *op2.Service
	store         *timedStore
	dir           string
	nx, ny, iters int
	seed          uint64
	golden        []float64
	tr            *tracer
	retired0      int64
	next          [serviceClients]int // each client's next job number
	res           serviceResult
}

func newServiceLoop(sv *op2.Service, dir string, nx, ny, iters int, seed uint64,
	golden []float64, tr *tracer) (*serviceLoop, error) {
	ds, err := op2.NewDirCheckpoints(dir)
	if err != nil {
		return nil, err
	}
	return &serviceLoop{
		sv: sv, dir: dir, nx: nx, ny: ny, iters: iters, seed: seed, golden: golden, tr: tr,
		store:    &timedStore{inner: ds, dir: dir, tr: tr, parents: make(map[string]int)},
		retired0: sv.Stats().StepsRetired,
	}, nil
}

// round runs serviceRoundJobs jobs on every client, the clients at once,
// and reports whether they all succeeded. A client stops at its first
// failed job.
func (l *serviceLoop) round() bool {
	var mu sync.Mutex
	ok := true
	start := time.Now()
	var wg sync.WaitGroup
	for cl := 0; cl < serviceClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for range serviceRoundJobs {
				n := l.next[cl]
				l.next[cl]++
				name := fmt.Sprintf("job-%d-%d", cl, n)
				lat, qw, su, err := runJob(l.sv, l.store, name, cl, n, l.nx, l.ny, l.iters, l.seed, l.golden, l.tr)
				mu.Lock()
				l.res.attempted++
				if err != nil {
					l.res.failures = append(l.res.failures, fmt.Sprintf("%s: %v", name, err))
					ok = false
				} else {
					l.res.jobs++
					l.res.latency = append(l.res.latency, lat)
					l.res.queueWait = append(l.res.queueWait, qw)
					l.res.setup = append(l.res.setup, su)
				}
				mu.Unlock()
				os.Remove(filepath.Join(l.dir, name+".ckpt"))
				if err != nil {
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	l.res.elapsed += time.Since(start)
	return ok
}

// result returns what the rounds so far measured.
func (l *serviceLoop) result() *serviceResult {
	r := l.res
	r.retired = l.sv.Stats().StepsRetired - l.retired0
	r.saves, r.ckptBytes = l.store.saves, l.store.bytes
	return &r
}

// runJob submits one job and waits for its verified result, returning
// its latency, queue wait and setup time in ms.
func runJob(sv *op2.Service, store *timedStore, name string, lane, id, nx, ny, iters int,
	seed uint64, golden []float64, tr *tracer) (lat, queueWait, setup float64, err error) {
	root := tr.open("service/job", -1, int64(id), lane)
	defer tr.close(root)
	store.setParent(name, root)
	var (
		app                  *airfoil.App
		setupStart, setupEnd time.Time
	)
	spec := op2.JobSpec{
		Name:            name,
		Runtime:         []op2.Option{op2.WithBackend(op2.Dataflow), op2.WithChunker(op2.StaticChunk(serviceStaticSize))},
		Iters:           iters,
		CheckpointEvery: max((iters-1)/serviceCkpts, 1),
		CheckpointStore: store,
		Setup: func(rt *op2.Runtime) (*op2.Step, error) {
			setupStart = time.Now()
			defer func() { setupEnd = time.Now() }()
			m, c, err := newMesh(nx, ny, seed)
			if err != nil {
				return nil, err
			}
			if app, err = airfoil.NewAppFromMesh(m, c, rt); err != nil {
				return nil, err
			}
			return app.StepGraph(), nil
		},
		Collect: func(*op2.Runtime) (any, error) {
			s := time.Now()
			defer tr.record("service/collect", root, int64(id), lane, s)
			if err := app.Sync(); err != nil {
				return nil, err
			}
			return append([]float64(nil), app.M.Q.Data()...), nil
		},
	}
	t0 := time.Now()
	s := tr.now()
	h, err := sv.Submit(context.Background(), spec)
	tr.record("service/submit", root, int64(id), lane, s)
	if err != nil {
		return 0, 0, 0, err
	}
	out, err := h.Result(context.Background())
	lat = float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return 0, 0, 0, err
	}
	// The Setup and Collect closures ran on the service's goroutines;
	// Result returning orders their writes before these reads.
	tr.add("service/queue", root, int64(id), lane, t0, setupStart)
	tr.add("service/setup", root, int64(id), lane, setupStart, setupEnd)
	s = tr.now()
	q, _ := out.([]float64)
	if i := firstDiff(q, golden); i >= 0 {
		err = fmt.Errorf("q[%d] differs bitwise from the serial golden", i)
	}
	tr.record("service/verify", root, int64(id), lane, s)
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	return lat, ms(setupStart.Sub(t0)), ms(setupEnd.Sub(setupStart)), err
}
