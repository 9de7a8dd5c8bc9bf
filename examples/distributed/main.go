// Distributed example: the airfoil application on the owner-compute
// distributed runtime, through the public op2 facade. Cells are
// partitioned across simulated localities (choose the partitioner with
// -partitioner), each rank runs the loops' compiled bodies over its
// localized mesh (owned elements first, import halo after), and every
// indirect loop overlaps its halo exchange with the elements that need
// no halo data. The run is verified bitwise against the serial backend —
// every rank executes its elements, including the exec-halo edges it
// runs redundantly, in the serial plan order, so the results are
// identical bit for bit at every rank count and under every partitioner.
//
// Run with:
//
//	go run ./examples/distributed
//	go run ./examples/distributed -partitioner greedy -nx 120 -ny 60
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"time"

	"op2hpx/internal/airfoil"
	"op2hpx/op2"
)

func main() {
	var (
		nx    = flag.Int("nx", 60, "mesh cells in x")
		ny    = flag.Int("ny", 30, "mesh cells in y")
		iters = flag.Int("iters", 10, "time iterations")
		pname = flag.String("partitioner", "rcb", "mesh partitioner: block, rcb or greedy")
	)
	flag.Parse()

	p, err := op2.PartitionerByName(*pname)
	if err != nil {
		log.Fatal(err)
	}

	// Reference: serial shared-memory run.
	rt := op2.MustNew(op2.WithBackend(op2.Serial), op2.WithPoolSize(1))
	defer rt.Close()
	ref, err := airfoil.NewApp(*nx, *ny, rt)
	if err != nil {
		log.Fatal(err)
	}
	rmsRef, err := ref.Run(*iters)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("airfoil %dx%d cells, %d iterations, partitioner=%s\n", *nx, *ny, *iters, *pname)
	fmt.Printf("%-10s rms %.6e   (reference)\n\n", "serial", rmsRef)

	for _, ranks := range []int{1, 2, 4, 8} {
		app, err := airfoil.NewDistAppPartitioned(*nx, *ny, ranks, p)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		rms, err := app.Run(*iters)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)

		bitwise := math.Float64bits(rms) == math.Float64bits(rmsRef)
		for i, v := range app.Q() {
			if math.Float64bits(v) != math.Float64bits(ref.M.Q.Data()[i]) {
				bitwise = false
				break
			}
		}
		fmt.Printf("%d ranks: rms %.6e   bitwise=%v   %v\n",
			ranks, rms, bitwise, elapsed.Round(time.Millisecond))
		for _, st := range app.Report() {
			if st.Derived {
				fmt.Printf("  %-7s %-14s owned=%v\n", st.Set, st.Method, st.Owned)
				continue
			}
			fmt.Printf("  %-7s %-14s owned=%v halo=%v edge-cut=%d imbalance=%.3f\n",
				st.Set, st.Method, st.Owned, st.Halo, st.EdgeCut, st.Imbalance)
		}
		fmt.Println()
		if !bitwise {
			log.Fatal("distributed run diverged from the serial reference")
		}
		app.Close() //nolint:errcheck // example teardown
	}
	fmt.Println("distributed execution matches the serial reference bit for bit.")

	rescatterDemo(*nx, *ny, *iters, p)
}

// rescatterDemo updates boundary conditions mid-run: after half the
// iterations the host rewrites part of the flow field in Dat.Data() and
// pushes it back into the rank shards with Dat.Rescatter — closing the
// one-shot-scatter gap where host writes after the first distributed
// write used to be ignored. The serial reference applies the same host
// edit, and the final fields still match bit for bit.
func rescatterDemo(nx, ny, iters int, p op2.Partitioner) {
	if iters < 2 {
		return // the demo needs iterations on both sides of the update
	}
	fmt.Println("\nmid-run boundary-condition update via Dat.Rescatter:")
	half := iters / 2
	hostEdit := func(q []float64, ncells int) {
		// Re-impose the far-field state on the last row of cells — a
		// host-side boundary-condition change no kernel performs.
		consts := airfoil.DefaultConstants()
		for c := ncells - nx; c < ncells; c++ {
			copy(q[4*c:4*c+4], consts.Qinf[:])
		}
	}

	// Serial reference with the same mid-run edit.
	rt := op2.MustNew(op2.WithBackend(op2.Serial), op2.WithPoolSize(1))
	defer rt.Close()
	ref, err := airfoil.NewApp(nx, ny, rt)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := ref.Run(half); err != nil {
		log.Fatal(err)
	}
	hostEdit(ref.M.Q.Data(), ref.M.Cells.Size())
	if _, err := ref.Run(iters - half); err != nil {
		log.Fatal(err)
	}

	app, err := airfoil.NewDistAppPartitioned(nx, ny, 4, p)
	if err != nil {
		log.Fatal(err)
	}
	defer app.Close()
	if _, err := app.Run(half); err != nil {
		log.Fatal(err)
	}
	// Run() synced, so Q() is authoritative; edit it on the host and
	// push the edit back into the rank shards.
	hostEdit(app.M.Q.Data(), app.M.Cells.Size())
	if err := app.M.Q.Rescatter(); err != nil {
		log.Fatal(err)
	}
	if _, err := app.Run(iters - half); err != nil {
		log.Fatal(err)
	}
	for i, v := range app.Q() {
		if math.Float64bits(v) != math.Float64bits(ref.M.Q.Data()[i]) {
			log.Fatalf("q[%d] diverged after the Rescatter update", i)
		}
	}
	fmt.Printf("  updated %d boundary cells at iteration %d; final field still bitwise-identical to serial.\n", nx, half)
}
