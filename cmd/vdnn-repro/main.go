// vdnn-repro regenerates the paper's evaluation: every figure of Section V
// plus the power study and the design-choice ablations. Run with no
// arguments for everything, or name the experiments to regenerate:
//
//	vdnn-repro fig1 fig11 fig14
//	vdnn-repro -csv fig12 > fig12.csv
//	vdnn-repro -j 8            # 8 simulations in flight
//	vdnn-repro -store ~/.cache/vdnn   # persist results; repeat runs simulate nothing
//	vdnn-repro -cpuprofile cpu.pprof -memprofile mem.pprof   # then: go tool pprof
//
// The selected experiments' configurations are enqueued as one batch on a
// concurrent sweep engine (internal/sweep) that runs -j simulations in
// parallel with one deduplicated result cache shared across all experiments;
// tables are then formatted from the cached results. Every simulation is
// deterministic, so the output is byte-identical for any -j value; -j 1
// schedules the sweep's simulations one at a time (the vDNN-dyn profiler
// still evaluates its per-phase candidates concurrently inside a
// simulation). -j defaults to all cores.
//
// Experiments: fig1, fig4, fig5, fig6, fig11, fig12, fig13, fig14, fig15,
// power, ablation-prefetch, ablation-pagemig, ablation-link,
// ablation-capacity, ablation-weights, ablation-batch, case-multigpu,
// case-contention, case-pipeline, case-compression, case-precision,
// case-devices, case-resnet, case-plan, case-energy.
package main

import (
	"flag"
	"fmt"
	"os"

	"vdnn"
	"vdnn/internal/figures"
	"vdnn/internal/gpu"
	"vdnn/internal/perf"
	"vdnn/internal/sweep"
)

func main() {
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	jobs := flag.Int("j", 0, "max simulations in flight (0 = all cores, 1 = sequential)")
	storeDir := flag.String("store", "", "persist results to this directory and reuse them across runs")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	simOpts := []vdnn.SimulatorOption{vdnn.WithParallelism(*jobs)}
	if *storeDir != "" {
		st, err := vdnn.OpenStore(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vdnn-repro:", err)
			os.Exit(1)
		}
		simOpts = append(simOpts, vdnn.WithStore(st))
		// The warm/cold split is the number a repeat run cares about; stderr
		// keeps stdout byte-identical with and without a store.
		defer func() {
			ss := st.Stats()
			fmt.Fprintf(os.Stderr, "store %s: %d hits, %d writes, %d records\n",
				*storeDir, ss.Hits, ss.Writes, ss.Records)
		}()
	}
	sim := vdnn.NewSimulator(simOpts...)
	suite := figures.NewSuiteSim(gpu.TitanX(), sim)
	all := suite.Experiments()

	want := flag.Args()
	selected := map[string]bool{}
	for _, w := range want {
		selected[w] = true
	}
	known := map[string]bool{}
	for _, e := range all {
		known[e.Name] = true
	}
	for _, w := range want {
		if !known[w] {
			fmt.Fprintf(os.Stderr, "vdnn-repro: unknown experiment %q\n", w)
			os.Exit(1)
		}
	}

	prof, err := perf.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vdnn-repro:", err)
		os.Exit(1)
	}

	// Enqueue every selected experiment's simulations as one batch so the
	// engine can overlap work across experiments, then format the tables —
	// all cache hits — in order.
	var batch []sweep.Job
	for _, e := range all {
		if len(selected) > 0 && !selected[e.Name] {
			continue
		}
		batch = append(batch, e.Jobs()...)
	}
	suite.Prime(batch)

	for _, e := range all {
		if len(selected) > 0 && !selected[e.Name] {
			continue
		}
		t := e.Gen()
		if *csv {
			t.CSV(os.Stdout)
		} else {
			t.Render(os.Stdout)
			fmt.Println()
		}
	}

	// Prime-batch and per-experiment formatting time, to stderr: stdout
	// carries only the figure tables, which are byte-identical at any -j —
	// timing and cache stats are scheduling-dependent diagnostics.
	if !*csv {
		suite.Timings().Render(os.Stderr)
	}

	if err := prof.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "vdnn-repro:", err)
		os.Exit(1)
	}
}
