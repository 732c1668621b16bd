// vdnn-explore runs what-if sweeps beyond the paper's evaluation: GPU
// memory capacity, interconnect bandwidth, batch size, prefetch schedule and
// transfer-mode trade-offs, for any of the benchmark networks.
//
//	vdnn-explore -network vgg16 -batch 256 capacity
//	vdnn-explore -network googlenet link
//	vdnn-explore -network vgg16 -batch 128 batch
//	vdnn-explore -network vgg16 -batch 64 devices
//	vdnn-explore -network vgg16 -batch 128 codec
//	vdnn-explore -network vgg16 -batch 64 stages
//	vdnn-explore -cpuprofile cpu.pprof -network vgg16 capacity
//
// Sweeps: capacity, link, batch, prefetch, pagemig, devices, codec, stages.
//
// Each sweep is one axis product enumerated by the planner's generator
// (plan.Cross over plan.Axis values — the same machinery behind vdnn-plan's
// candidate space), enqueued as one batch on a vdnn.Simulator, so its
// simulations run concurrently and overlapping configurations across sweeps
// of one invocation are simulated once.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"vdnn"
	"vdnn/internal/perf"
	"vdnn/internal/plan"
	"vdnn/internal/report"
)

func main() {
	var (
		network    = flag.String("network", "vgg16", "network: "+strings.Join(vdnn.NetworkNames(), ", "))
		batch      = flag.Int("batch", 64, "batch size")
		jobs       = flag.Int("j", 0, "max simulations in flight (0 = all cores)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: vdnn-explore [-network N] [-batch B] capacity|link|batch|prefetch|pagemig|devices|codec|stages")
		os.Exit(1)
	}

	prof, err := perf.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vdnn-explore:", err)
		os.Exit(1)
	}

	e := &explorer{
		sim:  vdnn.NewSimulator(vdnn.WithParallelism(*jobs)),
		name: *network,
	}

	switch flag.Arg(0) {
	case "capacity":
		e.capacitySweep(*batch)
	case "link":
		e.linkSweep(*batch)
	case "batch":
		e.batchSweep()
	case "prefetch":
		e.prefetchSweep(*batch)
	case "pagemig":
		e.pagemigSweep(*batch)
	case "devices":
		e.devicesSweep(*batch)
	case "codec":
		e.codecSweep(*batch)
	case "stages":
		e.stagesSweep(*batch)
	default:
		fmt.Fprintf(os.Stderr, "vdnn-explore: unknown sweep %q\n", flag.Arg(0))
		os.Exit(1)
	}

	if err := prof.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "vdnn-explore:", err)
		os.Exit(1)
	}
}

type explorer struct {
	sim  *vdnn.Simulator
	name string
}

// nets resolves the network at each batch size through the simulator's
// memoized network cache, so every sweep of one invocation shares
// identity-stable instances (the result cache keys on them).
func (e *explorer) nets(batches ...int) []*vdnn.Network {
	ns := make([]*vdnn.Network, len(batches))
	for i, b := range batches {
		n, err := e.sim.Network(e.name, b)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vdnn-explore:", err)
			os.Exit(1)
		}
		ns[i] = n
	}
	return ns
}

// runAll simulates one sweep's configurations as a concurrent batch.
func (e *explorer) runAll(jobs []vdnn.BatchJob) []*vdnn.Result {
	res, err := e.sim.RunBatch(context.Background(), jobs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vdnn-explore:", err)
		os.Exit(1)
	}
	return res
}

// trainAxis is the trainability face-off most sweeps tabulate: the fastest
// baseline against vDNN-dyn.
func trainAxis() plan.Axis {
	return plan.Axis{
		plan.PolicyVariant(vdnn.Baseline, vdnn.PerfOptimal),
		plan.PolicyVariant(vdnn.VDNNDyn, 0),
	}
}

func (e *explorer) capacitySweep(batch int) {
	gbs := []int64{4, 6, 8, 12, 16, 24, 32, 48}
	var capacity plan.Axis
	for _, gb := range gbs {
		capacity = append(capacity, plan.CapacityVariant(gb<<30))
	}
	res := e.runAll(plan.CrossJobs(e.nets(batch), vdnn.Config{Spec: vdnn.TitanX()}, capacity, trainAxis()))

	t := report.NewTable(fmt.Sprintf("GPU capacity sweep — %s (%d)", e.name, batch),
		"capacity (GB)", "base(p)", "vDNN-dyn", "dyn max usage (MB)", "dyn FE (ms)")
	for i, gb := range gbs {
		base, dyn := res[2*i], res[2*i+1]
		t.AddRow(fmt.Sprintf("%d", gb), yesNo(base.Trainable), yesNo(dyn.Trainable),
			report.FmtMiB(dyn.MaxUsage), report.FmtMs(int64(dyn.FETime)))
	}
	t.Render(os.Stdout)
}

func (e *explorer) linkSweep(batch int) {
	var links []vdnn.Link
	var axis plan.Axis
	for _, name := range []string{"pcie2", "pcie3", "nvlink"} {
		link := mustLink(name)
		links = append(links, link)
		axis = append(axis, plan.LinkVariant(link))
	}
	n := e.nets(batch)
	jobs := plan.CrossJobs(n, vdnn.Config{Spec: vdnn.TitanX(), Policy: vdnn.VDNNConv, Algo: vdnn.MemOptimal, Oracle: true})
	jobs = append(jobs, plan.CrossJobs(n,
		vdnn.Config{Spec: vdnn.TitanX(), Policy: vdnn.VDNNAll, Algo: vdnn.MemOptimal, Oracle: true}, axis)...)
	res := e.runAll(jobs)
	oracle := res[0]

	t := report.NewTable(fmt.Sprintf("interconnect sweep — %s (%d), vDNN-all(m)", e.name, batch),
		"link", "eff GB/s", "FE (ms)", "offload stalls hidden?")
	for i, link := range links {
		r := res[i+1]
		hidden := "partly"
		if float64(r.FETime) <= 1.02*float64(oracle.FETime) {
			hidden = "yes"
		}
		t.AddRow(link.Name, fmt.Sprintf("%.1f", float64(link.EffBps)/1e9),
			report.FmtMs(int64(r.FETime)), hidden)
	}
	t.Render(os.Stdout)
}

func (e *explorer) batchSweep() {
	batches := []int{16, 32, 64, 128, 192, 256, 384, 512}
	policies := plan.Axis{
		plan.PolicyVariant(vdnn.Baseline, vdnn.PerfOptimal),
		plan.PolicyVariant(vdnn.Baseline, vdnn.MemOptimal),
		plan.PolicyVariant(vdnn.VDNNDyn, 0),
	}
	res := e.runAll(plan.CrossJobs(e.nets(batches...), vdnn.Config{Spec: vdnn.TitanX()}, policies))

	t := report.NewTable(fmt.Sprintf("batch-size sweep — %s on 12 GB", e.name),
		"batch", "base(p)", "base(m)", "vDNN-dyn", "dyn FE (ms)")
	for i, b := range batches {
		baseP, baseM, dyn := res[3*i], res[3*i+1], res[3*i+2]
		t.AddRow(fmt.Sprintf("%d", b), yesNo(baseP.Trainable), yesNo(baseM.Trainable),
			yesNo(dyn.Trainable), report.FmtMs(int64(dyn.FETime)))
	}
	t.Render(os.Stdout)
}

func (e *explorer) prefetchSweep(batch int) {
	modes := []vdnn.PrefetchMode{vdnn.PrefetchJIT, vdnn.PrefetchFig10, vdnn.PrefetchEager, vdnn.PrefetchNone}
	var schedules plan.Axis
	for _, m := range modes {
		schedules = append(schedules, plan.PrefetchVariant(m))
	}
	res := e.runAll(plan.CrossJobs(e.nets(batch),
		vdnn.Config{Spec: vdnn.TitanX(), Policy: vdnn.VDNNAll, Algo: vdnn.MemOptimal, Oracle: true}, schedules))

	t := report.NewTable(fmt.Sprintf("prefetch schedule sweep — %s (%d), vDNN-all(m)", e.name, batch),
		"schedule", "max (MB)", "avg (MB)", "FE (ms)", "on-demand")
	for i, m := range modes {
		r := res[i]
		t.AddRow(m.String(), report.FmtMiB(r.MaxUsage), report.FmtMiB(r.AvgUsage),
			report.FmtMs(int64(r.FETime)), fmt.Sprintf("%d", r.OnDemandFetches))
	}
	t.Render(os.Stdout)
}

func (e *explorer) pagemigSweep(batch int) {
	transfer := plan.Axis{
		{Label: "pinned DMA", Apply: func(c vdnn.Config) vdnn.Config { return c }},
		{Label: "page migration", Apply: func(c vdnn.Config) vdnn.Config {
			c.PageMigration = true
			return c
		}},
	}
	res := e.runAll(plan.CrossJobs(e.nets(batch),
		vdnn.Config{Spec: vdnn.TitanX(), Policy: vdnn.VDNNAll, Algo: vdnn.MemOptimal, Oracle: true}, transfer))
	dma, pm := res[0], res[1]

	t := report.NewTable(fmt.Sprintf("transfer-mode sweep — %s (%d), vDNN-all(m)", e.name, batch),
		"mode", "FE (ms)", "slowdown")
	t.AddRow(transfer[0].Label, report.FmtMs(int64(dma.FETime)), "1.0x")
	t.AddRow(transfer[1].Label, report.FmtMs(int64(pm.FETime)),
		fmt.Sprintf("%.1fx", float64(pm.FETime)/float64(dma.FETime)))
	t.Render(os.Stdout)
}

// devicesSweep scales data-parallel replicas over a shared PCIe root
// complex: does vDNN still hide its transfers when 2-8 replicas fight over
// the interconnect?
func (e *explorer) devicesSweep(batch int) {
	counts := []int{1, 2, 4, 8}
	topology, _ := vdnn.TopologyByName("shared-x16")
	var replicas plan.Axis
	for _, c := range counts {
		replicas = append(replicas, plan.DevicesVariant(c, topology))
	}
	policies := plan.Axis{
		plan.PolicyVariant(vdnn.VDNNAll, vdnn.MemOptimal),
		plan.PolicyVariant(vdnn.Baseline, vdnn.PerfOptimal),
	}
	res := e.runAll(plan.CrossJobs(e.nets(batch), vdnn.Config{Spec: vdnn.TitanX()}, replicas, policies))

	t := report.NewTable(fmt.Sprintf("device sweep — %s (%d per replica), shared x16 root complex", e.name, batch),
		"GPUs", "vDNN-all step/replica (ms)", "stall (ms)", "overlap", "imbalance", "base(p) step/replica (ms)", "aggregate img/s (vDNN)")
	for i, c := range counts {
		dyn, base := res[2*i], res[2*i+1]
		step, stall, overlap := dyn.ReplicaMeans()
		baseStep, _, _ := base.ReplicaMeans()
		imgs := float64(batch*c) / dyn.IterTime.Seconds()
		t.AddRow(fmt.Sprintf("%d", c),
			report.FmtMs(int64(step)), report.FmtMs(int64(stall)), report.FmtPct(overlap),
			fmt.Sprintf("%.2fx", dyn.DeviceImbalance()),
			report.FmtMs(int64(baseStep)), fmt.Sprintf("%.0f", imgs))
	}
	t.Render(os.Stdout)
}

// stagesSweep scales pipeline parallelism: partition the network across 2-8
// stages on a shared root complex, at the default and a generous micro-batch
// count, against the single-device reference. Per-stage imbalance and the
// measured bubble show where model partitioning stops paying.
func (e *explorer) stagesSweep(batch int) {
	type point struct{ stages, microBatches int }
	points := []point{{1, 0}, {2, 0}, {4, 0}, {4, 8}, {8, 0}, {8, 16}}
	topology, _ := vdnn.TopologyByName("shared-x16")
	var shapes plan.Axis
	for _, p := range points {
		shapes = append(shapes, plan.PipelineVariant(p.stages, p.microBatches, topology))
	}
	res := e.runAll(plan.CrossJobs(e.nets(batch),
		vdnn.Config{Spec: vdnn.TitanX(), Policy: vdnn.VDNNAll, Algo: vdnn.MemOptimal}, shapes))

	t := report.NewTable(fmt.Sprintf("pipeline-stage sweep — %s (%d), vDNN-all(m), shared x16 root complex", e.name, batch),
		"stages", "micro-batches", "iter (ms)", "bubble", "imbalance", "inter-stage (MB)", "peak stage pool (MB)")
	for i, p := range points {
		r := res[i]
		mb := "-"
		bubble := "-"
		if p.stages > 1 {
			mb = fmt.Sprintf("%d", r.MicroBatches)
			bubble = fmt.Sprintf("%.0f%%", 100*r.BubbleFraction)
		}
		t.AddRow(fmt.Sprintf("%d", p.stages), mb,
			report.FmtMs(int64(r.IterTime)), bubble,
			fmt.Sprintf("%.2fx", r.DeviceImbalance()),
			report.FmtMiB(r.InterStageBytes), report.FmtMiB(r.MaxUsage))
	}
	t.Render(os.Stdout)
}

// codecSweep crosses the compressing-DMA codecs with the sparsity presets
// under vDNN-all(m): how much wire traffic each codec saves on each
// assumption, and what it does to feature-extraction time.
func (e *explorer) codecSweep(batch int) {
	type point struct {
		codec    vdnn.Codec
		sparsity string
	}
	points := []point{
		{vdnn.CodecNone, ""},
		{vdnn.CodecZVC, "cdma"}, {vdnn.CodecZVC, "flat50"}, {vdnn.CodecZVC, "dense"},
		{vdnn.CodecRLE, "cdma"}, {vdnn.CodecRLE, "flat50"},
	}
	var codecs plan.Axis
	for _, p := range points {
		codecs = append(codecs, plan.CodecVariant(p.codec, p.sparsity))
	}
	res := e.runAll(plan.CrossJobs(e.nets(batch),
		vdnn.Config{Spec: vdnn.TitanX(), Policy: vdnn.VDNNAll, Algo: vdnn.MemOptimal}, codecs))

	t := report.NewTable(fmt.Sprintf("codec sweep — %s (%d), vDNN-all(m)", e.name, batch),
		"codec", "sparsity", "offload raw (MB)", "offload wire (MB)", "ratio", "codec busy (ms)", "FE (ms)")
	for i, p := range points {
		r := res[i]
		prof := p.sparsity
		if p.codec == vdnn.CodecNone {
			prof = "-"
		}
		t.AddRow(p.codec.String(), prof,
			report.FmtMiB(r.OffloadRawBytes), report.FmtMiB(r.OffloadBytes),
			fmt.Sprintf("%.2fx", r.CompressionRatio),
			report.FmtMs(int64(r.CompressTime+r.DecompressTime)),
			report.FmtMs(int64(r.FETime)))
	}
	t.Render(os.Stdout)
}

func mustLink(name string) vdnn.Link {
	l, ok := vdnn.LinkByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "vdnn-explore: unknown link %q\n", name)
		os.Exit(1)
	}
	return l
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
