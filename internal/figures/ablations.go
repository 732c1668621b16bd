package figures

import (
	"fmt"
	"slices"

	"vdnn/internal/core"
	"vdnn/internal/dnn"
	"vdnn/internal/networks"
	"vdnn/internal/pcie"
	"vdnn/internal/plan"
	"vdnn/internal/report"
	"vdnn/internal/sweep"
)

// Ablations for the design decisions the paper argues qualitatively. All use
// VGG-16 as the stress workload.

// prefetchModes are the prefetch ablation's schedules, in row order.
var prefetchModes = []core.PrefetchMode{core.PrefetchJIT, core.PrefetchFig10, core.PrefetchEager, core.PrefetchNone}

func (s *Suite) ablationPrefetchJobs() []sweep.Job {
	return s.cross(s.vgg16(64), plan.Axis{oracle(allM)}, axis(plan.PrefetchVariant, prefetchModes...))
}

// AblationPrefetch compares prefetch schedules on VGG-16 (64) under
// vDNN-all(m): the paper's just-in-time schedule (Figure 9), the literal
// Figure 10 search-window code, eager prefetching (the pitfall Section III-B
// warns about), and no prefetching (the naive serialized case).
func (s *Suite) AblationPrefetch() *report.Table {
	rs := s.Prime(s.ablationPrefetchJobs())
	t := report.NewTable("Ablation — prefetch scheduling (VGG-16 (64), vDNN-all(m))",
		"schedule", "max usage (MB)", "avg usage (MB)", "FE time (ms)", "on-demand fetches")
	for i, m := range prefetchModes {
		r := rs[i]
		t.AddRow(m.String(), report.FmtMiB(r.MaxUsage), report.FmtMiB(r.AvgUsage),
			report.FmtMs(int64(r.FETime)), fmt.Sprintf("%d", r.OnDemandFetches))
	}
	t.AddNote("earlier prefetching re-camps data in GPU memory; no prefetching serializes backward computation")
	return t
}

func (s *Suite) ablationPageMigrationJobs() []sweep.Job {
	return s.cross(s.vgg16(64), plan.Axis{oracle(allM)},
		toggle("page migration", func(c *core.Config) { c.PageMigration = true }))
}

// AblationPageMigration reproduces the Section II-C argument quantitatively:
// page-migration-based virtualization (80-200 MB/s) versus pinned DMA
// (12.8 GB/s) for vDNN's transfers.
func (s *Suite) AblationPageMigration() *report.Table {
	rs := s.Prime(s.ablationPageMigrationJobs())
	dma, pm := rs[0], rs[1]
	link := s.Spec.Link
	t := report.NewTable("Ablation — DMA vs page-migration transfers (Section II-C)",
		"transfer mode", "effective bandwidth", "VGG-16 (64) FE time (ms)", "slowdown")
	t.AddRow("pinned DMA", fmt.Sprintf("%.1f GB/s", float64(link.EffBps)/1e9),
		report.FmtMs(int64(dma.FETime)), "1.0x")
	t.AddRow("page migration", fmt.Sprintf("%.0f MB/s", link.PageMigrationBps()/1e6),
		report.FmtMs(int64(pm.FETime)), fmt.Sprintf("%.1fx", float64(pm.FETime)/float64(dma.FETime)))
	t.AddNote("paper: 20-50 us per 4 KB page caps paging at 80-200 MB/s vs 12.8 GB/s DMA")
	return t
}

// ablationLinks are the interconnect ablation's host links, in row order.
var ablationLinks = []pcie.Link{pcie.Gen2x16(), pcie.Gen3x16(), pcie.NVLink1()}

// ablationInterconnectJobs is the oracle baseline, then vDNN-all(m) over
// each link; every link's device is named after it ("<device>+<link>").
func (s *Suite) ablationInterconnectJobs() []sweep.Job {
	n := s.vgg16(128)
	links := axis(func(l pcie.Link) plan.Variant { return renamed(plan.LinkVariant(l), "+") }, ablationLinks...)
	return append(s.cross(n, plan.Axis{oracle(baseP)}), s.cross(n, plan.Axis{oracle(allM)}, links)...)
}

// AblationInterconnect sweeps the host link: PCIe gen2/gen3 and NVLINK (the
// successor interconnect the paper names in Section III-A), showing how
// static vDNN's offload stalls shrink as the link speeds up.
func (s *Suite) AblationInterconnect() *report.Table {
	rs := s.Prime(s.ablationInterconnectJobs())
	target := rs[0]
	t := report.NewTable("Ablation — interconnect bandwidth (VGG-16 (128), vDNN-all(m))",
		"link", "effective GB/s", "FE time (ms)", "vs oracle baseline")
	for i, link := range ablationLinks {
		r := rs[1+i]
		t.AddRow(link.Name, fmt.Sprintf("%.1f", float64(link.EffBps)/1e9),
			report.FmtMs(int64(r.FETime)),
			fmt.Sprintf("%.2f", float64(target.FETime)/float64(r.FETime)))
	}
	t.AddNote("the residual (m)-mode gap is the implicit-GEMM algorithm penalty, not transfer stalls")
	return t
}

// ablationCapacitiesGB are the capacity ablation's device sizes, in row
// order.
var ablationCapacitiesGB = []int64{6, 8, 12, 16, 24, 32}

// ablationCapacityJobs crosses each capacity, its device named after it
// ("<device>-<N>GB"), with the table's four policy columns.
func (s *Suite) ablationCapacityJobs() []sweep.Job {
	capacities := axis(func(gb int64) plan.Variant { return renamed(plan.CapacityVariant(gb<<30), "-") },
		ablationCapacitiesGB...)
	return s.cross(s.vgg16(256), capacities, plan.Axis{baseP, convP, allM, dynamic})
}

// AblationCapacity sweeps the GPU memory size for VGG-16 (256): where the
// baseline, static vDNN and dynamic vDNN become trainable.
func (s *Suite) AblationCapacity() *report.Table {
	t := report.NewTable("Ablation — GPU memory capacity sweep (VGG-16 (256))",
		"capacity", "base(p)", "vDNN-conv(p)", "vDNN-all(m)", "vDNN-dyn")
	for i, row := range rows(s.Prime(s.ablationCapacityJobs()), 4) {
		t.AddRow(trainRow(fmt.Sprintf("%d GB", ablationCapacitiesGB[i]), row)...)
	}
	t.AddNote("vDNN pushes the trainability threshold far below the 28 GB the baseline needs")
	return t
}

func (s *Suite) weightOffloadNets() []*dnn.Network {
	return slices.Concat(s.netsOf("overfeat", networks.OverFeat, 128), s.vgg16(64))
}

func (s *Suite) ablationWeightOffloadJobs() []sweep.Job {
	return s.cross(s.weightOffloadNets(), plan.Axis{oracle(allM)},
		toggle("offload weights", func(c *core.Config) { c.OffloadWeights = true }))
}

// AblationWeightOffload quantifies the extension the paper sketches in
// Section III: applying vDNN's offload/prefetch machinery to the layer
// weights as well. As the paper predicts, the extra savings are small —
// weights are a sliver of feature-extraction memory (Figure 4) — while the
// transfer traffic grows.
func (s *Suite) AblationWeightOffload() *report.Table {
	nets := s.weightOffloadNets()
	t := report.NewTable("Ablation — offloading weights too (vDNN-all(m))",
		"network", "avg MB", "avg MB (+W)", "extra savings", "offload MB", "offload MB (+W)", "FE ms", "FE ms (+W)")
	for i, row := range rows(s.Prime(s.ablationWeightOffloadJobs()), 2) {
		base, ext := row[0], row[1]
		extra := 1 - float64(ext.AvgUsage)/float64(base.AvgUsage)
		t.AddRow(nets[i].Name,
			report.FmtMiB(base.AvgUsage), report.FmtMiB(ext.AvgUsage), report.FmtPct(extra),
			report.FmtMiB(base.OffloadBytes), report.FmtMiB(ext.OffloadBytes),
			report.FmtMs(int64(base.FETime)), report.FmtMs(int64(ext.FETime)))
	}
	t.AddNote("paper Section III: weights can be offloaded too, 'but with less of a memory saving benefit'")
	return t
}

// ablationBatches are the batch ablation's VGG-16 batch sizes, in row order.
var ablationBatches = []int{32, 64, 128, 192, 256, 384}

func (s *Suite) ablationBatchScalingJobs() []sweep.Job {
	return s.cross(s.vgg16(ablationBatches...), plan.Axis{baseP, baseM, convP, allM, dynamic})
}

// AblationBatchScaling shows the largest trainable VGG-16 batch per policy
// on the 12 GB device — the practitioner's view of vDNN's benefit.
func (s *Suite) AblationBatchScaling() *report.Table {
	t := report.NewTable("Ablation — largest trainable VGG-16 batch size on 12 GB",
		"batch", "base(p)", "base(m)", "vDNN-conv(p)", "vDNN-all(m)", "vDNN-dyn")
	for i, row := range rows(s.Prime(s.ablationBatchScalingJobs()), 5) {
		t.AddRow(trainRow(fmt.Sprintf("%d", ablationBatches[i]), row)...)
	}
	return t
}
