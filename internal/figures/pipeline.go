package figures

import (
	"fmt"
	"slices"

	"vdnn/internal/core"
	"vdnn/internal/pcie"
	"vdnn/internal/plan"
	"vdnn/internal/report"
	"vdnn/internal/sweep"
)

// The pipeline-vs-data-parallel case study: four GPUs behind one shared
// gen3 x16 root complex processing a 256-image global batch of VGG-16 —
// split across replicas (data parallelism, 64 each, ring all-reduce) or
// across layers (pipeline parallelism, micro-batches streamed through four
// stages). Same silicon, same interconnect, same work per iteration; the
// traffic patterns could not be more different.

// pipelineMicroBatchCounts are the pipeline points of the study.
var pipelineMicroBatchCounts = []int{4, 8, 16}

// parallelJobs is VGG-16's 256-image global batch under vDNN-all(m) on the
// device three ways: on one GPU, on 4 data-parallel replicas of 64, and on a
// 4-stage pipeline at each micro-batch count — the multi-GPU modes behind
// one shared gen3 x16 root complex.
func (s *Suite) parallelJobs(device plan.Variant, microBatches ...int) []sweep.Job {
	n256, n64 := s.vgg16(256), s.vgg16(64)
	on := plan.Axis{device}
	policy := plan.Axis{allM}
	pipelines := axis(func(m int) plan.Variant { return plan.PipelineVariant(4, m, pcie.SharedGen3Root()) },
		microBatches...)
	return slices.Concat(s.cross(n256, on, policy),
		s.cross(n64, on, policy, plan.Axis{sharedRoot(4)}),
		s.cross(n256, on, policy, pipelines))
}

// caseStudyPipelineJobs is the simulation set: the single-GPU reference, the
// 4-replica data-parallel split, and 4-stage pipelines at rising micro-batch
// counts, on the suite's device.
func (s *Suite) caseStudyPipelineJobs() []sweep.Job {
	return s.parallelJobs(deviceVariant(s.Spec), pipelineMicroBatchCounts...)
}

// CaseStudyPipeline renders the comparison: iteration time and throughput
// for a 256-image VGG-16 batch on 1 GPU, on 4 data-parallel replicas, and
// on a 4-stage pipeline — with each mode's interconnect bill (all-reduce vs
// inter-stage hand-offs), the pipeline's measured bubble, and the
// partitioner's stage imbalance.
func (s *Suite) CaseStudyPipeline() *report.Table {
	rs := s.Prime(s.caseStudyPipelineJobs())
	t := report.NewTable("Case study — pipeline vs data parallelism: VGG-16, 256-image global batch, 4 GPUs on one shared x16 root complex",
		"mode", "iter (ms)", "img/s", "interconnect (MB)", "bubble", "imbalance", "peak pool/GPU (MB)")
	row := func(mode string, r *core.Result, traffic int64) {
		bubble := "-"
		if len(r.Stages) > 0 {
			bubble = fmt.Sprintf("%.0f%%", 100*r.BubbleFraction)
		}
		t.AddRow(mode, report.FmtMs(int64(r.IterTime)),
			fmt.Sprintf("%.0f", 256/r.IterTime.Seconds()),
			report.FmtMiB(traffic),
			bubble, fmt.Sprintf("%.2fx", r.DeviceImbalance()),
			report.FmtMiB(r.MaxUsage))
	}

	row("1 GPU", rs[0], 0)
	row("data-parallel 4x64", rs[1], rs[1].AllReduceBytes)
	for i, m := range pipelineMicroBatchCounts {
		r := rs[2+i]
		row(fmt.Sprintf("pipeline 4 stages, M=%d", m), r, r.InterStageBytes)
	}

	t.AddNote("data parallelism pays a per-step gradient all-reduce (528 MB of weights, 2(N-1)/N each way); the pipeline pays per-micro-batch activation hand-offs and an (S-1)/(M+S-1) fill/drain bubble")
	return t
}
