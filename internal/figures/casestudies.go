package figures

import (
	"fmt"
	"slices"

	"vdnn/internal/dnn"
	"vdnn/internal/gpu"
	"vdnn/internal/networks"
	"vdnn/internal/plan"
	"vdnn/internal/report"
	"vdnn/internal/sweep"
	"vdnn/internal/tensor"
)

func (s *Suite) caseStudyMultiGPUJobs() []sweep.Job {
	return append(s.cross(s.vgg16(64), plan.Axis{baseP}), s.cross(s.vgg16(256), plan.Axis{dynamic})...)
}

// CaseStudyMultiGPU quantifies the alternative the paper's introduction
// names: instead of virtualizing memory, "parallelize the DNN across
// multiple GPUs" — Simonyan & Zisserman trained VGG-16 (256) as 4x
// VGG-16 (64), one per GPU. This table compares that data-parallel setup
// (per-iteration gradient all-reduce over PCIe included) against a single
// vDNN GPU running the full batch.
func (s *Suite) CaseStudyMultiGPU() *report.Table {
	rs := s.Prime(s.caseStudyMultiGPUJobs())

	// 4-GPU data parallel: each GPU runs batch 64 under the baseline, then a
	// ring all-reduce exchanges the weight gradients: 2*(N-1)/N of the model
	// per GPU over the 12.8 GB/s link.
	const gpus = 4
	per := rs[0]
	gradBytes := float64(s.vgg16(64)[0].TotalWeightBytes())
	allreduce := 2 * float64(gpus-1) / float64(gpus) * gradBytes / float64(s.Spec.Link.EffBps) * 1e9 // ns
	dpIter := float64(per.IterTime) + allreduce

	// 1 GPU with vDNN-dyn on the full batch.
	dyn := rs[1]

	imgsPerSec := func(batch int, iterNs float64) float64 { return float64(batch) / (iterNs / 1e9) }
	dpThroughput := imgsPerSec(256, dpIter)
	vdnnThroughput := imgsPerSec(256, float64(dyn.IterTime))

	t := report.NewTable("Case study — 4-GPU data parallelism vs one vDNN GPU (VGG-16, effective batch 256)",
		"setup", "GPUs", "iteration (ms)", "images/s", "images/s/GPU", "GPU memory each")
	t.AddRow("4x baseline (batch 64 each) + all-reduce", fmt.Sprintf("%d", gpus),
		report.FmtMs(int64(dpIter)), fmt.Sprintf("%.0f", dpThroughput),
		fmt.Sprintf("%.0f", dpThroughput/gpus), report.FmtMiB(per.MaxUsage)+" MB")
	t.AddRow("1x vDNN-dyn (batch 256)", "1",
		report.FmtMs(int64(dyn.IterTime)), fmt.Sprintf("%.0f", vdnnThroughput),
		fmt.Sprintf("%.0f", vdnnThroughput), report.FmtMiB(dyn.MaxUsage)+" MB")
	t.AddNote("4 GPUs are %.1fx faster in aggregate; per GPU, vDNN delivers %.1fx their throughput on one card",
		dpThroughput/vdnnThroughput, vdnnThroughput/(dpThroughput/gpus))
	return t
}

// precisionNets returns the precision case study's [fp32, fp16] network
// pairs in row order.
func (s *Suite) precisionNets() [][2]*dnn.Network {
	var out [][2]*dnn.Network
	for _, n := range slices.Concat(s.vgg16(128, 256), s.vggDeep(416)) {
		h := s.net(func() *dnn.Network { return n.WithDType(tensor.Float16) }, n.Name+" fp16")
		out = append(out, [2]*dnn.Network{n, h})
	}
	return out
}

// caseStudyPrecisionJobs lists, per pair, the fp32 baseline(p), then the
// fp16 baseline(p) and vDNN-dyn.
func (s *Suite) caseStudyPrecisionJobs() []sweep.Job {
	var js []sweep.Job
	for _, pair := range s.precisionNets() {
		js = append(js, s.cross(pair[:1], plan.Axis{baseP})...)
		js = append(js, s.cross(pair[1:], plan.Axis{baseP, dynamic})...)
	}
	return js
}

// CaseStudyPrecision is a reduced-precision what-if (the paper's related
// work, Section VI, positions precision as an orthogonal memory lever):
// the same networks with FP16 tensors, halving every feature map, weight
// and workspace.
func (s *Suite) CaseStudyPrecision() *report.Table {
	pairs := s.precisionNets()
	t := report.NewTable("Case study — FP32 vs FP16 storage (baseline(p) demand and trainability on 12 GB)",
		"network", "fp32 demand (MB)", "fp32 trains", "fp16 demand (MB)", "fp16 trains", "fp16 + vDNN-dyn")
	for i, row := range rows(s.Prime(s.caseStudyPrecisionJobs()), 3) {
		f32, f16, dyn16 := row[0], row[1], row[2]
		t.AddRow(pairs[i][0].Name,
			report.FmtMiB(f32.TotalMaxUsage()), yesNo(f32.Trainable),
			report.FmtMiB(f16.TotalMaxUsage()), yesNo(f16.Trainable),
			yesNo(dyn16.Trainable))
	}
	t.AddNote("halving precision alone does not fit the very deep networks; vDNN composes with it")
	return t
}

// resnetBatches are the ResNet case study's batch sizes, in row order.
var resnetBatches = []int{16, 32, 64, 128}

func (s *Suite) caseStudyResNetJobs() []sweep.Job {
	return s.cross(s.netsOf("resnet152", networks.ResNet152, resnetBatches...),
		plan.Axis{baseP, dynamic, oracle(baseP)})
}

// CaseStudyResNet applies vDNN to the ">100 convolutional layers" ImageNet
// winner the paper's introduction anticipates (ResNet, He et al. [15]):
// batch-size scaling of ResNet-152 on the 12 GB Titan X.
func (s *Suite) CaseStudyResNet() *report.Table {
	t := report.NewTable("Case study — ResNet-152 on 12 GB (the paper's anticipated >100-layer winner)",
		"batch", "base(p) demand (MB)", "base(p)", "vDNN-dyn", "dyn max (MB)", "dyn vs oracle")
	for i, row := range rows(s.Prime(s.caseStudyResNetJobs()), 3) {
		base, dyn, target := row[0], row[1], row[2]
		t.AddRow(fmt.Sprintf("%d", resnetBatches[i]),
			report.FmtMiB(base.TotalMaxUsage()), yesNo(base.Trainable), yesNo(dyn.Trainable),
			report.FmtMiB(dyn.MaxUsage),
			fmt.Sprintf("%.2f", float64(target.FETime)/float64(dyn.FETime)))
	}
	t.AddNote("residual joins share gradients through the add (dnn.Tensor.GradShare); BN layers are vDNN-managed like any non-in-place layer")
	return t
}

// caseDevices are the devices case study's GPU generations, in row order.
var caseDevices = []gpu.Spec{gpu.TeslaK40(), gpu.GTX980(), gpu.TitanX(), gpu.TitanXNVLink(), gpu.PascalP100()}

func (s *Suite) caseStudyDevicesJobs() []sweep.Job {
	return s.cross(s.vgg16(256), axis(deviceVariant, caseDevices...), plan.Axis{baseP, dynamic})
}

// CaseStudyDevices runs the headline workload across GPU generations,
// showing where vDNN's trainability benefit lands on each.
func (s *Suite) CaseStudyDevices() *report.Table {
	t := report.NewTable("Case study — VGG-16 (256) across devices",
		"device", "memory", "base(p)", "vDNN-dyn", "dyn iteration (ms)")
	for i, row := range rows(s.Prime(s.caseStudyDevicesJobs()), 2) {
		spec, base, dyn := caseDevices[i], row[0], row[1]
		t.AddRow(spec.Name, fmt.Sprintf("%d GB", spec.MemBytes>>30),
			yesNo(base.Trainable), yesNo(dyn.Trainable), report.FmtMs(int64(dyn.IterTime)))
	}
	t.AddNote("vDNN's profiling adapts the offload set and algorithms to each device's capacity and link")
	return t
}
