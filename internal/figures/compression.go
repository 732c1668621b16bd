package figures

import (
	"fmt"

	"vdnn/internal/compress"
	"vdnn/internal/plan"
	"vdnn/internal/report"
	"vdnn/internal/sweep"
)

// compressionBatches are the VGG-16 batch sizes of the compressed-DMA case
// study (the paper's conventional-network sweep points).
var compressionBatches = []int{64, 128, 256}

// compressionCodecs are the codec points of the study, in column order.
var compressionCodecs = []compress.Codec{compress.CodecNone, compress.CodecZVC, compress.CodecRLE}

// caseStudyCompressionJobs is the simulation set: VGG-16 at each batch size
// under vDNN-all(m) — the maximum-offload policy, where the interconnect
// hurts most — with every codec at the default cdma sparsity profile.
func (s *Suite) caseStudyCompressionJobs() []sweep.Job {
	codec := func(c compress.Codec) plan.Variant { return plan.CodecVariant(c, "") }
	return s.cross(s.vgg16(compressionBatches...), plan.Axis{allM}, axis(codec, compressionCodecs...))
}

// CaseStudyCompression reproduces the headline claim of the cDMA follow-up
// paper ("Compressing DMA Engine", Rhu et al.) inside this simulator: vDNN's
// offload traffic is mostly ReLU output, so a sparsity-aware codec in the
// DMA engines shrinks the PCIe traffic substantially — and because the codec
// never expands a buffer, enabling it never increases offload bytes (the
// invariant TestCompressionNeverIncreasesOffload pins).
func (s *Suite) CaseStudyCompression() *report.Table {
	t := report.NewTable("Case study — compressing DMA engine: VGG-16, vDNN-all(m), cdma sparsity profile",
		"batch", "codec", "offload raw (MB)", "offload wire (MB)", "ratio", "codec busy (ms)", "FE (ms)", "vs uncompressed")
	for i, row := range rows(s.Prime(s.caseStudyCompressionJobs()), len(compressionCodecs)) {
		base := row[0] // CodecNone
		for j, r := range row {
			t.AddRow(fmt.Sprintf("%d", compressionBatches[i]), compressionCodecs[j].String(),
				report.FmtMiB(r.OffloadRawBytes), report.FmtMiB(r.OffloadBytes),
				fmt.Sprintf("%.2fx", r.CompressionRatio),
				report.FmtMs(int64(r.CompressTime+r.DecompressTime)),
				report.FmtMs(int64(r.FETime)),
				fmt.Sprintf("%.2fx", float64(base.FETime)/float64(r.FETime)))
		}
	}
	t.AddNote("cDMA paper: ReLU sparsity averages 45-90%%; ZVC shrinks offload traffic 2-4x and recovers performance lost to offload-bound layers")
	return t
}
