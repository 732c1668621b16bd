package figures

import (
	"slices"
	"testing"

	"vdnn"
	"vdnn/internal/compress"
	"vdnn/internal/gpu"
)

// TestCompressionNeverIncreasesOffload is the case study's acceptance
// criterion: at every batch size, enabling a codec never increases the
// offload wire traffic (the codec bypasses incompressible buffers), the raw
// traffic is codec-independent, and the default ZVC point genuinely shrinks
// VGG-16's offload bytes.
func TestCompressionNeverIncreasesOffload(t *testing.T) {
	if testing.Short() {
		t.Skip("full compression study; skipped in -short mode")
	}
	s := NewSuiteSim(gpu.TitanX(), vdnn.NewSimulator(vdnn.WithParallelism(4)))
	for i, row := range rows(s.Prime(s.caseStudyCompressionJobs()), len(compressionCodecs)) {
		b, base := compressionBatches[i], row[0] // CodecNone
		if base.CompressionRatio != 1 || base.OffloadRawBytes != base.OffloadBytes {
			t.Fatalf("batch %d: uncompressed run reports compression (%+v)", b, base.CompressionRatio)
		}
		for j, r := range row[1:] {
			c := compressionCodecs[1+j]
			if r.OffloadBytes > base.OffloadBytes {
				t.Fatalf("batch %d %v: compression increased offload bytes (%d > %d)",
					b, c, r.OffloadBytes, base.OffloadBytes)
			}
			if r.PrefetchBytes > base.PrefetchBytes {
				t.Fatalf("batch %d %v: compression increased prefetch bytes", b, c)
			}
			if r.OffloadRawBytes != base.OffloadBytes {
				t.Fatalf("batch %d %v: raw bytes %d != uncompressed wire %d",
					b, c, r.OffloadRawBytes, base.OffloadBytes)
			}
		}
		zvc := row[slices.Index(compressionCodecs, compress.CodecZVC)]
		if zvc.OffloadBytes >= base.OffloadBytes {
			t.Fatalf("batch %d: ZVC saved nothing (%d vs %d)", b, zvc.OffloadBytes, base.OffloadBytes)
		}
	}
}

// TestCompressionTableShape pins the table layout the benchmarks read.
func TestCompressionTableShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full compression study; skipped in -short mode")
	}
	s := NewSuite(gpu.TitanX())
	tab := s.CaseStudyCompression()
	if want := len(compressionBatches) * len(compressionCodecs); len(tab.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), want)
	}
}
